"""Verdict/config wire serialization: every Verdict type round-trips the
JSON wire form exactly (non-finite bounds included), and the canonical
form strips only run bookkeeping."""

import json

import numpy as np
import pytest

from repro.api import (
    ContainmentSpec,
    MaximizeSpec,
    OutputRangeSpec,
    PropositionSpec,
    ThresholdSpec,
    VerificationEngine,
    VerifyConfig,
    canonical_verdict_json,
    config_from_json,
    config_to_json,
    verdict_from_dict,
    verdict_from_json,
    verdict_to_dict,
    verdict_to_json,
)
from repro.api.verdict import (
    ContainmentVerdict,
    FailedVerdict,
    MaximizeVerdict,
    Provenance,
    RangeVerdict,
)
from repro.core import (
    LipschitzCertificate,
    ProofArtifacts,
    StateAbstractions,
    VerificationProblem,
)
from repro.domains import Box
from repro.errors import SerializationError


def _roundtrip(verdict):
    """Assert the wire form is a fixed point and return the clone."""
    wire = verdict_to_json(verdict)
    clone = verdict_from_json(wire)
    assert type(clone) is type(verdict)
    assert verdict_to_json(clone) == wire
    assert canonical_verdict_json(clone) == canonical_verdict_json(verdict)
    return clone


@pytest.fixture
def engine():
    return VerificationEngine(VerifyConfig())


class TestSolvedVerdictRoundTrips:
    """Round-trips of verdicts produced by real engine runs."""

    def test_maximize(self, engine, fig2, enlarged_box2):
        verdict = engine.verify(MaximizeSpec(
            network=fig2, input_box=enlarged_box2,
            objective=np.array([1.0])))
        clone = _roundtrip(verdict)
        assert clone.result.status == verdict.result.status
        assert clone.result.upper_bound == verdict.result.upper_bound
        assert np.array_equal(clone.result.witness, verdict.result.witness)

    def test_containment(self, engine, fig2, enlarged_box2):
        verdict = engine.verify(ContainmentSpec(
            network=fig2, input_box=enlarged_box2,
            target=Box(-50 * np.ones(1), 50 * np.ones(1))))
        clone = _roundtrip(verdict)
        assert clone.holds is verdict.holds
        assert clone.result.method == verdict.result.method

    def test_containment_counterexample(self, engine, fig2, enlarged_box2):
        verdict = engine.verify(ContainmentSpec(
            network=fig2, input_box=enlarged_box2,
            target=Box(np.array([100.0]), np.array([200.0])),
            method="exact"))
        assert verdict.holds is False
        clone = _roundtrip(verdict)
        assert np.array_equal(clone.counterexample, verdict.counterexample)
        assert clone.violation == verdict.violation

    def test_output_range(self, engine, fig2, enlarged_box2):
        verdict = engine.verify(OutputRangeSpec(network=fig2,
                                                input_box=enlarged_box2))
        clone = _roundtrip(verdict)
        assert np.array_equal(clone.output_range.lower,
                              verdict.output_range.lower)
        assert np.array_equal(clone.output_range.upper,
                              verdict.output_range.upper)

    def test_threshold_with_certificate(self, engine, fig2, enlarged_box2):
        verdict = engine.verify(ThresholdSpec(
            network=fig2, input_box=enlarged_box2,
            objective=np.array([1.0]), threshold=12.0))
        assert verdict.certified
        clone = _roundtrip(verdict)
        assert clone.certificate.num_leaves == verdict.certificate.num_leaves
        assert clone.certificate.block_dims == verdict.certificate.block_dims
        assert np.array_equal(clone.certificate.leaves,
                              verdict.certificate.leaves)
        assert clone.certificate.compatible_with(fig2)

    @pytest.mark.parametrize("triple", [[0, 9, 1], [5, 0, 1], [0, 0, 2]])
    def test_certificate_leaf_outside_architecture_rejected(
            self, engine, fig2, enlarged_box2, triple):
        """The verdict's certificate leaves decode into a phase matrix of
        the recorded architecture; a triple naming a neuron outside it,
        or a phase other than +-1, is a SerializationError."""
        verdict = engine.verify(ThresholdSpec(
            network=fig2, input_box=enlarged_box2,
            objective=np.array([1.0]), threshold=12.0))
        data = json.loads(verdict_to_json(verdict))
        data["certificate"]["leaves"][0].append(triple)
        with pytest.raises(SerializationError, match="certificate leaves"):
            verdict_from_json(json.dumps(data))

    def test_proposition(self, engine, fig2, unit_box2, enlarged_box2):
        problem = VerificationProblem(
            fig2, unit_box2, Box(np.array([-12.0]), np.array([12.0])))
        artifacts = ProofArtifacts(
            problem=problem,
            states=StateAbstractions(boxes=[
                Box(np.zeros(3), 8 * np.ones(3)),
                Box(np.array([0.0]), np.array([12.0]))]),
            lipschitz=LipschitzCertificate(ell=20.0),
            states_prove_safety=True,
            original_time=1.0)
        verdict = engine.verify(PropositionSpec(
            kind=3, artifacts=artifacts, enlarged_din=enlarged_box2))
        clone = _roundtrip(verdict)
        assert clone.result.proposition == verdict.result.proposition
        assert len(clone.subproblems) == len(verdict.subproblems)


class TestConstructedVerdictRoundTrips:
    """Hand-built verdicts exercise the corners solves rarely hit."""

    def test_nonfinite_bounds(self):
        from repro.exact.bab import BaBResult

        verdict = MaximizeVerdict(
            spec_type="maximize", holds=None,
            provenance=Provenance(elapsed=0.25, lp_solves=3),
            detail="status=node_limit",
            result=BaBResult(status="node_limit", upper_bound=float("inf"),
                             incumbent=float("-inf"), witness=None,
                             nodes=7, lp_solves=3))
        clone = _roundtrip(verdict)
        assert clone.result.upper_bound == float("inf")
        assert clone.result.incumbent == float("-inf")
        # The wire text itself stays strict RFC 8259: no Infinity tokens.
        wire = verdict_to_json(verdict)
        assert "Infinity" not in wire and '"inf"' in wire

    def test_nonfinite_violation_and_nan(self):
        from repro.exact.verify import ContainmentResult

        verdict = ContainmentVerdict(
            spec_type="containment", holds=None, provenance=Provenance(),
            detail="", result=ContainmentResult(
                holds=None, method="symbolic", violation=float("inf"),
                counterexample=np.array([1.0, float("nan")])))
        clone = _roundtrip(verdict)
        assert clone.result.violation == float("inf")
        assert np.isnan(clone.result.counterexample[1])

    def test_range_with_infinite_box(self):
        verdict = RangeVerdict(
            spec_type="output_range", holds=None, provenance=Provenance(),
            detail="", output_range=Box(np.array([-np.inf, 0.0]),
                                        np.array([np.inf, 1.0])))
        clone = _roundtrip(verdict)
        assert clone.output_range.lower[0] == -np.inf
        assert clone.output_range.upper[0] == np.inf

    def test_failed_verdict(self):
        verdict = FailedVerdict(
            spec_type="containment", holds=None,
            provenance=Provenance(workers=4),
            detail="ShapeError: boom", error="boom",
            error_type="ShapeError")
        clone = _roundtrip(verdict)
        assert clone.error == "boom"
        assert clone.error_type == "ShapeError"

    def test_cached_provenance_flag(self):
        verdict = FailedVerdict(
            spec_type="maximize", holds=None,
            provenance=Provenance(cached=True), detail="")
        clone = _roundtrip(verdict)
        assert clone.provenance.cached is True


class TestCanonicalForm:
    def test_canonical_strips_only_run_bookkeeping(self, engine, fig2,
                                                   enlarged_box2):
        spec = MaximizeSpec(network=fig2, input_box=enlarged_box2,
                            objective=np.array([1.0]))
        first = engine.verify(spec)
        second = engine.verify(spec)
        # Wall clocks differ run to run; the canonical value must not.
        assert first.provenance.elapsed != second.provenance.elapsed
        assert canonical_verdict_json(first) == canonical_verdict_json(second)
        data = json.loads(canonical_verdict_json(first))
        assert "provenance" not in data
        assert data["result"]["upper_bound"] == first.result.upper_bound

    def test_canonical_strips_nested_elapsed(self):
        from repro.exact.verify import ContainmentResult

        verdict = ContainmentVerdict(
            spec_type="containment", holds=True,
            provenance=Provenance(elapsed=1.0), detail="",
            result=ContainmentResult(holds=True, method="exact",
                                     elapsed=123.0))
        data = json.loads(canonical_verdict_json(verdict))
        assert "elapsed" not in data["result"]

    def test_canonical_strips_pool_width_wire_keeps_it(self, fig2,
                                                        enlarged_box2):
        spec = ThresholdSpec(network=fig2, input_box=enlarged_box2,
                             objective=np.array([1.0]), threshold=6.5)
        one, two = (VerificationEngine(VerifyConfig(workers=w)).verify(spec)
                    for w in (1, 2))
        assert canonical_verdict_json(one) == canonical_verdict_json(two)
        assert "workers" not in json.loads(
            canonical_verdict_json(two))["result"]
        assert verdict_to_dict(two)["result"]["workers"] == 2

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError, match="unknown verdict"):
            verdict_from_dict({"verdict": "nope"})
        with pytest.raises(SerializationError, match="verdict.*tag"):
            verdict_from_dict({"holds": True})

    def test_missing_common_keys_rejected(self):
        # Missing envelope fields surface as SerializationError too, not
        # a raw KeyError (callers catch one error type for wire input).
        with pytest.raises(SerializationError, match="spec_type"):
            verdict_from_dict({"verdict": "failed"})
        with pytest.raises(SerializationError, match="provenance"):
            verdict_from_dict({"verdict": "failed", "spec_type": "x",
                               "holds": None})

    def test_not_a_verdict_rejected(self):
        with pytest.raises(SerializationError, match="not a wire"):
            verdict_to_dict(object())


_PROVENANCE_COUNTS = ("lp_solves", "nodes", "rounds", "workers",
                      "nodes_reused", "lp_solves_saved",
                      "encoding_reuse.misses")
_RESULT_COUNTS = ("nodes", "lp_solves", "rounds", "max_batch", "workers",
                  "nodes_reused", "lp_solves_saved")


class TestVerdictWireCounts:
    """A count that is not a non-negative JSON integer makes the verdict
    decoder raise the permanent SerializationError -- never the
    OverflowError of ``int(1e400)``, which the retry machinery would call
    transient and retry."""

    @pytest.fixture(scope="class")
    def wire(self):
        from repro.nn import fig2_network

        verdict = VerificationEngine(VerifyConfig()).verify(MaximizeSpec(
            network=fig2_network(),
            input_box=Box(-np.ones(2), np.array([1.1, 1.1])),
            objective=np.array([1.0])))
        return verdict_to_json(verdict)

    @pytest.mark.parametrize("value", ["1e400", "2.5", "true", "-1"])
    @pytest.mark.parametrize("field", [
        *(f"provenance.{name}" for name in _PROVENANCE_COUNTS),
        *(f"result.{name}" for name in _RESULT_COUNTS)])
    def test_bad_count_is_permanent_serialization_error(self, wire, field,
                                                        value):
        from repro.serve.resilience import classify_failure

        data = json.loads(wire)
        *path, key = field.split(".")
        node = data
        for part in path:
            node = node[part]
        assert type(node[key]) is int
        node[key] = "__BAD__"
        document = json.dumps(data).replace('"__BAD__"', value)
        with pytest.raises(SerializationError, match="non-negative") as info:
            verdict_from_json(document)
        assert classify_failure(info.value) == ("SerializationError", False)

    @pytest.mark.parametrize("value", ["1e400", "2.5", "true", "-1"])
    @pytest.mark.parametrize("kind,path", [
        ("containment", ("result", "lp_solves")),
        ("containment", ("result", "nodes")),
        ("proposition", ("result", "subproblems", 0, "lp_solves")),
        ("continuous", ("result", "encoding_reuse", "hits")),
        ("continuous", ("result", "nodes_reused")),
        ("continuous", ("result", "lp_solves_saved")),
        ("baseline", ("result", "lp_solves")),
        ("baseline", ("result", "nodes")),
    ])
    def test_bad_payload_count_is_permanent_serialization_error(
            self, fig2, unit_box2, kind, path, value):
        from repro.serve.resilience import classify_failure

        wire = verdict_to_json(_payload_verdicts(fig2, unit_box2)[kind])
        assert verdict_to_json(verdict_from_json(wire)) == wire
        with pytest.raises(SerializationError, match="non-negative") as info:
            verdict_from_json(_with_bad_value(wire, path, value))
        assert classify_failure(info.value) == ("SerializationError", False)


class TestVerdictCertificateWire:
    """The threshold verdict's certificate decodes strictly too: every
    ``block_dims`` entry and every leaf triple's block and unit are
    non-negative JSON integers, and a phase is the JSON integer -1 or +1.
    Anything else is a permanent SerializationError -- never the
    ``OverflowError`` of ``int(1e400)``, nor a silent ``int()`` cast."""

    @pytest.fixture(scope="class")
    def wire(self):
        from repro.nn import fig2_network

        verdict = VerificationEngine(VerifyConfig()).verify(ThresholdSpec(
            network=fig2_network(),
            input_box=Box(-np.ones(2), np.array([1.1, 1.1])),
            objective=np.array([1.0]), threshold=6.5))
        assert verdict.certified
        wire = verdict_to_json(verdict)
        assert json.loads(wire)["certificate"]["leaves"][1][1] == [0, 1, -1]
        return wire

    @pytest.mark.parametrize("value", ["1e400", "2.5", "true", "-1"])
    @pytest.mark.parametrize("path", [
        ("certificate", "block_dims", 0),
        ("certificate", "block_dims", 1),
        ("certificate", "leaves", 1, 1, 0),
        ("certificate", "leaves", 1, 1, 1),
    ])
    def test_bad_integer_is_permanent_serialization_error(self, wire, path,
                                                          value):
        from repro.serve.resilience import classify_failure

        assert verdict_to_json(verdict_from_json(wire)) == wire
        with pytest.raises(SerializationError, match="non-negative") as info:
            verdict_from_json(_with_bad_value(wire, path, value))
        assert classify_failure(info.value) == ("SerializationError", False)

    @pytest.mark.parametrize("value", ["1e400", "2.5", "true", "0", "2",
                                       "-1.0"])
    def test_bad_phase_is_permanent_serialization_error(self, wire, value):
        from repro.serve.resilience import classify_failure

        path = ("certificate", "leaves", 1, 1, 2)
        with pytest.raises(SerializationError,
                           match="phase must be -1 or \\+1") as info:
            verdict_from_json(_with_bad_value(wire, path, value))
        assert classify_failure(info.value) == ("SerializationError", False)


class TestArtifactsWire:
    """The artifacts' network-abstraction recipe decodes strictly:
    ``netabs.num_groups`` is a non-negative JSON integer."""

    @pytest.fixture(scope="class")
    def wire(self):
        from repro.api.verdict import BaselineVerdict
        from repro.core.verifier import BaselineOutcome
        from repro.netabs.abstraction import build_abstraction
        from repro.nn import random_relu_network

        net = random_relu_network([2, 6, 4, 1], seed=1)
        box = Box(np.zeros(2), np.ones(2))
        problem = VerificationProblem(net, box, Box(-50 * np.ones(1),
                                                    50 * np.ones(1)))
        artifacts = ProofArtifacts(
            problem=problem,
            network_abstraction=build_abstraction(net, box, num_groups=1))
        return verdict_to_json(BaselineVerdict(
            spec_type="baseline", holds=True, provenance=Provenance(),
            detail="", result=BaselineOutcome(
                holds=True, artifacts=artifacts, elapsed=1.0)))

    @pytest.mark.parametrize("value", ["1e400", "2.5", "true", "-1"])
    def test_bad_num_groups_is_permanent_serialization_error(self, wire,
                                                             value):
        from repro.serve.resilience import classify_failure

        assert verdict_to_json(verdict_from_json(wire)) == wire
        path = ("result", "artifacts", "netabs", "num_groups")
        with pytest.raises(SerializationError, match="non-negative") as info:
            verdict_from_json(_with_bad_value(wire, path, value))
        assert classify_failure(info.value) == ("SerializationError", False)


def _with_bad_value(document: str, path, value: str) -> str:
    """``document`` with the JSON integer at ``path`` replaced by the
    literal ``value``."""
    data = json.loads(document)
    *parents, key = path
    node = data
    for part in parents:
        node = node[part]
    assert type(node[key]) is int
    node[key] = "__BAD__"
    return json.dumps(data).replace('"__BAD__"', value)


def _payload_verdicts(fig2, box):
    """One hand-built verdict per tag whose payload carries its own
    counts (containment, proposition subproblem, continuous, baseline)."""
    from repro.api.verdict import (
        BaselineVerdict,
        ContinuousVerdict,
        PropositionVerdict,
    )
    from repro.core.continuous import ContinuousResult
    from repro.core.propositions import PropositionResult, SubproblemReport
    from repro.core.verifier import BaselineOutcome
    from repro.exact.verify import ContainmentResult

    common = {"holds": True, "provenance": Provenance(), "detail": ""}
    problem = VerificationProblem(fig2, box, Box(-50 * np.ones(1),
                                                 50 * np.ones(1)))
    return {
        "containment": ContainmentVerdict(
            spec_type="containment", **common, result=ContainmentResult(
                holds=True, method="exact", lp_solves=3, nodes=2)),
        "proposition": PropositionVerdict(
            spec_type="proposition", **common, result=PropositionResult(
                proposition="prop3", holds=True, subproblems=[
                    SubproblemReport("s0", True, 0.5, lp_solves=2)])),
        "continuous": ContinuousVerdict(
            spec_type="continuous", **common, result=ContinuousResult(
                holds=True, strategy="prop3",
                encoding_reuse={"hits": 1, "misses": 2},
                nodes_reused=3, lp_solves_saved=4)),
        "baseline": BaselineVerdict(
            spec_type="baseline", **common, result=BaselineOutcome(
                holds=True, artifacts=ProofArtifacts(problem=problem),
                elapsed=1.0, lp_solves=5, nodes=6)),
    }


class TestSpecWireCounts:
    """The network sizes of a spec decode strictly too: a bad
    ``input_dim`` or Dense ``in_dim``/``out_dim`` is a permanent
    SerializationError, not an ``OverflowError`` the retry machinery
    would call transient."""

    @pytest.mark.parametrize("value", ["1e400", "2.5", "true", "-1"])
    @pytest.mark.parametrize("path", [
        ("network", "input_dim"),
        ("network", "layers", 0, "config", "in_dim"),
        ("network", "layers", 0, "config", "out_dim"),
        ("network", "layers", 2, "config", "in_dim"),
    ])
    def test_bad_network_size_is_permanent_serialization_error(
            self, fig2, unit_box2, path, value):
        from repro.api import spec_from_json, spec_to_json
        from repro.serve.resilience import classify_failure

        wire = spec_to_json(MaximizeSpec(network=fig2, input_box=unit_box2,
                                         objective=np.array([1.0])))
        assert spec_to_json(spec_from_json(wire)) == wire
        with pytest.raises(SerializationError, match="non-negative") as info:
            spec_from_json(_with_bad_value(wire, path, value))
        assert classify_failure(info.value) == ("SerializationError", False)


class TestConfigWire:
    def test_roundtrip(self):
        config = VerifyConfig(workers=3, tol=1e-7, node_tighten=True,
                              node_limit=9)
        assert config_from_json(config_to_json(config)) == config

    def test_canonical_bytes(self):
        config = VerifyConfig()
        assert config_to_json(config) == config_to_json(VerifyConfig())
        data = json.loads(config_to_json(config))
        assert list(data) == sorted(data)

    def test_unknown_keys_rejected(self):
        with pytest.raises(Exception, match="unknown"):
            config_from_json('{"tol": 1e-6, "warp_speed": true}')

    def test_non_object_rejected(self):
        with pytest.raises(SerializationError, match="object"):
            config_from_json("[1, 2]")

    @pytest.mark.parametrize("document", [
        '{"workers": 1e400}',
        '{"node_limit": 1e400}',
        '{"workers": 2.5}',
        '{"workers": true}',
        '{"full_node_limit": 3.0}',
        '{"max_boxes": "10"}',
        '{"tol": true}',
        '{"tol": 1e400}',
        '{"tol": "1e-6"}',
    ])
    def test_non_integer_counts_rejected_permanently(self, document):
        from repro.errors import ReproError
        from repro.serve.resilience import classify_failure

        with pytest.raises(ReproError) as info:
            config_from_json(document)
        assert classify_failure(info.value) == (type(info.value).__name__,
                                                False)

    def test_numpy_integer_counts_accepted(self):
        config = VerifyConfig(workers=np.int64(2), node_limit=np.int32(7))
        assert config.workers == 2 and type(config.workers) is int
        assert config_from_json(config_to_json(config)) == config


class TestDeeplyNestedDocuments:
    """JSON nested past the parser's depth is a malformed document: each
    wire decoder raises a permanent SerializationError, never a bare
    RecursionError the retry machinery would call transient."""

    DEPTH = 100000

    @pytest.mark.parametrize("decoder", [
        "spec_from_json", "config_from_json", "verdict_from_json"])
    @pytest.mark.parametrize("wrap", ["{}", '{{"spec": {}}}'])
    def test_decoder_raises_permanent_serialization_error(self, decoder,
                                                          wrap):
        import repro.api
        from repro.serve.resilience import classify_failure

        document = wrap.format("[" * self.DEPTH + "]" * self.DEPTH)
        with pytest.raises(SerializationError, match="nested too deeply") \
                as info:
            getattr(repro.api, decoder)(document)
        assert classify_failure(info.value) == ("SerializationError", False)


def _reference_decision_json(verdict) -> str:
    """The decision projected out of the full wire dict -- the definition
    ``verdict_decision_json`` must reproduce byte for byte."""
    data = verdict_to_dict(verdict)
    decision = {key: data[key] for key in ("verdict", "spec_type", "holds")}
    result = data.get("result")
    if isinstance(result, dict) and "status" in result:
        status = result["status"]
        if data["holds"] is True and status in ("optimal",
                                                "threshold_proved"):
            status = "proved"
        decision["status"] = status
    return json.dumps(decision, allow_nan=False, sort_keys=True)


class TestDecisionJson:
    """``verdict_decision_json`` reads its four fields off the verdict;
    for every tag it equals the projection of the full wire dict."""

    @pytest.fixture(scope="class")
    def verdicts(self):
        from repro.exact.bab import BaBResult
        from repro.nn import fig2_network

        fig2 = fig2_network()
        unit = Box(-np.ones(2), np.ones(2))
        box = Box(-np.ones(2), np.array([1.1, 1.1]))
        c = np.array([1.0])
        engine = VerificationEngine(VerifyConfig())
        solved = {
            "containment": engine.verify(ContainmentSpec(
                network=fig2, input_box=box,
                target=Box(-50 * np.ones(1), 50 * np.ones(1)))),
            "containment_refuted": engine.verify(ContainmentSpec(
                network=fig2, input_box=box,
                target=Box(np.array([100.0]), np.array([200.0])),
                method="exact")),
            "range": engine.verify(OutputRangeSpec(network=fig2,
                                                   input_box=box)),
            "threshold_certified": engine.verify(ThresholdSpec(
                network=fig2, input_box=box, objective=c, threshold=12.0)),
            "threshold_refuted": engine.verify(ThresholdSpec(
                network=fig2, input_box=box, objective=c, threshold=1.0)),
            "maximize": engine.verify(MaximizeSpec(
                network=fig2, input_box=box, objective=c)),
            "maximize_threshold_holds": engine.verify(MaximizeSpec(
                network=fig2, input_box=box, objective=c, threshold=12.0)),
            "maximize_threshold_fails": engine.verify(MaximizeSpec(
                network=fig2, input_box=box, objective=c, threshold=1.0)),
            "minimize": engine.verify(MaximizeSpec(
                network=fig2, input_box=box, objective=c, minimize=True)),
            "baseline_solved": engine.baseline(VerificationProblem(
                fig2, unit, Box(-50 * np.ones(1), 50 * np.ones(1)))),
            "maximize_node_limit": MaximizeVerdict(
                spec_type="maximize", holds=None, provenance=Provenance(),
                detail="", result=BaBResult(
                    status="node_limit", upper_bound=float("inf"),
                    incumbent=float("-inf"), witness=None, nodes=7,
                    lp_solves=3)),
            "failed": FailedVerdict(
                spec_type="threshold", holds=None, provenance=Provenance(),
                detail="ShapeError: boom", error="boom",
                error_type="ShapeError"),
        }
        assert solved["threshold_certified"].certificate is not None
        assert solved["threshold_refuted"].certificate is None
        assert solved["threshold_refuted"].holds is False
        return {**solved, **_payload_verdicts(fig2, unit)}

    @pytest.mark.parametrize("name", [
        "containment", "containment_refuted", "range",
        "threshold_certified", "threshold_refuted", "maximize",
        "maximize_threshold_holds", "maximize_threshold_fails", "minimize",
        "maximize_node_limit", "proposition", "continuous", "baseline",
        "baseline_solved", "failed"])
    def test_matches_the_wire_dict_projection(self, verdicts, name):
        from repro.api import verdict_decision_json

        verdict = verdicts[name]
        assert verdict_decision_json(verdict) == \
            _reference_decision_json(verdict)

    def test_tags_and_statuses_are_all_exercised(self, verdicts):
        from repro.api.serialize import VERDICT_TAGS

        decisions = [json.loads(_reference_decision_json(v))
                     for v in verdicts.values()]
        assert {d["verdict"] for d in decisions} == set(VERDICT_TAGS)
        statuses = {d.get("status") for d in decisions}
        assert {"proved", "node_limit", None} <= statuses
        assert len(statuses - {"proved", "node_limit", None}) >= 1

    def test_not_a_verdict_rejected(self):
        from repro.api import verdict_decision_json

        with pytest.raises(SerializationError, match="not a wire"):
            verdict_decision_json(object())
