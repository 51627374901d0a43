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
from repro.api.config import DEFAULT_METHOD, DOMAINS, METHODS
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
from repro.exact.bab import BAB_STATUSES


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

    def test_decoded_certificate_reproves_the_threshold(
            self, engine, fig2, enlarged_box2):
        """The verdict's certificate decodes to the store's own type, and
        its leaves alone warm-start a proof of the same threshold."""
        from repro.certs import Certificate, reverify_with_certificate

        verdict = engine.verify(ThresholdSpec(
            network=fig2, input_box=enlarged_box2,
            objective=np.array([1.0]), threshold=12.0))
        cert = verdict_from_json(verdict_to_json(verdict)).certificate
        assert type(cert) is Certificate and cert.leaf_duals is None
        assert cert.covers() and cert.threshold == 12.0
        result, reproved = reverify_with_certificate(
            fig2, enlarged_box2, cert.objective, cert.threshold, cert)
        assert result.status in ("threshold_proved", "optimal")
        assert reproved is not None

    def test_root_screen_proved_threshold(self, engine, fig2,
                                          enlarged_box2):
        """A threshold the root screen closes proves with no LP; its
        certificate is the one free root leaf, and it round-trips."""
        verdict = engine.verify(ThresholdSpec(
            network=fig2, input_box=enlarged_box2,
            objective=np.array([1.0]), threshold=1000.0))
        assert verdict.certified and verdict.result.lp_solves == 0
        assert verdict.certificate.leaves.tolist() == [[0, 0, 0, 0]]
        clone = _roundtrip(verdict)
        assert np.array_equal(clone.certificate.leaves,
                              verdict.certificate.leaves)
        assert clone.certificate.covers()

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
    """The threshold verdict's certificate decodes strictly too: its
    leaves are the store's packed int8 phase matrix, of width one column
    per neuron of ``block_dims``; every ``block_dims`` entry and the
    width are non-negative JSON integers, and the threshold is a JSON
    number (or ``"inf"``/``"-inf"``/``"nan"``).  Anything else is a
    permanent SerializationError -- never the ``OverflowError`` of
    ``int(1e400)``, nor a silent cast."""

    @pytest.fixture(scope="class")
    def wire(self):
        from repro.nn import fig2_network

        verdict = VerificationEngine(VerifyConfig()).verify(ThresholdSpec(
            network=fig2_network(),
            input_box=Box(-np.ones(2), np.array([1.1, 1.1])),
            objective=np.array([1.0]), threshold=6.5))
        assert verdict.certified
        assert verdict.certificate.leaves.tolist() == [
            [-1, 0, 0, 0], [1, -1, 0, 0], [1, 1, 0, 0]]
        return verdict_to_json(verdict)

    def test_leaves_use_the_store_encoding(self, wire):
        from repro.api.serialize import certificate_to_json

        cert = verdict_from_json(wire).certificate
        leaves = json.loads(wire)["certificate"]["leaves"]
        assert leaves == {"width": 4, "data": "/wAAAAH/AAABAQAA"}
        assert leaves == json.loads(certificate_to_json(cert))["leaves"]

    @pytest.mark.parametrize("value", ["1e400", "2.5", "true", "-1"])
    @pytest.mark.parametrize("path", [
        ("certificate", "block_dims", 0),
        ("certificate", "block_dims", 1),
        ("certificate", "leaves", "width"),
    ])
    def test_bad_integer_is_permanent_serialization_error(self, wire, path,
                                                          value):
        from repro.serve.resilience import classify_failure

        assert verdict_to_json(verdict_from_json(wire)) == wire
        with pytest.raises(SerializationError, match="non-negative") as info:
            verdict_from_json(_with_bad_value(wire, path, value))
        assert classify_failure(info.value) == ("SerializationError", False)

    @pytest.mark.parametrize("leaves, match", [
        pytest.param({"width": 2, "data": "/wAAAAH/AAABAQAA"},
                     "leaves have width 2, not one column per neuron",
                     id="wrong-width"),
        pytest.param({"width": 12, "data": "/wAAAAH/AAABAQAA"},
                     "leaves have width 12, not one column per neuron",
                     id="one-wide-row"),
        pytest.param({"width": 5, "data": "/wAAAAH/AAABAQAA"},
                     "not whole rows of width 5", id="ragged-width"),
        pytest.param({"width": 4, "data": "/wAAAAH/AAABAQAC"},
                     "phase outside -1/0/1", id="byte-2"),
        pytest.param({"width": 4, "data": "/wAAAAH/AAABAQCA"},
                     "phase outside -1/0/1", id="byte-minus-128"),
        pytest.param({"width": 4, "data": ""}, "no rows", id="no-rows"),
        pytest.param({"width": 4, "data": "!!not base64!!"}, "not base64",
                     id="not-base64"),
        pytest.param({"width": 4, "data": [255, 0, 0, 0]}, "base64 string",
                     id="data-list"),
        pytest.param([[[0, 0, -1]], [[0, 0, 1], [0, 1, -1]],
                      [[0, 0, 1], [0, 1, 1]]], "packed object",
                     id="leaf-triples"),
    ])
    def test_bad_packed_leaves_are_permanent_serialization_error(
            self, wire, leaves, match):
        from repro.serve.resilience import classify_failure

        data = json.loads(wire)
        data["certificate"]["leaves"] = leaves
        with pytest.raises(SerializationError, match=match) as info:
            verdict_from_json(json.dumps(data))
        assert classify_failure(info.value) == ("SerializationError", False)

    @pytest.mark.parametrize("value", ['"x"', "[1]", '"5"', "true",
                                       "null"])
    def test_bad_threshold_is_permanent_serialization_error(self, wire,
                                                            value):
        from repro.serve.resilience import classify_failure

        data = json.loads(wire)
        data["certificate"]["threshold"] = "__BAD__"
        document = json.dumps(data).replace('"__BAD__"', value)
        with pytest.raises(SerializationError,
                           match="certificate threshold") as info:
            verdict_from_json(document)
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


def _replaced(document: str, path, value: str) -> str:
    """``document`` with the JSON value at ``path`` replaced by the
    literal ``value``."""
    data = json.loads(document)
    *parents, key = path
    node = data
    for part in parents:
        node = node[part]
    node[key] = "__BAD__"
    return json.dumps(data).replace('"__BAD__"', value)


def _with_bad_value(document: str, path, value: str) -> str:
    """``document`` with the JSON integer at ``path`` replaced by the
    literal ``value``."""
    node = json.loads(document)
    for part in path:
        node = node[part]
    assert type(node) is int
    return _replaced(document, path, value)


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


def _spec_wires():
    """Spec wire documents that carry every threshold, flag, count and
    list field the spec decoder reads, keyed by spec type."""
    from repro.api import ContinuousLoopSpec, spec_to_json
    from repro.nn import fig2_network

    net = fig2_network()
    box = Box(-np.ones(2), np.ones(2))
    artifacts = ProofArtifacts(problem=VerificationProblem(
        net, box, Box(-50 * np.ones(1), 50 * np.ones(1))))
    c = np.array([1.0])
    specs = {
        "containment": ContainmentSpec(
            network=net, input_box=box,
            target=Box(np.zeros(1), np.full(1, 6.5)), method="exact"),
        "threshold": ThresholdSpec(network=net, input_box=box, objective=c,
                                   threshold=6.5),
        "maximize": MaximizeSpec(network=net, input_box=box, objective=c,
                                 threshold=6.5),
        "proposition": PropositionSpec(kind=5, artifacts=artifacts,
                                       new_network=net, alphas=(1,),
                                       domain="symbolic"),
        "continuous": ContinuousLoopSpec(artifacts=artifacts,
                                         new_network=net, prop5_alphas=(1,)),
    }
    return {name: spec_to_json(spec) for name, spec in specs.items()}


class TestSpecWireScalars:
    """Every spec field decodes strictly: a ``"false"`` flag, a ``"7"``
    threshold or a ``"5"`` proposition kind is a permanent
    SerializationError, never a silent cast that changes the request (a
    maximize spec with ``"minimize": "false"`` used to run as a minimize
    spec)."""

    @pytest.fixture(scope="class")
    def wires(self):
        return _spec_wires()

    def test_valid_documents_round_trip_byte_identical(self, wires):
        from repro.api import spec_from_json, spec_to_json

        for wire in wires.values():
            assert spec_to_json(spec_from_json(wire)) == wire

    @pytest.mark.parametrize("kind,field,value,match", [
        ("threshold", "threshold", '"7"', "must be a JSON number"),
        ("maximize", "threshold", '"7"', "must be a JSON number"),
        ("maximize", "minimize", '"false"', "must be a JSON true or false"),
        ("proposition", "kind", '"5"', "must be a non-negative integer"),
        ("proposition", "alphas", '["1"]', "must be a non-negative integer"),
        ("proposition", "ord", '"2"', "must be a JSON number"),
        ("proposition", "stop_on_failure", '"false"',
         "must be a JSON true or false"),
        ("proposition", "prescreen", '"false"',
         "must be a JSON true or false"),
        ("proposition", "recheck_safety", '"false"',
         "must be a JSON true or false"),
        ("continuous", "with_fixing", '"false"',
         "must be a JSON true or false"),
        ("continuous", "prop5_alphas", '["1"]',
         "must be a non-negative integer"),
    ])
    def test_bad_field_is_permanent_serialization_error(self, wires, kind,
                                                        field, value, match):
        from repro.api import spec_from_json
        from repro.serve.resilience import classify_failure

        with pytest.raises(SerializationError, match=match) as info:
            spec_from_json(_replaced(wires[kind], (field,), value))
        assert classify_failure(info.value) == ("SerializationError", False)

    @pytest.mark.parametrize("kind", ["threshold", "maximize"])
    def test_nan_threshold_is_permanent_serialization_error(self, wires,
                                                            kind):
        # max <= NaN asks nothing; the search used to report it proved.
        from repro.api import spec_from_json
        from repro.serve.resilience import classify_failure

        with pytest.raises(SerializationError, match="not NaN") as info:
            spec_from_json(_replaced(wires[kind], ("threshold",), '"nan"'))
        assert classify_failure(info.value) == ("SerializationError", False)
        for value in ('"inf"', '"-inf"'):
            wire = _replaced(wires[kind], ("threshold",), value)
            assert spec_from_json(wire).threshold == float(value[1:-1])
        spec = spec_from_json(wires[kind])
        with pytest.raises(SerializationError, match="not NaN"):
            type(spec)(network=spec.network, input_box=spec.input_box,
                       objective=spec.objective, threshold=float("nan"))

    @pytest.mark.parametrize("value", ['"auto"', '"bogus"', '["exact"]',
                                       "7", "true"])
    @pytest.mark.parametrize("kind,field", [
        ("containment", "method"), ("proposition", "method"),
        ("proposition", "domain")])
    def test_bad_method_or_domain_is_permanent_serialization_error(
            self, wires, kind, field, value):
        # A bad value must fail at decoding, not after the job was
        # accepted; "auto" is a retired method, not an alias.
        from repro.api import spec_from_json
        from repro.serve.resilience import classify_failure

        with pytest.raises(SerializationError,
                           match=f"{field} must be null or one of") as info:
            spec_from_json(_replaced(wires[kind], (field,), value))
        assert classify_failure(info.value) == ("SerializationError", False)

    @pytest.mark.parametrize("value", ["auto", "bogus", ["exact"], 7, True])
    @pytest.mark.parametrize("kind,field", [
        ("containment", "method"), ("proposition", "method"),
        ("proposition", "domain")])
    def test_bad_method_or_domain_is_rejected_at_construction(
            self, wires, kind, field, value):
        # The constructor is the one check, so an in-process submission
        # can no more queue a spec the engine would reject than a
        # decoded document can.
        from dataclasses import replace

        from repro.api import spec_from_json

        spec = spec_from_json(wires[kind])
        with pytest.raises(SerializationError,
                           match=f"{field} must be null or one of"):
            replace(spec, **{field: value})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_number_tokens_are_rejected(self, wires, token):
        """The wire is strict RFC 8259: ``NaN``/``Infinity`` tokens are a
        permanent SerializationError in every document, never a float."""
        from repro.api import spec_from_json
        from repro.api.serialize import certificate_from_json
        from repro.serve.resilience import classify_failure

        documents = [
            lambda: spec_from_json(
                _replaced(wires["threshold"], ("threshold",), token)),
            lambda: config_from_json(json.dumps(
                {**VerifyConfig().to_dict(), "tol": "__BAD__"}).replace(
                    '"__BAD__"', token)),
            lambda: verdict_from_json(
                f'{{"verdict": "failed", "holds": {token}}}'),
            lambda: certificate_from_json(f'{{"threshold": {token}}}'),
        ]
        for decode in documents:
            with pytest.raises(SerializationError,
                               match="non-standard JSON token") as info:
                decode()
            assert classify_failure(info.value) == ("SerializationError",
                                                    False)

    @pytest.mark.parametrize("kind,field,choices", [
        ("containment", "method", METHODS),
        ("proposition", "method", METHODS),
        ("proposition", "domain", DOMAINS)])
    def test_method_and_domain_choices_round_trip(self, wires, kind, field,
                                                  choices):
        from repro.api import spec_from_json, spec_to_json

        for value in (None,) + choices:
            wire = _replaced(wires[kind], (field,), json.dumps(value))
            spec = spec_from_json(wire)
            assert getattr(spec, field) == value
            assert spec_to_json(spec) == wire

    @pytest.mark.parametrize("field", ["alphas", "prop5_alphas"])
    def test_reuse_points_must_be_a_list(self, wires, field):
        from repro.api import spec_from_json

        kind = "proposition" if field == "alphas" else "continuous"
        with pytest.raises(SerializationError, match="must be a JSON list"):
            spec_from_json(_replaced(wires[kind], (field,), '"12"'))


    @pytest.mark.parametrize("value", ['"prop4"', '[4]'])
    def test_strategies_must_be_a_list_of_strings(self, wires, value):
        """A bare string used to decode to its characters and ``[4]`` to
        ``('4',)``; both are a permanent SerializationError now."""
        from repro.api import spec_from_json
        from repro.serve.resilience import classify_failure

        with pytest.raises(SerializationError,
                           match="strategies must be a JSON list of "
                                 "strings") as info:
            spec_from_json(_replaced(wires["continuous"], ("strategies",),
                                     value))
        assert classify_failure(info.value) == ("SerializationError", False)

    def test_strategies_list_round_trips(self, wires):
        from repro.api import spec_from_json, spec_to_json

        wire = _replaced(wires["continuous"], ("strategies",),
                         '["prop3", "prop1"]')
        spec = spec_from_json(wire)
        assert spec.strategies == ("prop3", "prop1")
        assert spec_to_json(spec) == wire

class TestConfigWire:
    def test_roundtrip(self):
        config = VerifyConfig(workers=3, tol=1e-7, method="exact",
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

    def test_auto_method_rejected_permanently(self):
        # "auto" was folded into "exact"; a document that still names it
        # fails loudly instead of being mapped onto another method.
        from repro.errors import ReproError
        from repro.serve.resilience import classify_failure

        document = json.dumps({**VerifyConfig().to_dict(), "method": "auto"})
        with pytest.raises(ReproError, match="unknown method 'auto'") \
                as info:
            config_from_json(document)
        assert classify_failure(info.value) == (type(info.value).__name__,
                                                False)
        with pytest.raises(ReproError, match="unknown method 'auto'"):
            VerifyConfig(method="auto")

    def test_default_method_is_exact(self):
        assert VerifyConfig().method == DEFAULT_METHOD == "exact"
        assert METHODS == ("symbolic", "split", "exact")

    @pytest.mark.parametrize("key", ["interval_prune", "node_tighten"])
    @pytest.mark.parametrize("value", [True, False, "false"])
    def test_removed_search_switches_rejected_permanently(self, key, value):
        # The search runs one configuration; a document that still picks
        # one fails loudly instead of decoding "false" as bool("false").
        from repro.errors import ReproError
        from repro.serve.resilience import classify_failure

        document = json.dumps({**VerifyConfig().to_dict(), key: value})
        with pytest.raises(ReproError, match=key) as info:
            config_from_json(document)
        assert classify_failure(info.value) == (type(info.value).__name__,
                                                False)

    def test_decoded_config_re_encodes_to_the_same_bytes(self):
        # VerifyConfig.to_dict is the one encoder; the table that decodes
        # is read off the dataclass, so a float is kept as written.
        from repro.api.serialize import CONFIG

        assert [(f.name, f.default) for f in CONFIG.fields] == \
            list(VerifyConfig().to_dict().items())
        document = config_to_json(VerifyConfig(tol=1, workers=2))
        assert '"tol": 1,' in document
        assert config_to_json(config_from_json(document)) == document

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
        "spec_from_json", "config_from_json", "verdict_from_json",
        "certificate_from_json"])
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


class TestUnparsableDocuments:
    """Text that is not JSON is a malformed document for every wire
    decoder: a permanent SerializationError, never a bare
    ``JSONDecodeError``."""

    @pytest.mark.parametrize("decoder", [
        "spec_from_json", "config_from_json", "verdict_from_json",
        "certificate_from_json"])
    @pytest.mark.parametrize("document", ["{not json", "", '{"a": 1,}'])
    def test_not_json_is_permanent_serialization_error(self, decoder,
                                                       document):
        import repro.api
        from repro.serve.resilience import classify_failure

        with pytest.raises(SerializationError, match="is not JSON") as info:
            getattr(repro.api, decoder)(document)
        assert classify_failure(info.value) == ("SerializationError", False)


def _scalar_wires():
    """Verdict wire documents that carry every float, flag and array
    field the decoder reads, keyed by name."""
    from repro.api.verdict import (
        BaselineVerdict,
        ContinuousVerdict,
        PropositionVerdict,
    )
    from repro.core.continuous import ContinuousResult
    from repro.core.fixing import FixingResult
    from repro.core.propositions import PropositionResult, SubproblemReport
    from repro.core.verifier import BaselineOutcome
    from repro.exact.verify import ContainmentResult
    from repro.netabs.abstraction import build_abstraction
    from repro.nn import fig2_network, random_relu_network

    net = fig2_network()
    box = Box(-np.ones(2), np.array([1.1, 1.1]))
    engine = VerificationEngine(VerifyConfig())
    common = {"holds": True, "provenance": Provenance(elapsed=0.5),
              "detail": ""}
    # The abstraction needs a linear output block, which Fig. 2 lacks.
    head = random_relu_network([2, 6, 4, 1], seed=1)
    problem = VerificationProblem(head, box, Box(-50 * np.ones(1),
                                                 50 * np.ones(1)))
    artifacts = ProofArtifacts(
        problem=problem, lipschitz=LipschitzCertificate(ell=20.0),
        network_abstraction=build_abstraction(head, box, num_groups=1),
        states_prove_safety=True, original_time=1.5)
    sub = SubproblemReport("s0", True, 0.5, lp_solves=2)
    verdicts = {
        "maximize": engine.verify(MaximizeSpec(
            network=net, input_box=box, objective=np.array([1.0]))),
        "threshold": engine.verify(ThresholdSpec(
            network=net, input_box=box, objective=np.array([1.0]),
            threshold=6.5)),
        "containment": ContainmentVerdict(
            spec_type="containment", **common, result=ContainmentResult(
                holds=False, method="exact", violation=0.25, elapsed=0.5,
                counterexample=np.array([0.5, 1.0]))),
        "proposition": PropositionVerdict(
            spec_type="proposition", **common, result=PropositionResult(
                proposition="prop3", holds=True, subproblems=[sub],
                elapsed=0.75)),
        "continuous": ContinuousVerdict(
            spec_type="continuous", **common, result=ContinuousResult(
                holds=True, strategy="fixing: output layer repair",
                elapsed=0.75,
                fixing=FixingResult(holds=True, strategy="output layer repair",
                                    subproblems=[sub], elapsed=0.5),
                winning_max_subproblem_time=0.5, winning_time=0.5)),
        "baseline": BaselineVerdict(
            spec_type="baseline", **common, result=BaselineOutcome(
                holds=True, artifacts=artifacts, elapsed=1.0)),
    }
    return {name: verdict_to_json(verdict)
            for name, verdict in verdicts.items()}


_FLOAT_FIELDS = [
    ("maximize", ("provenance", "elapsed")),
    ("maximize", ("result", "upper_bound")),
    ("maximize", ("result", "incumbent")),
    ("maximize", ("result", "mean_batch")),
    ("containment", ("result", "violation")),
    ("containment", ("result", "elapsed")),
    ("proposition", ("result", "elapsed")),
    ("proposition", ("result", "subproblems", 0, "elapsed")),
    ("continuous", ("result", "elapsed")),
    ("continuous", ("result", "winning_max_subproblem_time")),
    ("continuous", ("result", "winning_time")),
    ("continuous", ("result", "fixing", "elapsed")),
    ("baseline", ("result", "elapsed")),
    ("baseline", ("result", "artifacts", "original_time")),
    ("baseline", ("result", "artifacts", "lipschitz", "ell")),
    ("baseline", ("result", "artifacts", "lipschitz", "ord")),
    ("baseline", ("result", "artifacts", "netabs", "margin")),
]
_BOOL_FIELDS = [
    ("maximize", ("provenance", "cached")),
    ("maximize", ("provenance", "cert_hit")),
    ("baseline", ("result", "artifacts", "states_prove_safety")),
]
_ARRAY_FIELDS = [
    ("maximize", ("result", "witness")),
    ("threshold", ("certificate", "objective")),
    ("containment", ("result", "counterexample")),
    ("baseline", ("result", "artifacts", "problem", "din", "lower")),
]
_HOLDS_FIELDS = [
    ("maximize", ("holds",)),
    ("containment", ("result", "holds")),
    ("proposition", ("result", "holds")),
    ("proposition", ("result", "subproblems", 0, "holds")),
    ("continuous", ("result", "holds")),
    ("continuous", ("result", "fixing", "holds")),
    ("baseline", ("result", "holds")),
]


class TestVerdictWireScalars:
    """Every float, flag and array a verdict carries decodes strictly: a
    float is a JSON number or ``"inf"``/``"-inf"``/``"nan"``, a flag is
    JSON ``true``/``false``, and an array holds only such floats in a
    rectangular nesting.  Anything else is a permanent SerializationError
    -- never ``bool("false") == True``, ``float("5")`` or a bare
    ``ValueError``/``TypeError``."""

    @pytest.fixture(scope="class")
    def wires(self):
        return _scalar_wires()

    def test_valid_documents_round_trip_byte_identical(self, wires):
        for wire in wires.values():
            assert verdict_to_json(verdict_from_json(wire)) == wire

    def _assert_permanent(self, document, match):
        from repro.serve.resilience import classify_failure

        with pytest.raises(SerializationError, match=match) as info:
            verdict_from_json(document)
        assert classify_failure(info.value) == ("SerializationError", False)

    @pytest.mark.parametrize("value", ['"5"', '"x"', "true", "null", "[1]"])
    @pytest.mark.parametrize("kind,path", _FLOAT_FIELDS)
    def test_bad_float_is_permanent_serialization_error(self, wires, kind,
                                                        path, value):
        self._assert_permanent(_replaced(wires[kind], path, value),
                               "must be a JSON number")

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1",
                                       "null"])
    @pytest.mark.parametrize("kind,path", _BOOL_FIELDS)
    def test_bad_flag_is_permanent_serialization_error(self, wires, kind,
                                                       path, value):
        self._assert_permanent(_replaced(wires[kind], path, value),
                               "must be a JSON true or false")

    @pytest.mark.parametrize("value", ['["1"]', '["x"]', "[true]", "[null]",
                                       "[[1.0], [1.0, 2.0]]"])
    @pytest.mark.parametrize("kind,path", _ARRAY_FIELDS)
    def test_bad_array_is_permanent_serialization_error(self, wires, kind,
                                                        path, value):
        self._assert_permanent(_replaced(wires[kind], path, value),
                               "JSON number")

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "[]"])
    @pytest.mark.parametrize("kind,path", _HOLDS_FIELDS)
    def test_bad_holds_is_permanent_serialization_error(self, wires, kind,
                                                        path, value):
        self._assert_permanent(_replaced(wires[kind], path, value),
                               "must be a JSON true, false or null")

    @pytest.mark.parametrize("kind,path", _HOLDS_FIELDS)
    def test_inconclusive_holds_decodes(self, wires, kind, path):
        document = _replaced(wires[kind], path, "null")
        assert verdict_to_json(verdict_from_json(document)) == document

    @pytest.mark.parametrize("value", ["7", '["x"]', "{}", "null",
                                       '"bogus"'])
    @pytest.mark.parametrize("kind", ["maximize", "threshold"])
    def test_bad_bab_status_is_permanent_serialization_error(self, wires,
                                                             kind, value):
        self._assert_permanent(
            _replaced(wires[kind], ("result", "status"), value),
            "result status must be")

    @pytest.mark.parametrize("status", BAB_STATUSES)
    @pytest.mark.parametrize("kind", ["maximize", "threshold"])
    def test_every_bab_status_round_trips(self, wires, kind, status):
        document = _replaced(wires[kind], ("result", "status"),
                             json.dumps(status))
        verdict = verdict_from_json(document)
        assert verdict.result.status == status
        assert verdict_to_json(verdict) == document

    @pytest.mark.parametrize("value", ["7", "null", '["exact"]', "true"])
    def test_bad_containment_method_is_permanent_serialization_error(
            self, wires, value):
        self._assert_permanent(
            _replaced(wires["containment"], ("result", "method"), value),
            "containment method must be a JSON string")

    @pytest.mark.parametrize("label", ["auto(exact)", "symbolic", "exact"])
    def test_any_containment_method_label_decodes(self, wires, label):
        # Stored verdicts carry the labels of retired methods.
        document = _replaced(wires["containment"], ("result", "method"),
                             json.dumps(label))
        verdict = verdict_from_json(document)
        assert verdict.result.method == label
        assert verdict_to_json(verdict) == document


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


class TestWrongShapes:
    """A value of the wrong JSON shape anywhere in a document is a
    permanent SerializationError, never the bare ``TypeError``/
    ``AttributeError`` a hand-written decoder raised for it."""

    @pytest.fixture(scope="class")
    def wires(self):
        return {"verdict": _scalar_wires()["maximize"],
                "spec": _spec_wires()["threshold"]}

    @pytest.mark.parametrize("doc,path,value", [
        ("verdict", ("provenance",), "[]"),
        ("verdict", ("result",), "3"),
        ("verdict", ("provenance", "encoding_reuse"), "[1]"),
        ("spec", ("network",), "[]"),
        ("spec", ("network", "layers"), "5"),
        ("spec", ("input_box",), "[]"),
        ("spec", ("network", "layers", 0, "class"), '["Dense"]'),
        ("spec", ("network", "layers", 0, "config"), "[]"),
        ("spec", ("network", "layers", 0, "arrays"), "[]"),
    ])
    def test_wrong_shape_is_permanent_serialization_error(self, wires, doc,
                                                          path, value):
        from repro.api import spec_from_json
        from repro.serve.resilience import classify_failure

        decode = verdict_from_json if doc == "verdict" else spec_from_json
        with pytest.raises(SerializationError) as info:
            decode(_replaced(wires[doc], path, value))
        assert classify_failure(info.value) == ("SerializationError", False)


def _prop6_spec_wire():
    """A kind-6 spec whose stored abstraction is recorded as proving
    safety, so Proposition 6 may skip its f̂(Din) ⊆ Dout check."""
    from repro.api import spec_to_json
    from repro.netabs.abstraction import build_abstraction
    from repro.nn import random_relu_network

    head = random_relu_network([2, 6, 4, 1], seed=1)
    box = Box(-np.ones(2), np.ones(2))
    artifacts = ProofArtifacts(
        problem=VerificationProblem(head, box, Box(-50 * np.ones(1),
                                                   50 * np.ones(1))),
        network_abstraction=build_abstraction(head, box, num_groups=1),
        notes={"netabs_proves_safety": True})
    return spec_to_json(PropositionSpec(kind=6, artifacts=artifacts,
                                        new_network=head))


class TestProp6SafetyFlag:
    """Proposition 6 trusts a recorded safety flag only when it is the
    JSON ``true``: notes are free-form, so ``"false"`` or ``1`` make it
    run the f̂(Din) ⊆ Dout check instead of skipping it."""

    @pytest.mark.parametrize("flag,checked", [
        ("true", False), ('"false"', True), ("1", True), ('"true"', True)])
    def test_only_a_json_true_skips_the_check(self, flag, checked):
        from repro.api import spec_from_json

        wire = _replaced(_prop6_spec_wire(),
                         ("artifacts", "notes", "netabs_proves_safety"),
                         flag)
        verdict = VerificationEngine(VerifyConfig()).verify(
            spec_from_json(wire))
        names = [s.name for s in verdict.result.subproblems]
        assert ("f̂(Din) ⊆ Dout" in names) is checked
        assert verdict.holds is True


def test_canonical_form_keeps_free_form_notes_keys():
    """Only the fields the tables mark as bookkeeping leave the canonical
    form: a key named ``elapsed`` inside ``artifacts.notes`` is content."""
    from repro.api.verdict import BaselineVerdict
    from repro.core.verifier import BaselineOutcome
    from repro.nn import fig2_network

    box = Box(-np.ones(2), np.ones(2))
    artifacts = ProofArtifacts(
        problem=VerificationProblem(fig2_network(), box,
                                    Box(-50 * np.ones(1), 50 * np.ones(1))),
        original_time=2.0, notes={"elapsed": 1.5, "workers": 3})
    verdict = BaselineVerdict(
        spec_type="baseline", holds=True, provenance=Provenance(elapsed=1.0),
        result=BaselineOutcome(holds=True, artifacts=artifacts, elapsed=1.0))
    data = json.loads(canonical_verdict_json(verdict))
    assert data["result"]["artifacts"]["notes"] == {"elapsed": 1.5,
                                                    "workers": 3}
    assert "original_time" not in data["result"]["artifacts"]
    assert "elapsed" not in data["result"]


class TestNewlyStrictFields:
    """Values the hand-written decoders passed through untyped now decode
    only as their declared kind: strings, listed enums, optional counts,
    objects with exactly their table's keys."""

    @pytest.fixture(scope="class")
    def wires(self):
        from repro.api import spec_to_json
        from repro.api.verdict import FailedVerdict
        from repro.nn import random_relu_network
        from repro.nn.layers import Dense, LeakyReLU
        from repro.nn.network import Network

        head = random_relu_network([2, 3, 1], seed=1)
        box = Box(-np.ones(2), np.ones(2))
        baseline = VerificationEngine(VerifyConfig()).baseline(
            VerificationProblem(head, box, Box(-50 * np.ones(1),
                                               50 * np.ones(1))))
        return {
            **_scalar_wires(), **{f"{k} spec": v
                                  for k, v in _spec_wires().items()},
            "states": verdict_to_json(baseline),
            "failed": verdict_to_json(FailedVerdict(
                spec_type="maximize", holds=None, provenance=Provenance(),
                error="boom", error_type="ShapeError")),
            "leaky spec": spec_to_json(OutputRangeSpec(
                network=Network([Dense(2, 3, weight=np.ones((3, 2))),
                                 LeakyReLU(0.1),
                                 Dense(3, 1, weight=np.ones((1, 3)))],
                                input_dim=2),
                input_box=box)),
        }

    @pytest.mark.parametrize("doc,path,value,match", [
        ("containment", ("spec_type",), "[1]", "must be a JSON string"),
        ("containment", ("detail",), "7", "must be a JSON string"),
        ("containment", ("result", "detail"), "null",
         "must be a JSON string"),
        ("proposition", ("result", "subproblems", 0, "name"), "3",
         "must be a JSON string"),
        ("proposition", ("result", "proposition"), '"prop7"',
         "proposition proposition must be one of"),
        ("continuous", ("result", "strategy"), '"fixing"',
         "continuous strategy must be one of"),
        ("continuous", ("result", "fixing", "strategy"), '"prop6"',
         "fixing strategy must be one of"),
        ("continuous", ("result", "fixing", "replaced_layer"), '"2"',
         "must be a non-negative integer"),
        ("continuous", ("result", "fixing", "reentry_layer"), "-1",
         "must be a non-negative integer"),
        ("baseline", ("result", "detail"), "false", "must be a JSON string"),
        ("baseline", ("result", "artifacts", "notes"), '[["a", 1]]',
         "notes must be a JSON object"),
        ("baseline", ("result", "artifacts", "lipschitz", "method"), "null",
         "must be a JSON string"),
        ("states", ("result", "artifacts", "states", "domain"),
         '"interval"', "states domain must be one of"),
        ("failed", ("error",), "1", "must be a JSON string"),
        ("failed", ("error_type",), "null", "must be a JSON string"),
        ("maximize", ("provenance", "bogus"), "1",
         "unknown provenance keys"),
        ("maximize", ("result", "bogus"), "1", "unknown result keys"),
        ("baseline", ("result", "artifacts", "problem", "din", "bogus"),
         "1", "unknown box keys"),
        ("threshold", ("certificate", "leaves", "bogus"), "1",
         "packed object"),
        ("continuous spec", ("strategies",), '["prop7"]',
         "strategies must be a JSON list of strings"),
        ("threshold spec", ("network", "layers", 0, "config", "bogus"), "1",
         "Dense config must have exactly the keys"),
        ("threshold spec", ("network", "layers", 0, "arrays", "gain"),
         "[1.0]", "Dense arrays must have exactly the keys"),
        ("leaky spec", ("network", "layers", 1, "config", "alpha"), '"0.1"',
         "LeakyReLU config alpha must be a JSON number"),
    ])
    def test_is_permanent_serialization_error(self, wires, doc, path, value,
                                              match):
        from repro.api import spec_from_json
        from repro.serve.resilience import classify_failure

        decode = spec_from_json if doc.endswith("spec") else verdict_from_json
        assert decode(wires[doc]) is not None
        with pytest.raises(SerializationError, match=match) as info:
            decode(_replaced(wires[doc], path, value))
        assert classify_failure(info.value) == ("SerializationError", False)

    @pytest.mark.parametrize("edit,match", [
        (lambda l: l.update(arrays={}), "arrays must have exactly"),
        (lambda l: l["arrays"].pop("weight"), "arrays must have exactly"),
        (lambda l: l["arrays"].pop("bias"), "arrays must have exactly"),
        # Weights moved into config would skip the array kind's checks.
        (lambda l: l["config"].update(weight=l["arrays"].pop("weight")),
         "config must have exactly"),
        (lambda l: l["config"].update(
            weight=[["1"] * 2] * 3, bias=l["arrays"].pop("bias")),
         "config must have exactly"),
        (lambda l: l["config"].update(rng=0), "config must have exactly"),
        (lambda l: l["config"].pop("in_dim"), "config must have exactly"),
    ], ids=["no-arrays", "no-weight", "no-bias", "weight-in-config",
            "string-weight-in-config", "rng-in-config", "no-in_dim"])
    def test_a_layer_holds_exactly_what_its_encoder_writes(self, wires, edit,
                                                           match):
        """A Dense without its weights would be built on random ones, and
        a config key the class does not write would reach the constructor
        unchecked; both are rejected."""
        from repro.api import spec_from_json

        data = json.loads(wires["threshold spec"])
        layer = data["network"]["layers"][0]
        assert layer["class"] == "Dense"
        edit(layer)
        with pytest.raises(SerializationError, match=f"Dense {match}"):
            spec_from_json(json.dumps(data))

    def test_every_layer_class_has_its_wire_parts(self):
        """The codec's per-class table names every concrete layer class,
        with the keys that class's ``config()``/``arrays()`` write."""
        import inspect

        from repro.api.serialize import _LAYER_PARTS
        from repro.nn.layers import AvgPool2D, Conv2D, Dense, LeakyReLU
        from repro.nn.serialize import _LAYER_CLASSES

        concrete = {name for name, cls in _LAYER_CLASSES.items()
                    if not inspect.isabstract(cls)}
        assert set(_LAYER_PARTS) == concrete
        samples = [Dense(2, 3, rng=np.random.default_rng(0)), LeakyReLU(0.1),
                   Conv2D(1, 2, 3, rng=np.random.default_rng(0)),
                   AvgPool2D(2)]
        samples += [_LAYER_CLASSES[name]() for name in concrete
                    - {type(s).__name__ for s in samples}]
        for layer in samples:
            kinds, arrays = _LAYER_PARTS[type(layer).__name__]
            assert layer.config().keys() == kinds.keys()
            assert layer.arrays().keys() == set(arrays)
