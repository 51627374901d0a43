"""The unified repro.api engine: Specs, VerifyConfig, engine.

Four contracts under test:

1. *Equivalence*: every Spec run through :class:`VerificationEngine`
   produces byte-identical verdicts/optima to the ``_``-prefixed solver it
   dispatches to under the same :class:`VerifyConfig`, on the fig2
   network and across the worker matrix {1, 2, 8}.
2. *JSON round-trip*: ``spec == spec_from_dict(spec_to_dict(spec))`` for
   every Spec type (and through ``json.dumps`` text).
3. *One source of defaults*: configs fold correctly through the
   verifiers, independently of any per-call keyword.
4. *Warning gate*: nothing inside ``src/`` raises a
   :class:`DeprecationWarning` on any engine, loop or CLI path.
"""

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    ContainmentSpec,
    ContinuousLoopSpec,
    MaximizeSpec,
    OutputRangeSpec,
    PropositionSpec,
    SPEC_TYPES,
    ThresholdSpec,
    VerificationEngine,
    VerifyConfig,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from repro.api.verdict import RangeVerdict
from repro.errors import ReproError, SerializationError
from repro.domains import Box
from repro.domains.propagate import inductive_states
from repro.nn import fine_tune, random_relu_network

WORKER_MATRIX = (1, 2, 8)


def _engine(workers: int = 1, **overrides) -> VerificationEngine:
    return VerificationEngine(VerifyConfig(workers=workers, **overrides))


@pytest.fixture(scope="module")
def setup():
    """A verified baseline with artifacts, plus a small fine-tuned version."""
    net = random_relu_network([4, 10, 8, 6, 1], seed=3, weight_scale=0.6)
    din = Box(np.zeros(4), 0.8 * np.ones(4))
    sn = inductive_states(net, din, 0.02)[-1]
    dout = sn.inflate(0.25 * sn.widths.max() + 0.1)
    from repro.core import VerificationProblem

    problem = VerificationProblem(net, din, dout)
    baseline = VerificationEngine().baseline(
        problem, with_network_abstraction=True, netabs_groups=3,
        netabs_margin=0.05)
    assert baseline.holds
    rng = np.random.default_rng(0)
    x = din.sample(200, rng)
    y = net.forward(x)
    tuned = fine_tune(net, x, y + rng.normal(0, 1e-3, size=y.shape),
                      learning_rate=5e-4, epochs=1)
    return baseline.artifacts, problem, tuned


def _assert_bab_equal(a, b):
    assert a.status == b.status
    assert a.upper_bound == b.upper_bound          # bitwise
    assert a.incumbent == b.incumbent
    assert a.nodes == b.nodes
    assert a.lp_solves == b.lp_solves
    if a.witness is None or b.witness is None:
        assert a.witness is None and b.witness is None
    else:
        assert np.array_equal(a.witness, b.witness)


def _assert_containment_equal(a, b):
    assert a.holds == b.holds
    assert a.method == b.method
    assert a.violation == b.violation
    assert a.lp_solves == b.lp_solves
    assert a.nodes == b.nodes
    if a.counterexample is None or b.counterexample is None:
        assert a.counterexample is None and b.counterexample is None
    else:
        assert np.array_equal(a.counterexample, b.counterexample)


def _assert_proposition_equal(a, b):
    assert a.proposition == b.proposition
    assert a.holds == b.holds
    assert a.detail == b.detail
    assert len(a.subproblems) == len(b.subproblems)
    for sa, sb in zip(a.subproblems, b.subproblems):
        assert (sa.name, sa.holds, sa.lp_solves) == (sb.name, sb.holds,
                                                     sb.lp_solves)


# ======================================================== engine equivalence
class TestEngineLegacyEquivalence:
    @pytest.mark.parametrize("workers", WORKER_MATRIX)
    def test_maximize(self, fig2, enlarged_box2, workers):
        from repro.exact.bab import _maximize_output

        c = np.array([1.0])
        verdict = _engine(workers).verify(MaximizeSpec(
            network=fig2, input_box=enlarged_box2, objective=c))
        legacy = _maximize_output(fig2, enlarged_box2, c,
                                  config=VerifyConfig(workers=workers))
        _assert_bab_equal(verdict.result, legacy)
        assert verdict.optimum == legacy.optimum

    @pytest.mark.parametrize("workers", WORKER_MATRIX)
    def test_minimize(self, fig2, enlarged_box2, workers):
        from repro.exact.bab import _minimize_output

        c = np.array([1.0])
        verdict = _engine(workers).verify(MaximizeSpec(
            network=fig2, input_box=enlarged_box2, objective=c,
            minimize=True))
        legacy = _minimize_output(fig2, enlarged_box2, c,
                                  config=VerifyConfig(workers=workers))
        _assert_bab_equal(verdict.result, legacy)

    @pytest.mark.parametrize("workers", WORKER_MATRIX)
    def test_maximize_threshold_modes(self, fig2, enlarged_box2, workers):
        from repro.exact.bab import _maximize_output

        c = np.array([1.0])
        for threshold, expect_holds in ((12.0, True), (5.0, False)):
            verdict = _engine(workers).verify(MaximizeSpec(
                network=fig2, input_box=enlarged_box2, objective=c,
                threshold=threshold))
            legacy = _maximize_output(fig2, enlarged_box2, c,
                                      threshold=threshold,
                                      config=VerifyConfig(workers=workers))
            _assert_bab_equal(verdict.result, legacy)
            assert verdict.holds is expect_holds
        # A threshold solve that happens to terminate 'optimal' still
        # settles the question (optimum 6.2 <= 6.3).
        at_optimal = _engine(workers).verify(MaximizeSpec(
            network=fig2, input_box=enlarged_box2, objective=c,
            threshold=6.3))
        assert at_optimal.holds is not None

    @pytest.mark.parametrize("workers", WORKER_MATRIX)
    def test_containment(self, fig2, enlarged_box2, workers):
        from repro.exact.verify import _check_containment

        for target in (Box(np.array([-1.0]), np.array([7.0])),
                       Box(np.array([-1.0]), np.array([5.0]))):
            verdict = _engine(workers).verify(ContainmentSpec(
                network=fig2, input_box=enlarged_box2, target=target,
                method="exact"))
            legacy = _check_containment(fig2, enlarged_box2, target,
                                        config=VerifyConfig(workers=workers))
            _assert_containment_equal(verdict.result, legacy)

    @pytest.mark.parametrize("workers", WORKER_MATRIX)
    def test_output_range(self, fig2, enlarged_box2, workers):
        from repro.exact.verify import _output_range_exact

        verdict = _engine(workers).verify(OutputRangeSpec(
            network=fig2, input_box=enlarged_box2))
        legacy, lp_solves, nodes = _output_range_exact(
            fig2, enlarged_box2, config=VerifyConfig(workers=workers))
        assert verdict.provenance.lp_solves == lp_solves
        assert verdict.provenance.nodes == nodes
        assert np.array_equal(verdict.output_range.lower, legacy.lower)
        assert np.array_equal(verdict.output_range.upper, legacy.upper)

    @pytest.mark.parametrize("workers", WORKER_MATRIX)
    def test_threshold_certificate(self, fig2, enlarged_box2, workers):
        from repro.certs.reuse import _certify_threshold

        c = np.array([1.0])
        verdict = _engine(workers).verify(ThresholdSpec(
            network=fig2, input_box=enlarged_box2, objective=c,
            threshold=12.0))
        legacy_res, legacy_cert = _certify_threshold(
            fig2, enlarged_box2, c, 12.0,
            config=VerifyConfig(workers=workers))
        _assert_bab_equal(verdict.result, legacy_res)
        assert verdict.holds is True and verdict.certified
        assert verdict.certificate.num_leaves == legacy_cert.num_leaves
        assert verdict.certificate.block_dims == legacy_cert.block_dims
        assert np.array_equal(verdict.certificate.leaves, legacy_cert.leaves)

    @pytest.mark.parametrize("workers", WORKER_MATRIX)
    @pytest.mark.parametrize("kind", [1, 2, 3, 4, 5, 6])
    def test_propositions(self, setup, kind, workers):
        from repro.core import propositions as props

        artifacts, problem, tuned = setup
        enlarged = problem.din.inflate(0.01)
        config = VerifyConfig(workers=workers)
        engine = VerificationEngine(config)
        n = tuned.num_blocks
        if kind == 1:
            verdict = engine.verify(PropositionSpec(
                kind=1, artifacts=artifacts, enlarged_din=enlarged))
            legacy = props._check_prop1(artifacts, enlarged, config=config)
        elif kind == 2:
            verdict = engine.verify(PropositionSpec(
                kind=2, artifacts=artifacts, enlarged_din=enlarged))
            legacy = props._check_prop2(artifacts, enlarged, config=config)
        elif kind == 3:
            verdict = engine.verify(PropositionSpec(
                kind=3, artifacts=artifacts, enlarged_din=enlarged))
            legacy = props.check_prop3(artifacts, enlarged)
        elif kind == 4:
            verdict = engine.verify(PropositionSpec(
                kind=4, artifacts=artifacts, new_network=tuned))
            legacy = props._check_prop4(artifacts, tuned, config=config)
        elif kind == 5:
            verdict = engine.verify(PropositionSpec(
                kind=5, artifacts=artifacts, new_network=tuned,
                alphas=tuple(range(1, n))))
            legacy = props._check_prop5(artifacts, tuned,
                                        alphas=list(range(1, n)),
                                        config=config)
        else:
            verdict = engine.verify(PropositionSpec(
                kind=6, artifacts=artifacts, new_network=tuned))
            legacy = props.check_prop6(artifacts, tuned)
        _assert_proposition_equal(verdict.result, legacy)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_continuous_loop_svudc(self, setup, workers):
        from repro.core import ContinuousVerifier, SVuDC

        artifacts, problem, _ = setup
        enlarged = problem.din.inflate(0.01)
        verdict = _engine(workers).verify(ContinuousLoopSpec(
            artifacts=artifacts, enlarged_din=enlarged))
        legacy = ContinuousVerifier(
            artifacts, config=VerifyConfig(workers=workers)) \
            .verify_domain_change(SVuDC(problem, enlarged))
        assert verdict.holds == legacy.holds
        assert verdict.strategy == legacy.strategy
        assert len(verdict.result.attempts) == len(legacy.attempts)

    def test_continuous_loop_svbtv(self, setup):
        from repro.core import ContinuousVerifier, SVbTV

        artifacts, problem, tuned = setup
        verdict = _engine().verify(ContinuousLoopSpec(
            artifacts=artifacts, new_network=tuned))
        legacy = ContinuousVerifier(artifacts).verify_new_version(
            SVbTV(problem, tuned))
        assert verdict.holds == legacy.holds
        assert verdict.strategy == legacy.strategy

    def test_baseline_matches_verify_from_scratch(self, setup):
        from repro.core.verifier import _verify_from_scratch

        _, problem, _ = setup
        engine_outcome = VerificationEngine().baseline(problem)
        legacy = _verify_from_scratch(problem, config=VerifyConfig())
        assert engine_outcome.holds == legacy.holds
        # rigor="range" runs per-output BaB: the effort must be accounted
        assert engine_outcome.provenance.lp_solves > 0
        assert engine_outcome.provenance.lp_solves == legacy.lp_solves
        assert engine_outcome.result.detail == legacy.detail
        a, b = engine_outcome.artifacts, legacy.artifacts
        assert a.states_prove_safety == b.states_prove_safety
        assert a.lipschitz.ell == b.lipschitz.ell
        for box_a, box_b in zip(a.states.boxes, b.states.boxes):
            assert np.array_equal(box_a.lower, box_b.lower)
            assert np.array_equal(box_a.upper, box_b.upper)
        assert np.array_equal(a.output_range.lower, b.output_range.lower)
        assert np.array_equal(a.output_range.upper, b.output_range.upper)

    def test_provenance_populated(self, fig2, enlarged_box2):
        verdict = _engine(workers=2).verify(MaximizeSpec(
            network=fig2, input_box=enlarged_box2, objective=np.array([1.0])))
        prov = verdict.provenance
        assert prov.elapsed > 0
        assert prov.lp_solves == verdict.result.lp_solves
        assert prov.workers == 2
        assert set(prov.encoding_reuse) == {"hits", "misses"}


# ================================================================== submit
class TestSubmit:
    def _bag(self, fig2, enlarged_box2):
        return [
            MaximizeSpec(network=fig2, input_box=enlarged_box2,
                         objective=np.array([1.0])),
            ContainmentSpec(network=fig2, input_box=enlarged_box2,
                            target=Box(np.array([-1.0]), np.array([7.0])),
                            method="exact"),
            OutputRangeSpec(network=fig2, input_box=enlarged_box2),
            ThresholdSpec(network=fig2, input_box=enlarged_box2,
                          objective=np.array([1.0]), threshold=12.0),
        ]

    @pytest.mark.parametrize("workers", (1, 4))
    def test_submit_matches_sequential_verify(self, fig2, enlarged_box2,
                                              workers):
        engine = _engine(workers)
        bag = self._bag(fig2, enlarged_box2)
        batched = engine.submit(bag)
        assert len(batched) == len(bag)
        for spec, verdict in zip(bag, batched):
            solo = _engine(workers).verify(spec)
            assert verdict.spec_type == solo.spec_type
            assert verdict.holds == solo.holds
            if isinstance(verdict, RangeVerdict):
                assert np.array_equal(verdict.output_range.lower,
                                      solo.output_range.lower)
            else:
                assert verdict.result.lp_solves == solo.result.lp_solves

    def test_submit_preserves_order(self, fig2, enlarged_box2):
        bag = self._bag(fig2, enlarged_box2) * 3
        verdicts = _engine(4).submit(bag)
        assert [v.spec_type for v in verdicts] == [s.spec_type for s in bag]

    @pytest.mark.parametrize("workers", (1, 2, 8))
    def test_mixed_good_bad_batch_yields_failed_verdicts(self, fig2,
                                                         enlarged_box2,
                                                         workers):
        """Satellite: per-spec errors become FailedVerdict entries in
        their slots instead of losing the rest of the batch."""
        from repro.api import FailedVerdict

        bad = ContainmentSpec(network=fig2,
                              input_box=Box(-np.ones(5), np.ones(5)),
                              target=Box(-np.ones(1), np.ones(1)))
        bag = self._bag(fig2, enlarged_box2)
        mixed = [bag[0], bad, bag[1], bad, bag[2]]
        verdicts = _engine(workers).submit(mixed)
        assert len(verdicts) == len(mixed)
        for i in (1, 3):
            assert isinstance(verdicts[i], FailedVerdict)
            assert verdicts[i].holds is None
            assert verdicts[i].error_type == "ShapeError"
            assert verdicts[i].spec_type == "containment"
        for i in (0, 2, 4):
            assert not isinstance(verdicts[i], FailedVerdict)
            solo = _engine(workers).verify(mixed[i])
            assert verdicts[i].holds == solo.holds

    @pytest.mark.parametrize("workers", (1, 2, 8))
    def test_expired_timeout_fails_whole_batch(self, fig2, enlarged_box2,
                                               workers):
        from repro.api import FailedVerdict

        bag = self._bag(fig2, enlarged_box2)
        verdicts = _engine(workers).submit(bag, timeout=-1.0)
        assert len(verdicts) == len(bag)
        for spec, verdict in zip(bag, verdicts):
            assert isinstance(verdict, FailedVerdict)
            assert verdict.error_type == "TimeoutError"
            assert verdict.spec_type == spec.spec_type

    @pytest.mark.parametrize("workers", (1, 2, 8))
    def test_generous_timeout_changes_nothing(self, fig2, enlarged_box2,
                                              workers):
        from repro.api import FailedVerdict

        bag = self._bag(fig2, enlarged_box2)
        verdicts = _engine(workers).submit(bag, timeout=600.0)
        assert [v.spec_type for v in verdicts] == [s.spec_type for s in bag]
        assert not any(isinstance(v, FailedVerdict) for v in verdicts)


# ========================================================== JSON round-trip
class TestSpecRoundTrip:
    def _specs(self, setup, fig2, enlarged_box2):
        artifacts, problem, tuned = setup
        enlarged = problem.din.inflate(0.01)
        return [
            ContainmentSpec(network=fig2, input_box=enlarged_box2,
                            target=Box(np.array([-1.0]), np.array([7.0])),
                            method="exact"),
            OutputRangeSpec(network=fig2, input_box=enlarged_box2),
            ThresholdSpec(network=fig2, input_box=enlarged_box2,
                          objective=np.array([1.0]), threshold=12.0),
            MaximizeSpec(network=fig2, input_box=enlarged_box2,
                         objective=np.array([1.0]), minimize=True),
            PropositionSpec(kind=5, artifacts=artifacts, new_network=tuned,
                            alphas=(1, 2), enlarged_din=enlarged),
            ContinuousLoopSpec(artifacts=artifacts, new_network=tuned,
                               enlarged_din=enlarged,
                               strategies=("prop4", "prop5"),
                               prop5_alphas=(2,)),
        ]

    def test_every_spec_type_round_trips(self, setup, fig2, enlarged_box2):
        specs = self._specs(setup, fig2, enlarged_box2)
        assert {type(s) for s in specs} == set(SPEC_TYPES.values())
        for spec in specs:
            again = spec_from_dict(spec_to_dict(spec))
            assert again == spec, type(spec).__name__
            # and through actual JSON text (the wire format)
            text = spec_to_json(spec)
            assert spec_from_json(text) == spec
            # the round-tripped spec is a genuinely equal *value*, byte-wise
            assert json.dumps(spec_to_dict(again), sort_keys=True) == \
                json.dumps(spec_to_dict(spec), sort_keys=True)

    def test_round_tripped_spec_verifies_identically(self, fig2,
                                                     enlarged_box2):
        spec = MaximizeSpec(network=fig2, input_box=enlarged_box2,
                            objective=np.array([1.0]))
        again = spec_from_json(spec_to_json(spec))
        a = _engine().verify(spec).result
        b = _engine().verify(again).result
        _assert_bab_equal(a, b)

    def test_nonfinite_bounds_survive_strict_json(self, fig2, enlarged_box2):
        # Unbounded target sides are legitimate; the wire form must stay
        # strict RFC-8259 (no Infinity/NaN tokens) so non-Python executors
        # can parse it.
        target = Box(np.array([-np.inf]), np.array([np.inf]))
        spec = ContainmentSpec(network=fig2, input_box=enlarged_box2,
                               target=target)
        text = spec_to_json(spec)

        def reject(token):  # json.loads calls this only for non-RFC tokens
            raise AssertionError(f"non-RFC token {token!r} in wire form")

        again = spec_from_dict(json.loads(text, parse_constant=reject))
        assert again == spec
        assert np.array_equal(again.target.lower, target.lower)
        assert np.array_equal(again.target.upper, target.upper)

    def test_inequality_on_value_change(self, fig2, enlarged_box2):
        spec = OutputRangeSpec(network=fig2, input_box=enlarged_box2)
        other = OutputRangeSpec(network=fig2,
                                input_box=enlarged_box2.inflate(1e-9))
        assert spec != other
        assert hash(spec) != hash(other)

    def test_unknown_type_rejected(self):
        with pytest.raises(SerializationError):
            spec_from_dict({"type": "frobnicate"})
        with pytest.raises(SerializationError):
            spec_from_dict({"no": "tag"})

    def test_unknown_payload_keys_rejected(self, fig2, enlarged_box2):
        # A typoed knob must fail loudly, not silently change the verdict
        # (e.g. "thresold" turning a threshold proof into a plain max).
        doc = spec_to_dict(MaximizeSpec(network=fig2, input_box=enlarged_box2,
                                        objective=np.array([1.0])))
        doc["thresold"] = 5.0
        with pytest.raises(SerializationError, match="thresold"):
            spec_from_dict(doc)

    def test_missing_required_key_rejected_cleanly(self):
        with pytest.raises(SerializationError, match="network"):
            spec_from_dict({"type": "containment"})

    def test_proposition_spec_validation(self, setup):
        artifacts, problem, tuned = setup
        with pytest.raises(SerializationError):
            PropositionSpec(kind=7, artifacts=artifacts)
        with pytest.raises(SerializationError):
            PropositionSpec(kind=1, artifacts=artifacts)  # no enlarged_din
        with pytest.raises(SerializationError):
            PropositionSpec(kind=4, artifacts=artifacts)  # no new_network
        with pytest.raises(SerializationError):
            PropositionSpec(kind=5, artifacts=artifacts, new_network=tuned)
        with pytest.raises(SerializationError):
            # prop6 covers the original domain only: an enlargement must
            # not be silently dropped (use ContinuousLoopSpec instead).
            PropositionSpec(kind=6, artifacts=artifacts, new_network=tuned,
                            enlarged_din=problem.din.inflate(0.01))
        with pytest.raises(SerializationError):
            ContinuousLoopSpec(artifacts=artifacts)


# ===================================================== one source of defaults
class TestDefaultsUnified:
    """No entry point overrides tol/node_limit/workers independently.

    The signature-level half of this gate is now *static*: the
    ``no-restated-defaults`` rule of ``repro lint`` flags any knob-named
    parameter or dataclass field restating a canonical default literal
    (enforced tree-wide by ``tests/test_analysis.py`` and the CI lint
    job).  What remains here is the runtime behaviour the linter cannot
    see: that configs actually *fold* correctly through the verifiers.
    """

    def test_continuous_verifier_resolves_from_config(self, setup):
        from repro.core.continuous import ContinuousVerifier

        artifacts, _, _ = setup
        assert ContinuousVerifier(artifacts).config == VerifyConfig()
        # the config is the one channel: no per-knob attribute shadows it
        tuned = VerifyConfig(workers=3, node_limit=99)
        verifier = ContinuousVerifier(artifacts, config=tuned)
        assert verifier.config is tuned
        for knob in ("method", "domain", "node_limit", "workers"):
            assert not hasattr(verifier, knob)
        with pytest.raises(TypeError):
            ContinuousVerifier(artifacts, workers=3)

    def test_engineering_loop_honours_supplied_config(self, setup):
        from repro.core import EngineeringLoop

        _, problem, _ = setup
        custom = VerifyConfig(method="exact", node_limit=500, workers=2)
        loop = EngineeringLoop(problem, config=custom)
        assert loop._config() == custom  # field defaults must not clobber
        # the config is the one channel: no per-knob field shadows it
        for knob in ("method", "node_limit"):
            assert not hasattr(loop, knob)
        with pytest.raises(TypeError):
            EngineeringLoop(problem, node_limit=50)
        # and with no config at all, the historical full budget applies
        assert EngineeringLoop(problem)._config().node_limit == \
            VerifyConfig().full_node_limit
        # a config tweaking only *other* knobs keeps the full budget too
        assert EngineeringLoop(
            problem, config=VerifyConfig(workers=2))._config().node_limit == \
            VerifyConfig().full_node_limit

    def test_config_validation_and_round_trip(self):
        config = VerifyConfig(workers=4, domain="box",
                              max_boxes=16, encoding_cache="private")
        assert VerifyConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ReproError):
            VerifyConfig(workers=0)
        with pytest.raises(ReproError):
            VerifyConfig(tol=0.0)
        with pytest.raises(ReproError):
            VerifyConfig(method="frobnicate")
        with pytest.raises(ReproError):
            VerifyConfig(domain="nonsense")
        # The lp_form knob is gone: old documents fail loudly, not silently.
        with pytest.raises(ReproError, match="lp_form"):
            VerifyConfig.from_dict({"lp_form": "sparse"})
        from repro.api.serialize import config_from_json
        with pytest.raises(ReproError, match="lp_form"):
            config_from_json(json.dumps({**config.to_dict(), "lp_form": "auto"}))
        # ... and so does frontier_width (the round width is a constant).
        with pytest.raises(ReproError, match="unknown VerifyConfig keys"):
            config_from_json(
                json.dumps({**config.to_dict(), "frontier_width": 8}))
        with pytest.raises(ReproError):
            VerifyConfig(encoding_cache="maybe")
        with pytest.raises(ReproError):
            VerifyConfig.from_dict({"frobnicate": 1})

    def test_config_domains_mirror_propagator_registry(self):
        from repro.api.config import DOMAINS
        from repro.domains.propagate import PROPAGATORS

        assert set(DOMAINS) == set(PROPAGATORS)

    def test_private_encoding_cache_bypasses_shared_cache(self, fig2,
                                                          enlarged_box2):
        from repro.exact import encoding_cache_stats

        spec = OutputRangeSpec(network=fig2, input_box=enlarged_box2)
        _engine().verify(spec)  # ensure the shared entry exists
        before = encoding_cache_stats()
        verdict = _engine(encoding_cache="private").verify(spec)
        after = encoding_cache_stats()
        assert after == before  # neither hit nor miss: cache untouched
        assert verdict.provenance.encoding_reuse == {"hits": 0, "misses": 0}


# ============================================================== warning gate
class TestDeprecationShims:
    def test_src_internal_paths_trigger_no_legacy_warning(self, fig2,
                                                          enlarged_box2,
                                                          setup):
        """The CI gate: internal callers must be fully migrated.

        Everything below exercises src/ end to end -- the engine over every
        Spec type, the continuous loop with fixing and fallback, the
        engineering loop, and the CLI worked examples -- with every
        ``DeprecationWarning`` escalated to an error.
        """
        from repro.cli import main as cli_main
        from repro.core import (ContinuousVerifier, EngineeringLoop, SVbTV,
                                SVuDC)

        artifacts, problem, tuned = setup
        enlarged = problem.din.inflate(0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = _engine(workers=2)
            engine.verify(MaximizeSpec(network=fig2, input_box=enlarged_box2,
                                       objective=np.array([1.0])))
            engine.verify(ContainmentSpec(
                network=fig2, input_box=enlarged_box2,
                target=Box(np.array([-1.0]), np.array([7.0]))))
            engine.verify(OutputRangeSpec(network=fig2,
                                          input_box=enlarged_box2))
            engine.verify(ThresholdSpec(network=fig2, input_box=enlarged_box2,
                                        objective=np.array([1.0]),
                                        threshold=12.0))
            for kind in (1, 2, 3):
                engine.verify(PropositionSpec(kind=kind, artifacts=artifacts,
                                              enlarged_din=enlarged))
            for kind in (4, 6):
                engine.verify(PropositionSpec(kind=kind, artifacts=artifacts,
                                              new_network=tuned))
            engine.verify(ContinuousLoopSpec(artifacts=artifacts,
                                             enlarged_din=enlarged))
            engine.verify(ContinuousLoopSpec(artifacts=artifacts,
                                             new_network=tuned))
            baseline = engine.baseline(problem, rigor="abstract")
            verifier = ContinuousVerifier(artifacts)
            verifier.verify_domain_change(SVuDC(problem, enlarged))
            verifier.verify_new_version(SVbTV(problem, tuned))
            loop = EngineeringLoop(problem, rigor="abstract")
            loop.initial_verification()
            loop.on_domain_enlarged(problem.din.inflate(0.005))
            assert cli_main(["fig2"]) == 0
            assert cli_main(["prop3"]) == 0
            assert baseline.holds is not False


# ================================================================== CLI
class TestVerifySpecCLI:
    def test_verify_spec_roundtrip_through_file(self, tmp_path, fig2,
                                                enlarged_box2, capsys):
        from repro.cli import main as cli_main

        spec = ContainmentSpec(network=fig2, input_box=enlarged_box2,
                               target=Box(np.array([-1.0]), np.array([7.0])),
                               method="exact")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"spec": spec_to_dict(spec),
                                    "config": {"workers": 2}}))
        assert cli_main(["verify-spec", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["holds"] is True
        assert record["spec_type"] == "containment"
        assert record["workers"] == 2

    def test_verify_spec_flag_overrides_file_config(self, tmp_path, fig2,
                                                    enlarged_box2, capsys):
        from repro.cli import main as cli_main

        spec = OutputRangeSpec(network=fig2, input_box=enlarged_box2)
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(spec))
        assert cli_main(["verify-spec", str(path), "--json",
                         "--workers", "2"]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["workers"] == 2
        assert record["output_range"]["upper"][0] == pytest.approx(6.2)

    def test_verify_spec_null_config_is_clean(self, tmp_path, fig2,
                                              enlarged_box2, capsys):
        from repro.cli import main as cli_main

        spec = OutputRangeSpec(network=fig2, input_box=enlarged_box2)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"spec": spec_to_dict(spec),
                                    "config": None}))
        assert cli_main(["verify-spec", str(path), "--json"]) == 0

    def test_verify_spec_pure_optimisation_is_a_success(self, tmp_path, fig2,
                                                        enlarged_box2,
                                                        capsys):
        from repro.cli import main as cli_main

        spec = MaximizeSpec(network=fig2, input_box=enlarged_box2,
                            objective=np.array([1.0]))
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(spec))
        # holds is None (a value query), but computing the optimum is the
        # success: exit code 0 and the value in the record.
        assert cli_main(["verify-spec", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["status"] == "optimal"
        assert record["optimum"] == pytest.approx(6.2)

    def test_verify_spec_reads_by_the_strict_wire_reader(self, tmp_path,
                                                         fig2, enlarged_box2):
        # The executor protocol's reader is the codec's: a NaN token is a
        # malformed document, not a NaN threshold.
        from repro.cli import main as cli_main

        spec = ThresholdSpec(network=fig2, input_box=enlarged_box2,
                             objective=np.array([1.0]), threshold=6.5)
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(spec).replace('"threshold": 6.5',
                                                   '"threshold": NaN'))
        with pytest.raises(SerializationError,
                           match="non-standard JSON token"):
            cli_main(["verify-spec", str(path)])

    def test_verify_spec_failing_spec_exits_nonzero(self, tmp_path, fig2,
                                                    enlarged_box2):
        from repro.cli import main as cli_main

        spec = ContainmentSpec(network=fig2, input_box=enlarged_box2,
                               target=Box(np.array([-1.0]), np.array([5.0])),
                               method="exact")
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(spec))
        assert cli_main(["verify-spec", str(path)]) == 1
