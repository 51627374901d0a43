"""Delta-verification certificates (PR 9): wire round-trips, validation,
warm-started byte-identical verdicts, soundness under corruption, and the
reuse counters flowing through the continuous loop.

The invariant every test here circles: a certificate is a *hint*.  It may
make re-verification cheaper (and the perturbation tests assert it does);
corrupted, stale, or adversarial payloads may make it slower -- but the
decision must be byte-identical to a from-scratch solve in every case.
"""

import json

import numpy as np
import pytest

from repro.api import (
    ContinuousLoopSpec,
    MaximizeSpec,
    ThresholdSpec,
    VerificationEngine,
    VerifyConfig,
    certificate_from_json,
    certificate_to_json,
    verdict_decision_json,
)
from repro.certs import (
    certificate_key,
    load_certificate,
    structural_fingerprint,
    validate_certificate,
)
from repro.domains import Box
from repro.errors import CertificateError
from repro.exact import NetworkEncoding
from repro.nn.builders import random_relu_network


class MemCerts:
    """Minimal in-memory certificate provider (wire strings only)."""

    def __init__(self):
        self.entries = {}
        self.gets = 0

    def cert_get(self, cert_key):
        self.gets += 1
        return self.entries.get(cert_key)

    def cert_put(self, cert_key, cert_json):
        self.entries[cert_key] = cert_json


@pytest.fixture(scope="module")
def threshold_problem():
    """A provable threshold instance with a non-trivial BaB search."""
    net = random_relu_network([3, 10, 6, 1], seed=3)
    box = Box(-np.ones(3), np.ones(3))
    c = np.ones(1)
    opt = VerificationEngine(VerifyConfig()).verify(
        MaximizeSpec(network=net, input_box=box,
                     objective=c)).result.upper_bound
    threshold = opt + 0.1 * abs(opt) + 0.05
    return net, box, c, threshold


def _spec(net, box, c, threshold):
    return ThresholdSpec(network=net, input_box=box, objective=c,
                         threshold=threshold)


def _record(threshold_problem, store, workers=1):
    """Prove once under ``certs='record'``; returns the recorded wire."""
    net, box, c, thr = threshold_problem
    cfg = VerifyConfig(certs="record", workers=workers)
    verdict = VerificationEngine(cfg, certs=store).verify(
        _spec(net, box, c, thr))
    assert verdict.holds is True
    assert len(store.entries) == 1
    return next(iter(store.entries.values()))


class TestWire:
    def test_round_trip_preserves_payload(self, threshold_problem):
        store = MemCerts()
        cert_json = _record(threshold_problem, store)
        cert = certificate_from_json(cert_json)
        again = certificate_from_json(certificate_to_json(cert))
        assert again.structural_fp == cert.structural_fp
        assert again.content_fp == cert.content_fp
        assert again.leaves == cert.leaves
        assert again.leaf_bounds == cert.leaf_bounds
        assert again.leaf_verdicts == cert.leaf_verdicts
        assert again.lp_solves == cert.lp_solves
        assert len(again.leaf_duals) == len(cert.leaf_duals)
        for a, b in zip(again.leaf_duals, cert.leaf_duals):
            if a is None or b is None:
                assert a is b
            else:
                for xa, xb in zip(a, b):
                    np.testing.assert_array_equal(xa, xb)

    def test_duals_survive_the_store(self, threshold_problem):
        store = MemCerts()
        cert = load_certificate(_record(threshold_problem, store))
        assert cert.leaf_duals and any(d is not None
                                       for d in cert.leaf_duals)


class TestValidation:
    def test_garbage_payload_is_certificate_error(self):
        with pytest.raises(CertificateError, match="unreadable"):
            load_certificate("{not json")
        with pytest.raises(CertificateError, match="unreadable"):
            load_certificate(json.dumps({"version": 1}))

    def test_structural_fingerprint_ignores_weights(self, threshold_problem):
        net = threshold_problem[0]
        perturbed = net.perturb(0.01, rng=np.random.default_rng(0))
        assert structural_fingerprint(net) == \
            structural_fingerprint(perturbed)
        other = random_relu_network([3, 9, 6, 1], seed=3)
        assert structural_fingerprint(net) != structural_fingerprint(other)

    def test_weight_change_keeps_key_other_changes_miss(
            self, threshold_problem):
        net, box, c, thr = threshold_problem
        cfg = VerifyConfig()
        key = certificate_key(net, box, c, thr, cfg)
        perturbed = net.perturb(0.01, rng=np.random.default_rng(1))
        assert certificate_key(perturbed, box, c, thr, cfg) == key
        assert certificate_key(net, box, c, thr + 1.0, cfg) != key
        assert certificate_key(net, box, c, thr,
                               cfg.replace(tol=1e-7)) != key
        # The record/reuse policy knob must not move the slot.
        assert certificate_key(net, box, c, thr,
                               cfg.replace(certs="reuse")) == key

    def test_stale_architecture_is_rejected(self, threshold_problem):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        cert = load_certificate(_record(threshold_problem, store))
        other = random_relu_network([3, 9, 6, 1], seed=5)
        with pytest.raises(CertificateError, match="fingerprint"):
            validate_certificate(cert, other, c, thr, VerifyConfig())
        with pytest.raises(CertificateError, match="config"):
            validate_certificate(cert, net, c, thr,
                                 VerifyConfig(tol=1e-7))
        with pytest.raises(CertificateError, match="threshold"):
            validate_certificate(cert, net, c, thr + 1.0, VerifyConfig())

    def test_dual_count_mismatch_is_rejected(self, threshold_problem):
        net, _box, c, thr = threshold_problem
        store = MemCerts()
        cert = load_certificate(_record(threshold_problem, store))
        cert.leaf_duals.append(None)
        with pytest.raises(CertificateError, match="dual"):
            validate_certificate(cert, net, c, thr, VerifyConfig())


class TestWarmStart:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_verdict_byte_identical_to_scratch(self, threshold_problem,
                                               workers):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        rng = np.random.default_rng(7)
        current = net
        recorder = VerificationEngine(
            VerifyConfig(certs="reuse", workers=workers), certs=store)
        for _ in range(3):
            current = current.perturb(0.002, rng=rng)
            spec = _spec(current, box, c, thr)
            warm = recorder.verify(spec)
            cold = VerificationEngine(
                VerifyConfig(workers=workers)).verify(spec)
            assert verdict_decision_json(warm) == \
                verdict_decision_json(cold)

    def test_reuse_saves_lp_solves(self, threshold_problem):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=store)
        first = engine.verify(_spec(net, box, c, thr))
        assert first.provenance.cert_hit is False
        perturbed = net.perturb(0.002, rng=np.random.default_rng(7))
        warm = engine.verify(_spec(perturbed, box, c, thr))
        assert warm.provenance.cert_hit is True
        assert warm.provenance.nodes_reused > 0
        assert warm.provenance.lp_solves_saved > 0
        assert warm.result.lp_solves < first.result.lp_solves

    def test_policy_off_never_touches_the_store(self, threshold_problem):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        VerificationEngine(VerifyConfig(certs="off"),
                           certs=store).verify(_spec(net, box, c, thr))
        assert store.gets == 0 and store.entries == {}


class TestSoundness:
    def test_corrupted_payload_falls_back_to_scratch(self,
                                                     threshold_problem):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        key = certificate_key(net, box, c, thr,
                              VerifyConfig(certs="reuse"))
        store.entries[key] = "{corrupt"
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=store)
        verdict = engine.verify(_spec(net, box, c, thr))
        cold = VerificationEngine(VerifyConfig()).verify(
            _spec(net, box, c, thr))
        assert verdict.provenance.cert_hit is False
        assert verdict_decision_json(verdict) == verdict_decision_json(cold)
        # The failed reuse re-recorded a *valid* certificate in its place.
        load_certificate(store.entries[key])

    def test_adversarial_duals_cannot_flip_the_verdict(
            self, threshold_problem):
        """Stored multipliers feed a weak-duality bound: ANY values are
        sound, so sabotaging them may cost LPs but never the decision."""
        net, box, c, thr = threshold_problem
        store = MemCerts()
        cert_json = _record(threshold_problem, store)
        key = next(iter(store.entries))
        cert = load_certificate(cert_json)
        rng = np.random.default_rng(0)
        cert.leaf_duals[:] = [
            None if d is None else tuple(
                rng.normal(scale=1e6, size=part.shape) for part in d)
            for d in cert.leaf_duals]
        store.entries[key] = certificate_to_json(cert)
        perturbed = net.perturb(0.002, rng=np.random.default_rng(7))
        warm = VerificationEngine(VerifyConfig(certs="reuse"),
                                  certs=store).verify(
            _spec(perturbed, box, c, thr))
        cold = VerificationEngine(VerifyConfig()).verify(
            _spec(perturbed, box, c, thr))
        assert verdict_decision_json(warm) == verdict_decision_json(cold)

    def test_shrunken_leaf_cover_is_rejected(self, threshold_problem):
        """A certificate whose leaves no longer cover the input region
        must be rejected at validation, not silently half-searched."""
        net, box, c, thr = threshold_problem
        store = MemCerts()
        key_json = _record(threshold_problem, store)
        key = next(iter(store.entries))
        cert = load_certificate(key_json)
        if len(cert.leaves) < 2:
            pytest.skip("frontier collapsed to one leaf")
        del cert.leaves[0]
        del cert.leaf_bounds[0]
        del cert.leaf_verdicts[0]
        del cert.leaf_duals[0]
        store.entries[key] = certificate_to_json(cert)
        warm = VerificationEngine(VerifyConfig(certs="reuse"),
                                  certs=store).verify(
            _spec(net, box, c, thr))
        cold = VerificationEngine(VerifyConfig()).verify(
            _spec(net, box, c, thr))
        assert warm.provenance.cert_hit is False
        assert verdict_decision_json(warm) == verdict_decision_json(cold)


class TestFixedLayoutDuals:
    """Node-LP duals follow the fixed node layout (base rows plus two
    phase rows per unstable neuron)."""

    def test_lagrangian_of_own_duals_reproduces_lp_value(
            self, threshold_problem):
        from repro.certs.reuse import (_finite_var_bounds, _lagrangian_upper,
                                       _screen_batch)
        from repro.exact import BaBSolver

        net, box, c, _thr = threshold_problem
        solver = BaBSolver(net, box, node_tighten=True)
        enc = solver.encoding
        neg_obj = -enc.output_objective(c)
        unstable = enc.unstable_neurons()
        rng = np.random.default_rng(3)
        leaves = [{}] + [{unstable[int(j)]: int(rng.choice((-1, 1)))
                          for j in rng.choice(len(unstable), size=2,
                                              replace=False)}
                         for _ in range(6)]
        _upper, feasible, tights = _screen_batch(solver, leaves, c)
        checked = 0
        for j, leaf in enumerate(leaves):
            if not feasible[j]:
                continue
            res = enc.solve_node(neg_obj, leaf, tights[j], want_duals=True)
            if not res.optimal:
                continue
            system = enc.build_lp(leaf, tight_pre=tights[j])
            assert res.dual_ub.size == system.b_ub.size == \
                enc.build_lp().b_ub.size
            lo, hi = _finite_var_bounds(solver, tights[j], system)
            bound = _lagrangian_upper(system, neg_obj, lo, hi,
                                      (res.dual_ub, res.dual_eq))
            assert np.isfinite(bound)
            assert bound == pytest.approx(-res.value, rel=1e-7, abs=1e-7)
            checked += 1
        assert checked >= 2

    def test_version_1_certificate_falls_back_to_cold(self,
                                                      threshold_problem):
        """A v1 certificate (old row layout) is rejected at validation:
        the solve runs cold and reaches the same decision."""
        net, box, c, thr = threshold_problem
        store = MemCerts()
        cert = load_certificate(_record(threshold_problem, store))
        key = next(iter(store.entries))
        cert.version = 1
        # The old layout had no phase rows: shorter dual vectors.
        phase_rows = 2 * len(NetworkEncoding(net, box).unstable_neurons())
        cert.leaf_duals[:] = [
            None if d is None else (d[0][:-phase_rows], d[1])
            for d in cert.leaf_duals]
        store.entries[key] = certificate_to_json(cert)
        with pytest.raises(CertificateError, match="version"):
            validate_certificate(load_certificate(store.entries[key]), net,
                                 c, thr, VerifyConfig())
        warm = VerificationEngine(VerifyConfig(certs="reuse"),
                                  certs=store).verify(_spec(net, box, c, thr))
        cold = VerificationEngine(VerifyConfig()).verify(
            _spec(net, box, c, thr))
        assert warm.provenance.cert_hit is False
        assert verdict_decision_json(warm) == verdict_decision_json(cold)


class TestContinuousLoop:
    """The reuse counters ride the continuous path end to end."""

    @pytest.fixture(scope="class")
    def baseline(self):
        from repro.core.problem import VerificationProblem
        from repro.core.verifier import _verify_from_scratch

        net = random_relu_network([3, 8, 6, 2], seed=5)
        din = Box(-np.ones(3), np.ones(3))
        xs = np.random.default_rng(0).uniform(-1, 1, size=(500, 3))
        ys = np.array([net.forward(x) for x in xs])
        dout = Box(ys.min(axis=0) - 2.0, ys.max(axis=0) + 2.0)
        problem = VerificationProblem(net, din, dout)
        outcome = _verify_from_scratch(problem,
                                       config=VerifyConfig(certs="reuse"))
        assert outcome.holds
        return net, problem, outcome.artifacts

    def test_fallback_warm_starts_across_versions(self, baseline):
        from repro.core.continuous import ContinuousVerifier
        from repro.core.problem import SVbTV

        net, problem, artifacts = baseline
        store = MemCerts()
        verifier = ContinuousVerifier(artifacts,
                                      config=VerifyConfig(certs="reuse"),
                                      certs=store)
        rng = np.random.default_rng(11)
        current = net.perturb(0.002, rng=rng)
        first = verifier.verify_new_version(
            SVbTV(problem, current, None), strategies=(), with_fixing=False)
        assert first.holds is True and first.nodes_reused == 0
        current = current.perturb(0.002, rng=rng)
        second = verifier.verify_new_version(
            SVbTV(problem, current, None), strategies=(), with_fixing=False)
        assert second.holds is True
        assert second.nodes_reused > 0
        assert second.lp_solves_saved > 0

    def test_spec_path_reports_reuse_in_provenance(self, baseline):
        net, _problem, artifacts = baseline
        store = MemCerts()
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=store)
        rng = np.random.default_rng(11)
        current = net.perturb(0.002, rng=rng)
        spec = ContinuousLoopSpec(artifacts=artifacts, new_network=current,
                                  strategies=(), with_fixing=False)
        first = engine.verify(spec)
        assert first.holds is True
        current = current.perturb(0.002, rng=rng)
        second = engine.verify(
            ContinuousLoopSpec(artifacts=artifacts, new_network=current,
                               strategies=(), with_fixing=False))
        assert second.holds is True
        assert second.provenance.nodes_reused > 0
        assert second.provenance.lp_solves_saved > 0
        assert second.provenance.cert_hit is True
        assert second.result.nodes_reused == second.provenance.nodes_reused

    def test_loop_summary_prints_reuse(self):
        from repro.core.loop import EngineeringLoop, LoopStep
        from repro.core.problem import VerificationProblem

        net = random_relu_network([2, 3, 1], seed=0)
        problem = VerificationProblem(net, Box(-np.ones(2), np.ones(2)),
                                      Box(-np.ones(1) * 99, np.ones(1) * 99))
        loop = EngineeringLoop(problem)
        loop.history.append(LoopStep(kind="version", holds=True,
                                     strategy="full re-verification",
                                     elapsed=0.1, reverified=True,
                                     nodes_reused=4, lp_solves_saved=7))
        text = loop.summary()
        assert "reused 4 nodes" in text
        assert "saved 7 LPs" in text
        assert "certificate reuse saved 7 LP solves" in text
