"""Tests for LP bound tightening and warm-started branch and bound."""

import numpy as np
import pytest

from repro.api import MaximizeSpec, ThresholdSpec, VerificationEngine
from repro.certs import reverify_with_certificate
from repro.domains import Box
from repro.domains.symbolic import SymbolicPropagator
from repro.errors import ArtifactError
from repro.exact import BaBSolver, tighten_preactivation_bounds
from repro.exact.encoding import phase_maps
from repro.nn import random_relu_network


@pytest.fixture(scope="module")
def net_and_box():
    net = random_relu_network([4, 12, 10, 1], seed=2, weight_scale=0.8)
    return net, Box(-0.6 * np.ones(4), 0.6 * np.ones(4))


class TestTightening:
    def test_never_loosens(self, net_and_box):
        net, box = net_and_box
        before = SymbolicPropagator().preactivation_boxes(net, box)
        after, _ = tighten_preactivation_bounds(net, box)
        for b, a in zip(before, after):
            assert b.contains_box(a)

    def test_sound_against_samples(self, net_and_box, rng):
        net, box = net_and_box
        tightened, _ = tighten_preactivation_bounds(net, box)
        values = box.sample(1500, rng)
        for k, blk in enumerate(net.blocks()):
            z = values @ blk.dense.weight.T + blk.dense.bias
            assert np.all(z >= tightened[k].lower - 1e-7)
            assert np.all(z <= tightened[k].upper + 1e-7)
            values = blk.forward(values)

    def test_reports_progress(self, net_and_box):
        net, box = net_and_box
        _, stats = tighten_preactivation_bounds(net, box)
        assert stats.lp_solves > 0
        assert stats.neurons_tightened > 0
        assert 0.0 <= stats.width_reduction < 1.0

    def test_budget_respected(self, net_and_box):
        net, box = net_and_box
        _, stats = tighten_preactivation_bounds(net, box, max_lp_solves=4)
        assert stats.lp_solves <= 4

    def test_tightened_bounds_preserve_exactness(self, net_and_box):
        """BaB on tightened bounds finds the identical optimum (node counts
        may differ either way -- tightening changes the branching order)."""
        net, box = net_and_box
        from repro.exact.encoding import NetworkEncoding

        plain = BaBSolver(net, box).maximize(np.array([1.0]))
        tightened, _ = tighten_preactivation_bounds(net, box)
        enc = NetworkEncoding(net, box, pre_boxes=tightened)
        warm = BaBSolver(net, box, encoding=enc).maximize(np.array([1.0]))
        assert warm.upper_bound == pytest.approx(plain.upper_bound, abs=1e-5)


def _maximize(net, box):
    """Exact ``max f(x)`` over ``box`` as an engine MaximizeSpec."""
    return VerificationEngine().verify(MaximizeSpec(
        network=net, input_box=box, objective=np.array([1.0]))).result


def _certify(net, box, threshold):
    """``(BaBResult, Certificate | None)`` of a ThresholdSpec."""
    verdict = VerificationEngine().verify(ThresholdSpec(
        network=net, input_box=box, objective=np.array([1.0]),
        threshold=threshold))
    return verdict.result, verdict.certificate


def _reprove(net, box, cert, threshold=None):
    """The warm-started re-proof of ``cert``'s threshold (or of
    ``threshold``) on ``net`` over ``box``: its BaBResult."""
    return reverify_with_certificate(
        net, box, cert.objective,
        cert.threshold if threshold is None else threshold, cert)[0]


class TestCertificateWarmStart:
    def test_certificate_reproves_same_problem(self, net_and_box):
        net, box = net_and_box
        opt = _maximize(net, box)
        threshold = opt.upper_bound + 0.1
        res, cert = _certify(net, box, threshold)
        assert cert is not None and cert.num_leaves >= 1
        again = _reprove(net, box, cert)
        assert again.status in ("threshold_proved", "optimal")
        assert again.upper_bound <= threshold + 1e-6

    def test_warm_start_transfers_to_tuned_network(self, net_and_box):
        net, box = net_and_box
        opt = _maximize(net, box)
        threshold = opt.upper_bound + 0.5
        _, cert = _certify(net, box, threshold)
        tuned = net.perturb(1e-4, np.random.default_rng(0))
        res = _reprove(tuned, box, cert)
        assert res.status in ("threshold_proved", "optimal")
        # soundness: brute force respects the re-proved threshold
        vals = tuned.forward(box.sample(3000, np.random.default_rng(1)))
        assert vals.max() <= threshold + 1e-6

    def test_warm_start_transfers_to_enlarged_domain(self, net_and_box):
        net, box = net_and_box
        opt = _maximize(net, box)
        threshold = opt.upper_bound + 1.0
        _, cert = _certify(net, box, threshold)
        bigger = box.inflate(0.01)
        res = _reprove(net, bigger, cert)
        if res.status in ("threshold_proved", "optimal"):
            vals = net.forward(bigger.sample(3000, np.random.default_rng(2)))
            assert vals.max() <= threshold + 1e-6

    def test_refutes_when_threshold_violated(self, net_and_box):
        net, box = net_and_box
        opt = _maximize(net, box)
        _, cert = _certify(net, box, opt.upper_bound + 0.5)
        res = _reprove(net, box, cert, threshold=opt.upper_bound - 0.5)
        assert res.status == "threshold_refuted"

    def test_no_certificate_on_failed_proof(self, net_and_box):
        net, box = net_and_box
        opt = _maximize(net, box)
        res, cert = _certify(net, box, opt.upper_bound - 1.0)
        assert cert is None
        assert res.status == "threshold_refuted"

    def test_architecture_mismatch_rejected(self, net_and_box):
        net, box = net_and_box
        opt = _maximize(net, box)
        _, cert = _certify(net, box, opt.upper_bound + 1.0)
        other = random_relu_network([4, 6, 1], seed=0)
        with pytest.raises(ArtifactError):
            _reprove(other, box, cert)

    def test_leaves_cover_space(self, net_and_box, rng):
        """Every input point satisfies some leaf's phase constraints."""
        net, box = net_and_box
        opt = _maximize(net, box)
        _, cert = _certify(net, box, opt.upper_bound + 0.05)
        blocks = net.blocks()
        for x in box.sample(200, rng):
            pre = []
            v = x
            for blk in blocks:
                z = blk.dense.forward(v)
                pre.append(z)
                v = blk.forward(v)
            covered = False
            for leaf in phase_maps(cert.leaves, net.block_dims()[1:]):
                ok = True
                for (k, i), phase in leaf.items():
                    z = pre[k][i]
                    if phase == 1 and z < -1e-9:
                        ok = False
                        break
                    if phase == -1 and z > 1e-9:
                        ok = False
                        break
                if ok:
                    covered = True
                    break
            assert covered
