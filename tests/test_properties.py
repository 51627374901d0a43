"""Property-based tests (hypothesis) for the library's core invariants.

These are the load-bearing soundness contracts:

* abstract transformers over-approximate concrete execution;
* the exact solver brackets brute-force sampling;
* Lipschitz certificates dominate observed slopes;
* box algebra behaves like a lattice;
* network abstraction sandwiches the concrete network;
* proposition verdicts of ``True`` imply sampled safety.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import MaximizeSpec, ThresholdSpec, VerificationEngine
from repro.domains import Box, box_kappa, propagate_network
from repro.lipschitz import empirical_lipschitz, global_lipschitz_bound, local_lipschitz_bound
from repro.nn import random_relu_network
from repro.netabs import build_abstraction

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


dims = st.tuples(st.integers(2, 4), st.integers(3, 8), st.integers(2, 6))
seeds = st.integers(0, 10_000)


@st.composite
def boxes(draw, dim):
    center = draw(st.lists(st.floats(-2, 2), min_size=dim, max_size=dim))
    radius = draw(st.lists(st.floats(0.01, 1.5), min_size=dim, max_size=dim))
    c, r = np.array(center), np.array(radius)
    return Box(c - r, c + r)


class TestDomainSoundness:
    @SETTINGS
    @given(dims=dims, seed=seeds, domain=st.sampled_from(["box", "symbolic",
                                                          "zonotope"]))
    def test_output_box_contains_samples(self, dims, seed, domain):
        d_in, d_hidden, d_out = dims
        net = random_relu_network([d_in, d_hidden, d_out], seed=seed,
                                  weight_scale=1.0)
        box = Box(-np.ones(d_in), np.ones(d_in))
        out = propagate_network(net, box, domain)[-1]
        xs = box.sample(200, np.random.default_rng(seed))
        ys = np.atleast_2d(net.forward(xs))
        assert np.all(ys >= out.lower - 1e-8)
        assert np.all(ys <= out.upper + 1e-8)

    @SETTINGS
    @given(dims=dims, seed=seeds)
    def test_symbolic_refines_box(self, dims, seed):
        """Symbolic output bounds are never looser than plain intervals."""
        d_in, d_hidden, d_out = dims
        net = random_relu_network([d_in, d_hidden, d_out], seed=seed,
                                  weight_scale=1.0)
        box = Box(-np.ones(d_in), np.ones(d_in))
        sym = propagate_network(net, box, "symbolic")[-1]
        plain = propagate_network(net, box, "box")[-1]
        assert plain.contains_box(sym, tol=1e-8)


class TestExactSolver:
    @SETTINGS
    @given(seed=seeds)
    def test_bab_dominates_sampling(self, seed):
        net = random_relu_network([2, 5, 1], seed=seed, weight_scale=1.0)
        box = Box(-np.ones(2), np.ones(2))
        res = VerificationEngine().verify(MaximizeSpec(
            network=net, input_box=box, objective=np.array([1.0]))).result
        xs = box.sample(500, np.random.default_rng(seed + 1))
        vals = net.forward(xs).reshape(-1)
        assert res.upper_bound >= vals.max() - 1e-7
        # and the witness is genuinely feasible
        assert box.contains_point(res.witness)
        assert net.forward(res.witness)[0] == pytest.approx(
            res.incumbent, abs=1e-7)


class TestLipschitz:
    @SETTINGS
    @given(seed=seeds)
    def test_certificates_dominate_observations(self, seed):
        net = random_relu_network([3, 7, 2], seed=seed)
        box = Box(-np.ones(3), np.ones(3))
        samples = box.sample(60, np.random.default_rng(seed))
        emp = empirical_lipschitz(net, samples)
        local = local_lipschitz_bound(net, box)
        global_ = global_lipschitz_bound(net)
        # Both are certificates; neither dominates the other in general
        # (the interval-Jacobian envelope uses |W| products, whose spectral
        # norm can slightly exceed the product of spectral norms).
        assert emp <= local + 1e-7
        assert emp <= global_ + 1e-7


class TestBoxLattice:
    @SETTINGS
    @given(data=st.data(), dim=st.integers(1, 5))
    def test_union_is_join(self, data, dim):
        a = data.draw(boxes(dim))
        b = data.draw(boxes(dim))
        u = a.union(b)
        assert u.contains_box(a) and u.contains_box(b)

    @SETTINGS
    @given(data=st.data(), dim=st.integers(1, 5))
    def test_intersection_is_meet(self, data, dim):
        a = data.draw(boxes(dim))
        b = data.draw(boxes(dim))
        m = a.intersection(b)
        if m is not None:
            assert a.contains_box(m) and b.contains_box(m)

    @SETTINGS
    @given(data=st.data(), dim=st.integers(1, 4), amount=st.floats(0, 2))
    def test_inflate_monotone(self, data, dim, amount):
        a = data.draw(boxes(dim))
        assert a.inflate(amount).contains_box(a)

    @SETTINGS
    @given(data=st.data(), dim=st.integers(1, 4))
    def test_kappa_bounds_sampled_distances(self, data, dim):
        din = data.draw(boxes(dim))
        extra = data.draw(st.lists(st.floats(0, 1), min_size=dim, max_size=dim))
        enlarged = din.inflate(np.array(extra))
        kappa = box_kappa(din, enlarged)
        xs = enlarged.sample(100, np.random.default_rng(0))
        assert max(din.distance_to_point(x) for x in xs) <= kappa + 1e-9

    @SETTINGS
    @given(data=st.data(), dim=st.integers(1, 4))
    def test_split_partitions(self, data, dim):
        a = data.draw(boxes(dim))
        left, right = a.split()
        assert left.union(right) == a
        xs = a.sample(50, np.random.default_rng(1))
        for x in xs:
            assert left.contains_point(x) or right.contains_point(x)


class TestNetworkAbstraction:
    @SETTINGS
    @given(seed=seeds, groups=st.integers(1, 4))
    def test_sandwich_property(self, seed, groups):
        net = random_relu_network([3, 6, 5, 1], seed=seed)
        din = Box(np.zeros(3), np.ones(3))
        absn = build_abstraction(net, din, num_groups=groups)
        xs = din.sample(150, np.random.default_rng(seed))
        y = net.forward(xs).reshape(-1)
        assert np.all(absn.upper.forward(xs).reshape(-1) >= y - 1e-8)
        assert np.all(absn.lower.forward(xs).reshape(-1) <= y + 1e-8)


class TestTrainingInvariance:
    @SETTINGS
    @given(seed=seeds)
    def test_perturb_zero_scale_is_identity(self, seed):
        net = random_relu_network([3, 5, 2], seed=seed)
        same = net.perturb(0.0, np.random.default_rng(seed))
        assert net.max_weight_delta(same) == 0.0


class TestDeepPoly:
    @SETTINGS
    @given(seed=seeds)
    def test_sound_and_contains_exact_range(self, seed):
        net = random_relu_network([3, 6, 4, 1], seed=seed, weight_scale=0.9)
        box = Box(-np.ones(3), np.ones(3))
        out = propagate_network(net, box, "deeppoly")[-1]
        xs = box.sample(300, np.random.default_rng(seed))
        ys = net.forward(xs).reshape(-1)
        assert ys.min() >= out.lower[0] - 1e-8
        assert ys.max() <= out.upper[0] + 1e-8


class TestBackwardRefinement:
    @SETTINGS
    @given(seed=seeds)
    def test_refined_box_keeps_reaching_points(self, seed):
        from repro.domains import refine_input_box

        net = random_relu_network([3, 6, 1], seed=seed, weight_scale=0.8)
        box = Box(-np.ones(3), np.ones(3))
        xs = box.sample(300, np.random.default_rng(seed))
        ys = net.forward(xs).reshape(-1)
        cut = float(np.quantile(ys, 0.8))
        target = Box(np.array([cut]), np.array([cut + 1e6]))
        res = refine_input_box(net, box, target)
        reaching = xs[ys >= cut]
        if res.empty:
            assert reaching.shape[0] == 0
        else:
            for x in reaching:
                assert res.input_box.contains_point(x, tol=1e-7)


class TestCertificateWarmStart:
    @SETTINGS
    @given(seed=seeds)
    def test_warm_reproof_matches_cold_verdict(self, seed):
        from repro.certs import reverify_with_certificate

        net = random_relu_network([2, 5, 1], seed=seed, weight_scale=1.0)
        box = Box(-np.ones(2), np.ones(2))
        engine = VerificationEngine()
        opt = engine.verify(MaximizeSpec(
            network=net, input_box=box, objective=np.array([1.0]))).result
        threshold = opt.upper_bound + 0.1
        cert = engine.verify(ThresholdSpec(
            network=net, input_box=box, objective=np.array([1.0]),
            threshold=threshold)).certificate
        assert cert is not None
        res, _ = reverify_with_certificate(net, box, cert.objective,
                                           threshold, cert)
        assert res.status in ("threshold_proved", "optimal")
        assert res.upper_bound <= threshold + 1e-6
