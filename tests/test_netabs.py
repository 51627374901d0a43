"""Tests for network abstraction: split, merge, Proposition-6 checks."""

import numpy as np
import pytest

from repro.domains import Box
from repro.errors import UnsupportedLayerError
from repro.nn import Dense, Network, Sigmoid, random_relu_network
from repro.netabs import (
    apply_split,
    build_abstraction,
    categorize_split,
    verify_with_refinement,
)


def _scalar_net(seed, dims=(4, 8, 6, 1)):
    return random_relu_network(list(dims), seed=seed)


class TestCategorizeSplit:
    def test_split_preserves_function(self, rng):
        """The categorised split is function-preserving: re-assembling the
        split weights computes the same network."""
        net = _scalar_net(0)
        structure = categorize_split(net)
        weights, biases = apply_split(net, structure)
        box = Box(np.zeros(4), np.ones(4))
        for x in box.sample(50, rng):
            v = x
            for k, (w, b) in enumerate(zip(weights, biases)):
                v = w @ v + b
                if k < len(weights) - 1:
                    v = np.maximum(v, 0.0)
            np.testing.assert_allclose(v, net.forward(x), atol=1e-10)

    def test_edge_sign_consistency(self):
        """Every kept edge satisfies sign(w) = cat(source) * cat(target)."""
        net = _scalar_net(1)
        structure = categorize_split(net)
        weights, _ = apply_split(net, structure)
        for k in range(1, len(weights)):
            src_cat = structure.blocks[k - 1].row_cat
            tgt_cat = structure.blocks[k].row_cat
            signs = weights[k] * tgt_cat[:, None] * src_cat[None, :]
            assert np.min(signs, initial=0.0) >= 0.0

    def test_requires_single_output(self):
        net = random_relu_network([3, 4, 2], seed=0)
        with pytest.raises(UnsupportedLayerError):
            categorize_split(net)

    def test_requires_relu_hidden(self):
        net = Network(
            [Dense(2, 3, rng=np.random.default_rng(0)), Sigmoid(),
             Dense(3, 1, rng=np.random.default_rng(1))], input_dim=2)
        with pytest.raises(UnsupportedLayerError):
            categorize_split(net)


class TestAbstractionSoundness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_upper_lower_sandwich_nonneg_domain(self, seed, groups, rng):
        net = _scalar_net(seed)
        din = Box(np.zeros(4), np.ones(4))
        absn = build_abstraction(net, din, num_groups=groups)
        xs = din.sample(800, rng)
        y = net.forward(xs).reshape(-1)
        yu = absn.upper.forward(xs).reshape(-1)
        yl = absn.lower.forward(xs).reshape(-1)
        assert np.all(yu >= y - 1e-9)
        assert np.all(yl <= y + 1e-9)

    def test_sandwich_signed_domain(self, rng):
        net = _scalar_net(2)
        din = Box(-np.ones(4), np.ones(4))
        absn = build_abstraction(net, din, num_groups=2)
        assert not absn.input_nonneg
        xs = din.sample(800, rng)
        y = net.forward(xs).reshape(-1)
        assert np.all(absn.upper.forward(xs).reshape(-1) >= y - 1e-9)
        assert np.all(absn.lower.forward(xs).reshape(-1) <= y + 1e-9)

    def test_abstraction_is_smaller(self):
        net = _scalar_net(3, dims=(6, 20, 16, 1))
        absn = build_abstraction(net, Box(np.zeros(6), np.ones(6)), num_groups=2)
        sizes = absn.abstraction_sizes()
        assert sizes["merged"] < sizes["split"]

    def test_more_groups_tighter_bounds(self):
        net = _scalar_net(4, dims=(4, 12, 10, 1))
        din = Box(np.zeros(4), np.ones(4))
        coarse = build_abstraction(net, din, num_groups=1)
        fine = build_abstraction(net, din, num_groups=8)
        bc = coarse.output_bounds(din)
        bf = fine.output_bounds(din)
        assert bc.contains_box(bf)

    def test_margin_widens_bounds(self):
        net = _scalar_net(5)
        din = Box(np.zeros(4), np.ones(4))
        tight = build_abstraction(net, din, num_groups=2, margin=0.0)
        slack = build_abstraction(net, din, num_groups=2, margin=0.1)
        assert slack.output_bounds(din).contains_box(tight.output_bounds(din))


class TestAbstractsCheck:
    def test_self_always_abstracted(self):
        net = _scalar_net(6)
        absn = build_abstraction(net, Box(np.zeros(4), np.ones(4)), num_groups=3)
        assert absn.abstracts(net).holds

    def test_small_tune_with_margin_ok_large_fails(self):
        net = _scalar_net(7)
        din = Box(np.zeros(4), np.ones(4))
        absn = build_abstraction(net, din, num_groups=3, margin=0.05)
        small = net.perturb(0.005, np.random.default_rng(0))
        large = net.perturb(0.5, np.random.default_rng(1))
        assert absn.abstracts(small).holds
        big_check = absn.abstracts(large)
        assert not big_check.holds
        assert big_check.reason  # explains why

    def test_abstracted_tune_really_sandwiched(self, rng):
        """Whenever abstracts() says yes, the bounds truly hold -- the
        critical soundness contract Prop 6 relies on."""
        net = _scalar_net(8)
        din = Box(np.zeros(4), np.ones(4))
        absn = build_abstraction(net, din, num_groups=2, margin=0.08)
        accepted = 0
        for seed in range(8):
            tuned = net.perturb(0.01, np.random.default_rng(seed))
            if not absn.abstracts(tuned).holds:
                continue
            accepted += 1
            xs = din.sample(300, rng)
            y = tuned.forward(xs).reshape(-1)
            assert np.all(absn.upper.forward(xs).reshape(-1) >= y - 1e-9)
            assert np.all(absn.lower.forward(xs).reshape(-1) <= y + 1e-9)
        assert accepted >= 1  # margin was generous enough for some tune

    def test_structure_mismatch_rejected(self):
        net = _scalar_net(9)
        absn = build_abstraction(net, Box(np.zeros(4), np.ones(4)))
        other = random_relu_network([4, 8, 1], seed=0)
        assert not absn.abstracts(other).holds

    def test_domain_must_be_inside(self):
        net = _scalar_net(10)
        din = Box(np.zeros(4), np.ones(4))
        absn = build_abstraction(net, din)
        bigger = din.inflate(1.0)
        assert not absn.abstracts(net, din=bigger).holds


class TestRefinement:
    def test_refines_until_provable(self):
        net = _scalar_net(11, dims=(4, 12, 10, 1))
        din = Box(np.zeros(4), np.ones(4))
        coarse_bounds = build_abstraction(net, din, num_groups=1).output_bounds(din)
        # pick a Dout between the coarse bound and the fine bound
        fine_bounds = build_abstraction(net, din, num_groups=16).output_bounds(din)
        mid = fine_bounds.inflate(0.25 * (coarse_bounds.widths.max()
                                          - fine_bounds.widths.max()))
        res = verify_with_refinement(net, din, mid, initial_groups=1)
        assert res.holds is True
        assert res.levels_tried >= 1

    def test_gives_up_gracefully(self):
        net = _scalar_net(12)
        din = Box(np.zeros(4), np.ones(4))
        impossible = Box(np.array([0.0]), np.array([1e-6]))
        res = verify_with_refinement(net, din, impossible, max_groups=4)
        assert res.holds is None
