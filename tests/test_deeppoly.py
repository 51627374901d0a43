"""Tests for the DeepPoly back-substitution domain."""

import numpy as np
import pytest

from repro.domains import Box, DeepPolyPropagator, propagate_network
from repro.errors import UnsupportedLayerError
from repro.nn import Dense, LeakyReLU, Network, Sigmoid, random_relu_network


class TestSoundness:
    @pytest.mark.parametrize("seed", range(4))
    def test_contains_samples(self, seed, rng):
        net = random_relu_network([4, 10, 8, 2], seed=seed, weight_scale=0.9)
        box = Box(-np.ones(4), np.ones(4))
        outs = propagate_network(net, box, "deeppoly")
        values = box.sample(1200, rng)
        for k, blk in enumerate(net.blocks()):
            values = np.stack([blk.forward(v) for v in values])
            assert np.all(values >= outs[k].lower - 1e-8)
            assert np.all(values <= outs[k].upper + 1e-8)

    def test_leaky_relu(self, rng):
        net = Network(
            [Dense(3, 6, rng=np.random.default_rng(0)), LeakyReLU(0.1),
             Dense(6, 2, rng=np.random.default_rng(1))], input_dim=3)
        box = Box(-np.ones(3), np.ones(3))
        out = propagate_network(net, box, "deeppoly")[-1]
        ys = net.forward(box.sample(2000, rng))
        assert np.all(ys >= out.lower - 1e-8)
        assert np.all(ys <= out.upper + 1e-8)

    def test_preactivation_boxes_sound(self, small_net, rng):
        box = Box(-np.ones(3), np.ones(3))
        pre = DeepPolyPropagator().preactivation_boxes(small_net, box)
        values = box.sample(800, rng)
        for k, blk in enumerate(small_net.blocks()):
            z = values @ blk.dense.weight.T + blk.dense.bias
            assert np.all(z >= pre[k].lower - 1e-8)
            assert np.all(z <= pre[k].upper + 1e-8)
            values = blk.forward(values)

    def test_sigmoid_unsupported(self):
        net = Network(
            [Dense(2, 3, rng=np.random.default_rng(0)), Sigmoid(),
             Dense(3, 1, rng=np.random.default_rng(1))], input_dim=2)
        with pytest.raises(UnsupportedLayerError):
            propagate_network(net, Box(-np.ones(2), np.ones(2)), "deeppoly")


class TestPrecision:
    def test_never_looser_than_box_on_output(self):
        """Back-substitution through exact affine steps plus clamped ReLU
        outputs keeps DeepPoly at or below interval arithmetic widths on
        these instances."""
        worse = 0
        for seed in range(6):
            net = random_relu_network([4, 10, 8, 1], seed=seed,
                                      weight_scale=0.8)
            box = Box(-np.ones(4), np.ones(4))
            dp = propagate_network(net, box, "deeppoly")[-1]
            bx = propagate_network(net, box, "box")[-1]
            if dp.widths.sum() > bx.widths.sum() + 1e-9:
                worse += 1
        assert worse == 0

    def test_relu_output_floor(self, fig2, enlarged_box2):
        """Post-ReLU bounds never report negative reachability."""
        outs = propagate_network(fig2, enlarged_box2, "deeppoly")
        for box in outs:
            assert np.all(box.lower >= -1e-12)

    def test_exact_on_single_affine(self, rng):
        net = Network([Dense(3, 4, rng=np.random.default_rng(5))], input_dim=3)
        box = Box(-np.ones(3), np.ones(3))
        dp = propagate_network(net, box, "deeppoly")[-1]
        bx = propagate_network(net, box, "box")[-1]
        np.testing.assert_allclose(dp.lower, bx.lower, atol=1e-9)
        np.testing.assert_allclose(dp.upper, bx.upper, atol=1e-9)

    def test_registered_in_propagators(self):
        from repro.domains import PROPAGATORS

        assert "deeppoly" in PROPAGATORS
