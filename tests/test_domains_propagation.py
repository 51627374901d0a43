"""Tests for the three abstract domains: soundness, precision ordering,
paper Fig. 2 values, and the inductive state chain."""

import numpy as np
import pytest

from repro.domains import (
    Box,
    SymbolicPropagator,
    Zonotope,
    get_propagator,
    output_box,
    propagate_network,
)
from repro.domains.propagate import inductive_states
from repro.errors import DomainError, UnsupportedLayerError
from repro.nn import Dense, LeakyReLU, Network, Sigmoid, random_relu_network


def _sound_on(net, box, domain, rng, n=1500, tol=1e-9):
    outs = propagate_network(net, box, domain)
    xs = box.sample(n, rng)
    values = xs
    for k, blk in enumerate(net.blocks()):
        values = np.stack([blk.forward(v) for v in np.atleast_2d(values)])
        assert np.all(values >= outs[k].lower - tol), f"{domain} layer {k} lower"
        assert np.all(values <= outs[k].upper + tol), f"{domain} layer {k} upper"


#: ``(domain, input)`` cases: ``unit`` is ``[-1, 1]^d``; ``origin`` and
#: ``off-origin`` are zero-width boxes (a single point).
SOUNDNESS_CASES = [
    pytest.param(domain, point,
                 id=domain if point == "unit" else f"{domain}-{point}")
    for domain in ("box", "symbolic", "zonotope")
    for point in ("unit", "origin", "off-origin")
]


def _input_box(point, dim):
    if point == "unit":
        return Box(-np.ones(dim), np.ones(dim))
    x = np.zeros(dim) if point == "origin" else np.linspace(-0.7, 0.9, dim)
    return Box(x, x)


class TestSoundness:
    @pytest.mark.parametrize("domain, point", SOUNDNESS_CASES)
    def test_relu_network(self, domain, point, small_net, rng):
        _sound_on(small_net, _input_box(point, 3), domain, rng)

    @pytest.mark.parametrize("domain, point", SOUNDNESS_CASES)
    def test_leaky_relu_network(self, domain, point, rng):
        net = Network(
            [Dense(2, 6, rng=np.random.default_rng(0)), LeakyReLU(0.1),
             Dense(6, 2, rng=np.random.default_rng(1))], input_dim=2)
        _sound_on(net, _input_box(point, 2), domain, rng)

    def test_box_supports_sigmoid(self, rng):
        net = Network(
            [Dense(2, 4, rng=np.random.default_rng(0)), Sigmoid(),
             Dense(4, 1, rng=np.random.default_rng(1))], input_dim=2)
        _sound_on(net, Box(-np.ones(2), np.ones(2)), "box", rng)

    @pytest.mark.parametrize("domain", ["symbolic", "zonotope"])
    def test_sigmoid_unsupported_elsewhere(self, domain):
        net = Network(
            [Dense(2, 4, rng=np.random.default_rng(0)), Sigmoid(),
             Dense(4, 1, rng=np.random.default_rng(1))], input_dim=2)
        with pytest.raises(UnsupportedLayerError):
            propagate_network(net, Box(-np.ones(2), np.ones(2)), domain)


class TestPrecision:
    def test_fig2_paper_bounds(self, fig2, unit_box2, enlarged_box2):
        """Box abstraction gives [0,12] on the original domain and [0,12.4]
        on the enlarged one -- the exact numbers printed in Fig. 2."""
        orig = output_box(fig2, unit_box2, "box")
        np.testing.assert_allclose(orig.lower, [0.0])
        np.testing.assert_allclose(orig.upper, [12.0])
        enlarged = output_box(fig2, enlarged_box2, "box")
        np.testing.assert_allclose(enlarged.upper, [12.4])

    def test_symbolic_tighter_than_box_on_fig2(self, fig2, unit_box2):
        sym = output_box(fig2, unit_box2, "symbolic")
        box = output_box(fig2, unit_box2, "box")
        assert sym.upper[0] < box.upper[0]
        assert box.contains_box(sym)

    def test_first_affine_layer_equal_across_domains(self, rng):
        """Over one affine block every domain is exact, hence identical."""
        net = Network([Dense(3, 4, rng=np.random.default_rng(2))], input_dim=3)
        box = Box(-np.ones(3), np.ones(3))
        results = [output_box(net, box, d) for d in ("box", "symbolic", "zonotope")]
        for r in results[1:]:
            np.testing.assert_allclose(r.lower, results[0].lower, atol=1e-9)
            np.testing.assert_allclose(r.upper, results[0].upper, atol=1e-9)


class TestSymbolicInternals:
    def test_identity_state(self):
        box = Box(np.array([-1.0, 2.0]), np.array([1.0, 3.0]))
        from repro.domains import SymbolicInterval

        state = SymbolicInterval.identity(box)
        got = state.concretize()
        np.testing.assert_array_equal(got.lower, box.lower)
        np.testing.assert_array_equal(got.upper, box.upper)

    def test_preactivation_boxes_sound(self, small_net, rng):
        box = Box(-np.ones(3), np.ones(3))
        pre = SymbolicPropagator().preactivation_boxes(small_net, box)
        xs = box.sample(800, rng)
        values = xs
        for k, blk in enumerate(small_net.blocks()):
            z = values @ blk.dense.weight.T + blk.dense.bias
            assert np.all(z >= pre[k].lower - 1e-9)
            assert np.all(z <= pre[k].upper + 1e-9)
            values = blk.forward(values)


class TestZonotopeInternals:
    def test_from_box_concretize_roundtrip(self):
        box = Box(np.array([-1.0, 0.0]), np.array([2.0, 4.0]))
        z = Zonotope.from_box(box)
        assert z.concretize() == box

    def test_affine_exact(self, rng):
        box = Box(-np.ones(2), np.ones(2))
        z = Zonotope.from_box(box)
        w, b = rng.normal(size=(3, 2)), rng.normal(size=3)
        out = z.affine(w, b).concretize()
        from repro.domains import affine_bounds

        expected = affine_bounds(w, b, box)
        np.testing.assert_allclose(out.lower, expected.lower)
        np.testing.assert_allclose(out.upper, expected.upper)


class TestRegistry:
    def test_unknown_domain(self):
        with pytest.raises(DomainError):
            get_propagator("octagon")

    def test_dim_mismatch(self, small_net):
        with pytest.raises(Exception):
            propagate_network(small_net, Box(np.zeros(5), np.ones(5)))


class TestInductiveStates:
    def test_chain_is_inductive(self, rng):
        """Sampling each S_i densely, images always land in S_{i+1}."""
        net = random_relu_network([3, 8, 6, 2], seed=9, weight_scale=0.7)
        din = Box(-np.ones(3), np.ones(3))
        states = inductive_states(net, din, buffer_rel=0.01)
        blocks = net.blocks()
        # layer 1 condition
        imgs = np.stack([blocks[0].forward(x) for x in din.sample(400, rng)])
        assert np.all(imgs >= states[0].lower - 1e-9)
        assert np.all(imgs <= states[0].upper + 1e-9)
        # inductive conditions
        for i in range(len(blocks) - 1):
            xs = states[i].sample(400, rng)
            imgs = np.stack([blocks[i + 1].forward(x) for x in xs])
            assert np.all(imgs >= states[i + 1].lower - 1e-9)
            assert np.all(imgs <= states[i + 1].upper + 1e-9)

    def test_buffer_grows_boxes(self):
        net = random_relu_network([3, 6, 2], seed=1)
        din = Box(-np.ones(3), np.ones(3))
        tight = inductive_states(net, din, buffer_rel=0.0)
        buffered = inductive_states(net, din, buffer_rel=0.1)
        for t, b in zip(tight, buffered):
            assert b.contains_box(t)
            assert b.volume() > t.volume()

    def test_rejects_negative_buffer(self):
        net = random_relu_network([3, 6, 2], seed=1)
        with pytest.raises(DomainError):
            inductive_states(net, Box(-np.ones(3), np.ones(3)), buffer_rel=-0.1)
