"""Unit tests for network serialization and the builder constructors."""

import numpy as np
import pytest

from repro.errors import SerializationError, ShapeError
from repro.nn import (
    fig2_network,
    load_network,
    network_from_bytes,
    network_to_bytes,
    random_relu_network,
    regression_head,
    save_network,
)


class TestSerialize:
    def test_roundtrip_file(self, tmp_path, small_net, rng):
        path = tmp_path / "net.npz"
        save_network(small_net, path)
        loaded = load_network(path)
        x = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(loaded.forward(x), small_net.forward(x))

    def test_roundtrip_bytes(self, small_net, rng):
        blob = network_to_bytes(small_net)
        loaded = network_from_bytes(blob)
        x = rng.normal(size=3)
        np.testing.assert_array_equal(loaded.forward(x), small_net.forward(x))

    def test_preserves_structure(self, tmp_path):
        net = fig2_network()
        path = tmp_path / "fig2.npz"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.num_blocks == net.num_blocks
        assert loaded.input_dim == net.input_dim

    def test_copies_and_loads_draw_no_random_weights(self, tmp_path,
                                                      monkeypatch):
        # Copies and loads hand their arrays to the layer constructors; a
        # Dense built without them would first draw He weights.
        net = random_relu_network([27, 16, 12, 1], seed=0)
        path = tmp_path / "head.npz"
        save_network(net, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("a copy or load drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for rebuilt in (net.copy(), net.subnetwork(0), load_network(path),
                        network_from_bytes(network_to_bytes(net))):
            assert len(rebuilt.layers) == len(net.layers)
            for ours, theirs in zip(net.layers, rebuilt.layers):
                assert type(ours) is type(theirs)
                assert ours.config() == theirs.config()
                for name, array in ours.arrays().items():
                    copied = theirs.arrays()[name]
                    assert copied.dtype == array.dtype
                    assert copied.tobytes() == array.tobytes()
        head = net.subnetwork(1, 3)
        for ours, theirs in zip(net.layers[2:], head.layers):
            for name, array in ours.arrays().items():
                assert theirs.arrays()[name].tobytes() == array.tobytes()

    def test_corrupt_payload_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(SerializationError):
            load_network(path)


class TestBuilders:
    def test_fig2_values_match_paper(self):
        """The worked example: f(1, -1) passes n1=3, n3=2, n4=ReLU(6-2)=4."""
        net = fig2_network()
        hidden = net.forward_blocks(np.array([1.0, -1.0]), 1)
        np.testing.assert_allclose(hidden, [3.0, 0.0, 2.0])
        out = net.forward(np.array([1.0, -1.0]))
        np.testing.assert_allclose(out, [4.0])

    def test_random_network_deterministic(self):
        a = random_relu_network([3, 5, 2], seed=11)
        b = random_relu_network([3, 5, 2], seed=11)
        assert a.max_weight_delta(b) == 0.0

    def test_random_network_weight_scale(self):
        net = random_relu_network([4, 6, 2], seed=0, weight_scale=0.1)
        for blk in net.blocks():
            assert np.max(np.abs(blk.dense.weight)) <= 0.1

    def test_random_network_final_activation(self):
        net = random_relu_network([2, 3, 1], seed=0, final_activation=True)
        assert net.blocks()[-1].activation is not None
        assert net.forward(np.array([-10.0, -10.0]))[0] >= 0.0

    def test_random_network_needs_two_dims(self):
        with pytest.raises(ShapeError):
            random_relu_network([3], seed=0)

    def test_regression_head_shape(self):
        head = regression_head(27, [24, 16], seed=0)
        assert head.input_dim == 27
        assert head.output_dim == 1
        assert head.num_blocks == 3

    def test_regression_head_sigmoid_output(self):
        head = regression_head(5, [4], sigmoid_output=True, seed=0)
        y = head.forward(np.zeros(5))
        assert 0.0 <= y[0] <= 1.0
