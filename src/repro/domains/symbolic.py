"""ReluVal-style symbolic interval analysis.

This is the abstraction the paper's evaluation uses to build the per-layer
state abstractions (via the ReluVal tool): every neuron carries a *lower*
and an *upper* affine bound expressed over the network's input variables.
Affine layers transform both bounds exactly; ReLU introduces the standard
linear relaxation for unstable neurons.  Concretising the affine bounds over
the input box yields per-neuron intervals -- usually much tighter than plain
interval arithmetic because correlations between neurons are preserved
through the linear parts.

Representation: for a layer with ``d`` neurons over an input of dimension
``m``, the state holds ``low_w (d, m), low_b (d,), up_w (d, m), up_b (d,)``
meaning ``low_w x + low_b  <=  neuron(x)  <=  up_w x + up_b`` for every
``x`` in the input box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ShapeError, UnsupportedLayerError
from repro.domains.box import Box
from repro.nn.layers import LeakyReLU, ReLU
from repro.nn.network import Network

__all__ = ["SymbolicInterval", "SymbolicPropagator"]


def _affine_range(weight: np.ndarray, bias: np.ndarray, box: Box) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise min/max of ``W x + b`` over ``x`` in ``box``."""
    center = weight @ box.center + bias
    radius = np.abs(weight) @ box.radius
    return center - radius, center + radius


@dataclass
class SymbolicInterval:
    """Affine lower/upper bounds of one layer's neurons over an input box."""

    input_box: Box
    low_w: np.ndarray
    low_b: np.ndarray
    up_w: np.ndarray
    up_b: np.ndarray

    @staticmethod
    def identity(box: Box) -> "SymbolicInterval":
        """The input layer's symbolic state: each variable bounds itself."""
        eye = np.eye(box.dim)
        zero = np.zeros(box.dim)
        return SymbolicInterval(box, eye.copy(), zero.copy(), eye.copy(), zero.copy())

    @property
    def dim(self) -> int:
        return self.low_b.size

    def concretize(self) -> Box:
        """Tightest box implied by the affine bounds over the input box."""
        lo, _ = _affine_range(self.low_w, self.low_b, self.input_box)
        _, hi = _affine_range(self.up_w, self.up_b, self.input_box)
        # Relaxations can make the lower bound exceed the upper by rounding
        # noise on stable neurons; clamp to keep the box well-formed.
        return Box.unsafe(np.minimum(lo, hi), hi)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        box = self.concretize()
        return box.lower, box.upper


class SymbolicPropagator:
    """Network-level symbolic interval propagation (ReluVal style)."""

    name = "symbolic"

    def propagate_block(self, block, state: SymbolicInterval) -> SymbolicInterval:
        return self.activate(
            block.activation,
            self._affine(block.dense.weight, block.dense.bias, state))

    @classmethod
    def activate(cls, act, state: SymbolicInterval) -> SymbolicInterval:
        """Apply one block's activation (``None``: linear) to its
        pre-activation state."""
        if act is None:
            return state
        if isinstance(act, ReLU):
            return cls._relu(state, slope_neg=0.0)
        if isinstance(act, LeakyReLU):
            return cls._relu(state, slope_neg=act.alpha)
        raise UnsupportedLayerError(
            f"symbolic intervals support ReLU/LeakyReLU, not {type(act).__name__}"
        )

    @staticmethod
    def _affine(weight: np.ndarray, bias: np.ndarray,
                state: SymbolicInterval) -> SymbolicInterval:
        """Exact affine transformer: route positive weights through the same
        bound and negative weights through the opposite bound."""
        w_pos = np.maximum(weight, 0.0)
        w_neg = np.minimum(weight, 0.0)
        low_w = w_pos @ state.low_w + w_neg @ state.up_w
        low_b = w_pos @ state.low_b + w_neg @ state.up_b + bias
        up_w = w_pos @ state.up_w + w_neg @ state.low_w
        up_b = w_pos @ state.up_b + w_neg @ state.low_b + bias
        return SymbolicInterval(state.input_box, low_w, low_b, up_w, up_b)

    @staticmethod
    def _relu(state: SymbolicInterval, slope_neg: float) -> SymbolicInterval:
        """(Leaky-)ReLU transformer with per-neuron case split.

        For each neuron, concretise both equations; three cases:

        * definitely inactive (``u <= 0``): output is ``slope_neg * eq``;
        * definitely active (``l >= 0``): equations pass through unchanged;
        * unstable: relax.  The upper equation is scaled by
          ``λ = (u - slope_neg*l) / (u - l)`` and shifted so it dominates
          both linear pieces; the lower equation keeps the sound flat bound
          (``slope_neg * eq`` if its own range stays non-positive, else the
          constant ``min(0, slope_neg * l)``), matching ReluVal's
          concretise-on-instability strategy.
        """
        box = state.input_box
        low_lo, low_hi = _affine_range(state.low_w, state.low_b, box)
        up_lo, up_hi = _affine_range(state.up_w, state.up_b, box)
        lo = low_lo  # guaranteed lower bound of the neuron value
        hi = up_hi   # guaranteed upper bound

        low_w = state.low_w.copy()
        low_b = state.low_b.copy()
        up_w = state.up_w.copy()
        up_b = state.up_b.copy()

        for i in range(state.dim):
            l, u = lo[i], hi[i]
            if u <= 0.0:
                low_w[i] *= slope_neg
                low_b[i] *= slope_neg
                up_w[i] *= slope_neg
                up_b[i] *= slope_neg
            elif l >= 0.0:
                continue
            else:
                # Unstable neuron. Upper equation: chord relaxation of the
                # piecewise map y = max(x, slope_neg * x) over [l, u].
                lam = (u - slope_neg * l) / (u - l)
                mu = u - lam * u  # chord passes through (u, u)
                # The chord must upper-bound the *upper equation's* range;
                # applying it to the upper equation keeps soundness because
                # lam >= slope_neg >= 0 and the chord dominates the function.
                up_w[i] = lam * up_w[i]
                up_b[i] = lam * up_b[i] + mu
                # Lower equation: if the lower equation itself can be
                # positive we lose its symbolic form; fall back to the sound
                # affine bound slope_neg * eq when slope_neg pieces apply,
                # which is <= y everywhere (y >= slope_neg * x and the lower
                # equation under-approximates x).
                low_w[i] *= slope_neg
                low_b[i] *= slope_neg
                if slope_neg == 0.0:
                    low_b[i] = 0.0
        return SymbolicInterval(box, low_w, low_b, up_w, up_b)

    @staticmethod
    def _input_state(network: Network, input_box: Box) -> SymbolicInterval:
        if input_box.dim != network.input_dim:
            raise ShapeError(
                f"input box dim {input_box.dim} != network input {network.input_dim}"
            )
        return SymbolicInterval.identity(input_box)

    def propagate_states(self, network: Network, input_box: Box) -> List[SymbolicInterval]:
        """Symbolic state after every block."""
        states = []
        state = self._input_state(network, input_box)
        for block in network.blocks():
            state = self.propagate_block(block, state)
            states.append(state)
        return states

    def propagate(self, network: Network, input_box: Box) -> List[Box]:
        """Concretised per-block boxes ``[S_1, ..., S_n]`` -- the state
        abstractions the paper stores as proof artifacts."""
        return [s.concretize() for s in self.propagate_states(network, input_box)]

    def preactivation_boxes(self, network: Network, input_box: Box) -> List[Box]:
        """Sound bounds on every block's *pre-activation* values.

        These are the ``[l, u]`` intervals the exact encodings need to decide
        neuron stability and to size the big-M / triangle relaxations.
        """
        pre_boxes = []
        state = self._input_state(network, input_box)
        for block in network.blocks():
            pre = self._affine(block.dense.weight, block.dense.bias, state)
            pre_boxes.append(pre.concretize())
            state = self.activate(block.activation, pre)
        return pre_boxes
