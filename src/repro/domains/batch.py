"""Batched bound propagation: every abstract domain over N boxes at once.

The continuous-verification loop is dominated by re-propagating state
abstractions: branch and bound screens hundreds of sibling regions, the
runtime monitor checks windows of samples, and the Proposition 4/5
decompositions re-run one propagation per subproblem.  Doing those one
:class:`~repro.domains.box.Box` at a time pays full Python/numpy dispatch
overhead per region.  This module stacks the regions instead and pushes the
whole stack through each layer with a single numpy pass -- the stacked
interval arithmetic that gives ReluVal/Neurify-style tools their throughput.

Batched-state layout
--------------------
* :class:`BoxBatch` -- lower/upper bounds stacked as ``(N, d)`` arrays; row
  ``i`` is one box.  The :meth:`BoxBatch.unsafe` constructor skips
  validation for propagator inner loops (all public entry points validate).
* :class:`SymbolicBatch` -- ReluVal-style affine bounds with a leading batch
  axis: ``low_w/up_w`` are ``(N, d, m)``, ``low_b/up_b`` are ``(N, d)``;
  slice ``[i]`` is exactly one :class:`~repro.domains.symbolic.SymbolicInterval`.
* :class:`ZonotopeBatch` -- centers ``(N, d)`` and generators ``(N, d, m)``.
  A fresh noise symbol is appended for every neuron unstable in *some* row
  (rows where that neuron is stable get a zero column) so the batch keeps
  one uniform shape; zero generators do not change concretised bounds.

Affine layers become one stacked matmul over the batch axis
(``np.einsum``/broadcasting); activations become masked elementwise maps.
Per-block results concretise back to :class:`BoxBatch`, so every batched
propagator has the same signature::

    propagate_batch(network, BoxBatch) -> [BoxBatch_1, ..., BoxBatch_n]

matching the scalar ``propagate(network, Box) -> [S_1, ..., S_n]`` row by
row (within floating-point summation-order noise, well below 1e-12 on the
workloads here).

The module also hosts the two batched screens built on top:

* :func:`phase_clamped_objective_bounds` -- interval upper bounds of
  ``c @ f(x)`` for N branch-and-bound nodes (phase-constrained regions) in
  one pass, the pre-LP pruning device of :mod:`repro.exact.bab`;
* :func:`screen_containments` -- N heterogeneous ``(network, source,
  target)`` containment subproblems screened in a single dimension-padded
  stacked pass, the Proposition 4/5 pre-screen of
  :mod:`repro.core.propositions`.

This batched API is the base every future scaling PR (sharded propagation,
async serving) builds on -- see ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DomainError, ShapeError, UnsupportedLayerError
from repro.domains.box import Box
from repro.nn.layers import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.network import Network

__all__ = [
    "BoxBatch",
    "SymbolicBatch",
    "ZonotopeBatch",
    "BatchedBoxPropagator",
    "BatchedSymbolicPropagator",
    "BatchedZonotopePropagator",
    "BATCHED_PROPAGATORS",
    "get_batched_propagator",
    "propagate_batch",
    "output_box_batch",
    "phase_clamped_node_bounds",
    "phase_clamped_objective_bounds",
    "phase_clamped_affine_bounds",
    "screen_containments",
]


@dataclass(frozen=True)
class BoxBatch:
    """N closed axis-aligned boxes stacked as ``(N, d)`` bound arrays."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.ndim != 2 or lower.shape != upper.shape:
            raise ShapeError(
                f"batch bounds must be matching (N, d) arrays, got "
                f"{lower.shape} vs {upper.shape}"
            )
        if lower.shape[0] == 0 or lower.shape[1] == 0:
            raise DomainError("box batches must be non-empty in both axes")
        if np.any(lower > upper + 1e-12):
            worst = float(np.max(lower - upper))
            raise DomainError(f"lower exceeds upper by {worst:.3g}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", np.maximum(upper, lower))

    # ------------------------------------------------------------ constructors
    @classmethod
    def unsafe(cls, lower: np.ndarray, upper: np.ndarray) -> "BoxBatch":
        """Validation-free fast path for propagator inner loops.

        Callers must supply float64 ``(N, d)`` arrays with ``lower <= upper``.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "lower", lower)
        object.__setattr__(batch, "upper", upper)
        return batch

    @staticmethod
    def from_boxes(boxes: Sequence[Box]) -> "BoxBatch":
        """Stack same-dimension boxes into one batch."""
        if not boxes:
            raise DomainError("cannot build a batch from zero boxes")
        dims = {box.dim for box in boxes}
        if len(dims) > 1:
            raise ShapeError(f"boxes have mixed dimensions: {sorted(dims)}")
        return BoxBatch.unsafe(
            np.stack([box.lower for box in boxes]),
            np.stack([box.upper for box in boxes]),
        )

    @staticmethod
    def single(box: Box) -> "BoxBatch":
        """A batch of one (degenerate ``N = 1``)."""
        return BoxBatch.unsafe(box.lower[np.newaxis, :], box.upper[np.newaxis, :])

    @staticmethod
    def tile(box: Box, n: int) -> "BoxBatch":
        """``n`` copies of the same box."""
        if n <= 0:
            raise DomainError(f"batch size must be positive, got {n}")
        return BoxBatch.unsafe(
            np.tile(box.lower, (int(n), 1)), np.tile(box.upper, (int(n), 1))
        )

    # -------------------------------------------------------------- geometry
    @property
    def size(self) -> int:
        """Number of boxes N."""
        return self.lower.shape[0]

    @property
    def dim(self) -> int:
        return self.lower.shape[1]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def radius(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    # ------------------------------------------------------------- conversion
    def box(self, i: int) -> Box:
        """Row ``i`` as a scalar :class:`Box`."""
        return Box.unsafe(np.ascontiguousarray(self.lower[i]),
                          np.ascontiguousarray(self.upper[i]))

    def boxes(self) -> List[Box]:
        """Materialise the batch as a list of scalar boxes."""
        return [self.box(i) for i in range(self.size)]

    def select(self, mask: np.ndarray) -> "BoxBatch":
        """Sub-batch of the rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        return BoxBatch.unsafe(self.lower[mask], self.upper[mask])

    # ------------------------------------------------------------ set algebra
    def contains_points(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Row-wise containment: is ``points[i]`` inside box ``i``?"""
        pts = np.asarray(points, dtype=np.float64)
        if pts.shape != self.lower.shape:
            raise ShapeError(f"points shape {pts.shape} != batch {self.lower.shape}")
        return np.all((pts >= self.lower - tol) & (pts <= self.upper + tol), axis=1)

    def contained_in(self, outer: Box, tol: float = 1e-9) -> np.ndarray:
        """Per-row mask: is box ``i`` inside the (single) ``outer`` box?"""
        if outer.dim != self.dim:
            raise ShapeError(f"box dim {outer.dim} != batch dim {self.dim}")
        return np.all(
            (self.lower >= outer.lower - tol) & (self.upper <= outer.upper + tol),
            axis=1,
        )


# --------------------------------------------------------------------------
# Box domain
# --------------------------------------------------------------------------
def _batch_activation(act, lower: np.ndarray, upper: np.ndarray) -> BoxBatch:
    """Monotone elementwise activations, broadcast over the batch axis."""
    if isinstance(act, ReLU):
        return BoxBatch.unsafe(np.maximum(lower, 0.0), np.maximum(upper, 0.0))
    if isinstance(act, LeakyReLU):
        a = act.alpha
        lo = np.where(lower > 0, lower, a * lower)
        hi = np.where(upper > 0, upper, a * upper)
        return BoxBatch.unsafe(lo, hi)
    if isinstance(act, (Sigmoid, Tanh)):
        return BoxBatch.unsafe(act.forward(lower), act.forward(upper))
    raise UnsupportedLayerError(f"no box transformer for {type(act).__name__}")


class BatchedBoxPropagator:
    """Interval arithmetic over a whole batch: one matmul pass per block."""

    name = "box"

    def propagate_block(self, block, batch: BoxBatch) -> BoxBatch:
        w, b = block.dense.weight, block.dense.bias
        center = batch.center @ w.T + b
        radius = batch.radius @ np.abs(w).T
        out = BoxBatch.unsafe(center - radius, center + radius)
        act = block.activation
        if act is None:
            return out
        return _batch_activation(act, out.lower, out.upper)

    def propagate(self, network: Network, batch: BoxBatch) -> List[BoxBatch]:
        """Per-block batched abstractions ``[S_1, ..., S_n]``; row ``i`` of
        every entry matches the scalar propagation of ``batch.box(i)``."""
        if batch.dim != network.input_dim:
            raise ShapeError(
                f"batch dim {batch.dim} != network input {network.input_dim}"
            )
        outputs = []
        current = batch
        for block in network.blocks():
            current = self.propagate_block(block, current)
            outputs.append(current)
        return outputs


# --------------------------------------------------------------------------
# Symbolic-interval domain
# --------------------------------------------------------------------------
@dataclass
class SymbolicBatch:
    """Batched affine lower/upper bounds over per-row input boxes.

    ``low_w/up_w`` are ``(N, d, m)``; ``low_b/up_b`` are ``(N, d)``; row
    ``i`` encodes ``low_w[i] x + low_b[i] <= neuron(x) <= up_w[i] x +
    up_b[i]`` for every ``x`` in ``input.box(i)``.
    """

    input: BoxBatch
    low_w: np.ndarray
    low_b: np.ndarray
    up_w: np.ndarray
    up_b: np.ndarray

    @staticmethod
    def identity(batch: BoxBatch) -> "SymbolicBatch":
        eye = np.broadcast_to(np.eye(batch.dim), (batch.size, batch.dim, batch.dim))
        zero = np.zeros((batch.size, batch.dim))
        return SymbolicBatch(batch, eye.copy(), zero.copy(), eye.copy(), zero.copy())

    @property
    def dim(self) -> int:
        return self.low_b.shape[1]

    def _range(self, w: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        center = np.einsum("nim,nm->ni", w, self.input.center) + b
        radius = np.einsum("nim,nm->ni", np.abs(w), self.input.radius)
        return center - radius, center + radius

    def concretize(self) -> BoxBatch:
        lo, _ = self._range(self.low_w, self.low_b)
        _, hi = self._range(self.up_w, self.up_b)
        # Same rounding clamp as the scalar SymbolicInterval.concretize.
        return BoxBatch.unsafe(np.minimum(lo, hi), hi)


class BatchedSymbolicPropagator:
    """ReluVal-style symbolic intervals with a leading batch axis."""

    name = "symbolic"

    def propagate_block(self, block, state: SymbolicBatch) -> SymbolicBatch:
        state = self._affine(block.dense.weight, block.dense.bias, state)
        act = block.activation
        if act is None:
            return state
        if isinstance(act, ReLU):
            return self._relu(state, slope_neg=0.0)
        if isinstance(act, LeakyReLU):
            return self._relu(state, slope_neg=act.alpha)
        raise UnsupportedLayerError(
            f"symbolic intervals support ReLU/LeakyReLU, not {type(act).__name__}"
        )

    @staticmethod
    def _affine(weight: np.ndarray, bias: np.ndarray,
                state: SymbolicBatch) -> SymbolicBatch:
        w_pos = np.maximum(weight, 0.0)
        w_neg = np.minimum(weight, 0.0)
        low_w = (np.einsum("ij,njm->nim", w_pos, state.low_w)
                 + np.einsum("ij,njm->nim", w_neg, state.up_w))
        up_w = (np.einsum("ij,njm->nim", w_pos, state.up_w)
                + np.einsum("ij,njm->nim", w_neg, state.low_w))
        low_b = state.low_b @ w_pos.T + state.up_b @ w_neg.T + bias
        up_b = state.up_b @ w_pos.T + state.low_b @ w_neg.T + bias
        return SymbolicBatch(state.input, low_w, low_b, up_w, up_b)

    @staticmethod
    def _relu(state: SymbolicBatch, slope_neg: float) -> SymbolicBatch:
        """Vectorised mirror of ``SymbolicPropagator._relu``: the per-neuron
        three-way case split becomes three masks over the ``(N, d)`` plane."""
        lo, _ = state._range(state.low_w, state.low_b)
        _, hi = state._range(state.up_w, state.up_b)

        inactive = hi <= 0.0
        active = ~inactive & (lo >= 0.0)
        unstable = ~inactive & ~active

        denom = np.where(unstable, hi - lo, 1.0)
        lam = np.where(unstable, (hi - slope_neg * lo) / denom, 1.0)
        mu = np.where(unstable, hi - lam * hi, 0.0)

        low_scale = np.where(active, 1.0, slope_neg)
        low_w = state.low_w * low_scale[:, :, None]
        low_b = state.low_b * low_scale
        if slope_neg == 0.0:
            low_b = np.where(active, low_b, 0.0)

        up_scale = np.where(active, 1.0, np.where(inactive, slope_neg, lam))
        up_w = state.up_w * up_scale[:, :, None]
        up_b = state.up_b * up_scale + mu
        return SymbolicBatch(state.input, low_w, low_b, up_w, up_b)

    def propagate_states(self, network: Network,
                         batch: BoxBatch) -> List[SymbolicBatch]:
        if batch.dim != network.input_dim:
            raise ShapeError(
                f"batch dim {batch.dim} != network input {network.input_dim}"
            )
        states = []
        state = SymbolicBatch.identity(batch)
        for block in network.blocks():
            state = self.propagate_block(block, state)
            states.append(state)
        return states

    def propagate(self, network: Network, batch: BoxBatch) -> List[BoxBatch]:
        return [s.concretize() for s in self.propagate_states(network, batch)]


# --------------------------------------------------------------------------
# Zonotope domain
# --------------------------------------------------------------------------
@dataclass
class ZonotopeBatch:
    """Batched affine forms ``c + G e`` with centers ``(N, d)`` and
    generators ``(N, d, m)`` over the shared unit hypercube of symbols."""

    center: np.ndarray
    generators: np.ndarray

    @staticmethod
    def from_batch(batch: BoxBatch) -> "ZonotopeBatch":
        eye = np.eye(batch.dim)
        return ZonotopeBatch(batch.center.copy(),
                             eye[np.newaxis, :, :] * batch.radius[:, :, None])

    @property
    def dim(self) -> int:
        return self.center.shape[1]

    def concretize(self) -> BoxBatch:
        radius = np.abs(self.generators).sum(axis=2)
        return BoxBatch.unsafe(self.center - radius, self.center + radius)

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "ZonotopeBatch":
        return ZonotopeBatch(
            self.center @ weight.T + bias,
            np.einsum("ij,njm->nim", weight, self.generators),
        )


class BatchedZonotopePropagator:
    """DeepZ-style zonotope propagation over the batch axis."""

    name = "zonotope"

    def propagate_block(self, block, zono: ZonotopeBatch) -> ZonotopeBatch:
        zono = zono.affine(block.dense.weight, block.dense.bias)
        act = block.activation
        if act is None:
            return zono
        if isinstance(act, ReLU):
            return self._relu(zono, slope_neg=0.0)
        if isinstance(act, LeakyReLU):
            return self._relu(zono, slope_neg=act.alpha)
        raise UnsupportedLayerError(
            f"zonotopes support ReLU/LeakyReLU, not {type(act).__name__}"
        )

    @staticmethod
    def _relu(zono: ZonotopeBatch, slope_neg: float) -> ZonotopeBatch:
        """Vectorised DeepZ transformer.  One fresh symbol per *neuron* is
        appended when any row has an unstable neuron (stable neurons carry a
        zero generator, which concretises identically to appending none)."""
        box = zono.concretize()
        lo, hi = box.lower, box.upper

        inactive = hi <= 0.0
        active = ~inactive & (lo >= 0.0)
        unstable = ~inactive & ~active

        denom = np.where(unstable, hi - lo, 1.0)
        lam = np.where(unstable, (hi - slope_neg * lo) / denom, 1.0)
        eta = np.where(unstable, 0.5 * (lam - slope_neg) * (-lo), 0.0)
        scale = np.where(active, 1.0, np.where(inactive, slope_neg, lam))

        center = scale * zono.center + eta
        gens = scale[:, :, None] * zono.generators
        if np.any(unstable):
            # One fresh column per neuron unstable in *some* row (zero for
            # rows where that neuron is stable) -- uniform batch shape
            # without carrying all-zero columns for fully-stable neurons.
            cols = np.flatnonzero(unstable.any(axis=0))
            fresh = np.zeros((zono.center.shape[0], zono.dim, cols.size))
            fresh[:, cols, np.arange(cols.size)] = eta[:, cols]
            gens = np.concatenate([gens, fresh], axis=2)
        return ZonotopeBatch(center, gens)

    def propagate_states(self, network: Network,
                         batch: BoxBatch) -> List[ZonotopeBatch]:
        if batch.dim != network.input_dim:
            raise ShapeError(
                f"batch dim {batch.dim} != network input {network.input_dim}"
            )
        states = []
        zono = ZonotopeBatch.from_batch(batch)
        for block in network.blocks():
            zono = self.propagate_block(block, zono)
            states.append(zono)
        return states

    def propagate(self, network: Network, batch: BoxBatch) -> List[BoxBatch]:
        return [z.concretize() for z in self.propagate_states(network, batch)]


# --------------------------------------------------------------------------
# Dispatch
# --------------------------------------------------------------------------
BATCHED_PROPAGATORS: Dict[str, type] = {
    BatchedBoxPropagator.name: BatchedBoxPropagator,
    BatchedSymbolicPropagator.name: BatchedSymbolicPropagator,
    BatchedZonotopePropagator.name: BatchedZonotopePropagator,
}


def get_batched_propagator(domain: str):
    """Instantiate a batched propagator by name (``"box"``, ``"symbolic"``,
    ``"zonotope"``)."""
    try:
        cls = BATCHED_PROPAGATORS[domain]
    except KeyError:
        known = ", ".join(sorted(BATCHED_PROPAGATORS))
        raise DomainError(
            f"unknown batched domain {domain!r}; known: {known}") from None
    return cls()


def propagate_batch(network: Network, batch: BoxBatch,
                    domain: str = "box") -> List[BoxBatch]:
    """Per-block batched state abstractions of ``network`` over all boxes of
    ``batch`` in one stacked pass -- the batched twin of
    :func:`repro.domains.propagate.propagate_network`."""
    return get_batched_propagator(domain).propagate(network, batch)


def output_box_batch(network: Network, batch: BoxBatch,
                     domain: str = "box") -> BoxBatch:
    """Sound per-row over-approximation of ``{f(x) : x in batch.box(i)}``."""
    return propagate_batch(network, batch, domain)[-1]


# --------------------------------------------------------------------------
# Batched screens built on the stacked interval pass
# --------------------------------------------------------------------------
def _block_slope(act) -> float:
    """Unified negative-side slope of ``y = max(x, slope * x)``: 0 for ReLU,
    ``alpha`` for LeakyReLU, 1 for a linear (identity) block."""
    if act is None:
        return 1.0
    if isinstance(act, ReLU):
        return 0.0
    if isinstance(act, LeakyReLU):
        return act.alpha
    raise UnsupportedLayerError(
        f"batched screens support ReLU/LeakyReLU/linear, not {type(act).__name__}"
    )


def phase_clamped_node_bounds(
        network: Network, input_box: Box, phases,
        c: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """One clamped interval pass over N phase-constrained regions, returning
    everything a branch-and-bound node needs.

    ``phases`` is the ``(N, W)`` int8 phase matrix of the regions (one
    column per neuron in block order, 0 free, +-1 fixed; see
    :func:`repro.exact.encoding.phase_matrix`, which also converts a
    sequence of ``PhaseMap`` dicts passed here instead).  Row ``j``'s
    region is the subset of ``input_box`` where its signed pre-activation
    constraints hold.  The batch propagates plain intervals, clamping each
    fixed neuron's pre-activation range to its half-line -- sound because
    every real execution of the region satisfies both the interval
    enclosure and the sign constraint.

    Returns ``(upper, feasible, pre_lo, pre_hi)``:

    * ``upper`` -- interval upper bounds of ``c @ f(x)`` per region
      (``None`` when no objective is supplied; ``-inf`` on infeasible rows);
    * ``feasible`` -- rows whose clamp empties some pre-activation interval
      are marked infeasible (their region is empty);
    * ``pre_lo`` / ``pre_hi`` -- per-block ``(N, d_k)`` post-clamp
      pre-activation bounds, the per-node ``z``-variable tightening fed to
      :meth:`repro.exact.encoding.NetworkEncoding.node_bounds`
      (meaningless on infeasible rows).
    """
    from repro.exact.encoding import as_phase_matrix

    phases = as_phase_matrix(phases, network.block_dims()[1:])
    n = len(phases)
    if n == 0:
        empty_upper = None if c is None else np.empty(0)
        return empty_upper, np.empty(0, dtype=bool), [], []
    lo = np.tile(input_box.lower, (n, 1))
    hi = np.tile(input_box.upper, (n, 1))
    feasible = np.ones(n, dtype=bool)
    pre_lo: List[np.ndarray] = []
    pre_hi: List[np.ndarray] = []

    offset = 0
    for k, block in enumerate(network.blocks()):
        w, b = block.dense.weight, block.dense.bias
        center = 0.5 * (lo + hi)
        radius = 0.5 * (hi - lo)
        zc = center @ w.T + b
        zr = radius @ np.abs(w).T
        zl, zu = zc - zr, zc + zr
        fixed = phases[:, offset:offset + block.out_dim]
        offset += block.out_dim
        act = block.activation
        if act is None:
            pre_lo.append(zl)
            pre_hi.append(zu)
            lo, hi = zl, zu
            continue
        slope = _block_slope(act)

        if fixed.any():
            zl = np.where(fixed == 1, np.maximum(zl, 0.0), zl)
            zu = np.where(fixed == -1, np.minimum(zu, 0.0), zu)
            empty = zl > zu
            if empty.any():
                feasible &= ~np.any(empty, axis=1)
                zl = np.minimum(zl, zu)  # keep the arithmetic well-formed
        pre_lo.append(zl)
        pre_hi.append(zu)
        # Post-clamp, the standard interval activation is exact for fixed
        # neurons too: active rows have zl >= 0, inactive rows zu <= 0.
        lo = np.where(zl > 0, zl, slope * zl)
        hi = np.where(zu > 0, zu, slope * zu)

    if c is None:
        return None, feasible, pre_lo, pre_hi
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    c_pos = np.maximum(c, 0.0)
    c_neg = np.minimum(c, 0.0)
    upper = hi @ c_pos + lo @ c_neg
    upper[~feasible] = -np.inf
    return upper, feasible, pre_lo, pre_hi


def phase_clamped_objective_bounds(
        network: Network, input_box: Box, phases,
        c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Interval upper bounds of ``c @ f(x)`` over N phase-constrained regions
    (see :func:`phase_clamped_node_bounds`, of which this keeps only the
    ``(upper_bounds, feasible)`` pair)."""
    upper, feasible, _, __ = phase_clamped_node_bounds(
        network, input_box, phases, c)
    return upper, feasible


def phase_clamped_affine_bounds(
        network: Network, input_box: Box, phases,
        c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Backward affine (CROWN-style) upper bounds over N phase-constrained
    regions -- the near-LP-tight screen certificate reuse warm-starts on.

    Same contract as :func:`phase_clamped_node_bounds` (whose forward pass
    supplies feasibility and the per-block pre-activation intervals), but
    the objective bound comes from one batched *backward* pass: starting
    from ``A = c`` at the output, each activation is replaced per-unit by a
    sound linear enclosure of ``y = max(z, slope * z)`` over its clamped
    pre-activation interval -- exact for stable or phase-fixed units, the
    chord/line relaxation for unstable ones, chosen per the sign of the
    accumulated coefficient -- and each dense layer folds in exactly.  The
    result concretises against the input box in closed form, so a frontier
    of leaves the solver settled at *LP*-bound depth (where plain intervals
    still read "open" -- the dependency problem) re-screens to "proved"
    without a single LP.  Returned uppers are the elementwise minimum of
    the interval and affine bounds; both are sound, so the minimum is.
    """
    upper_iv, feasible, pre_lo, pre_hi = phase_clamped_node_bounds(
        network, input_box, phases, c)
    n = len(feasible)
    if n == 0:
        return upper_iv, feasible, pre_lo, pre_hi
    c_vec = np.asarray(c, dtype=np.float64).reshape(-1)
    blocks = list(network.blocks())

    # A row j holds the coefficients of a sound upper bound
    # ``A[j] @ (post-activation of block k) + bias[j]`` on c @ f(x); the
    # backward pass rewrites it block by block until it is affine in x.
    a_mat = np.tile(c_vec, (n, 1))
    bias = np.zeros(n)
    for k in range(len(blocks) - 1, -1, -1):
        block = blocks[k]
        act = block.activation
        if act is not None:
            slope = _block_slope(act)
            lo_k, hi_k = pre_lo[k], pre_hi[k]
            # Per-unit enclosure of y = max(z, slope*z) on [lo, hi]:
            # stable-active (lo >= 0, includes phase-fixed +1): y = z exact;
            # stable-inactive (hi <= 0, includes phase-fixed -1): y = slope*z
            # exact; unstable: upper chord through the endpoints, lower line
            # through the origin (the steeper of the two exact pieces).
            up_w = np.ones_like(lo_k)
            up_b = np.zeros_like(lo_k)
            low_w = np.ones_like(lo_k)
            inactive = hi_k <= 0.0
            up_w = np.where(inactive, slope, up_w)
            low_w = np.where(inactive, slope, low_w)
            unstable = (lo_k < 0.0) & (hi_k > 0.0)
            denom = np.where(unstable, hi_k - lo_k, 1.0)
            chord_w = (hi_k - slope * lo_k) / denom
            chord_b = hi_k * (1.0 - chord_w)
            up_w = np.where(unstable, chord_w, up_w)
            up_b = np.where(unstable, chord_b, up_b)
            low_w = np.where(
                unstable, np.where(hi_k >= -lo_k, 1.0, slope), low_w)
            # Upper-bounding A @ y: positive coefficients take the upper
            # relaxation, negative ones the lower (both have zero intercept
            # except the chord).
            pos = a_mat >= 0.0
            bias += np.sum(np.where(pos, a_mat * up_b, 0.0), axis=1)
            a_mat = a_mat * np.where(pos, up_w, low_w)
        w, b = block.dense.weight, block.dense.bias
        bias += a_mat @ b
        a_mat = a_mat @ w
    center = 0.5 * (input_box.lower + input_box.upper)
    radius = 0.5 * (input_box.upper - input_box.lower)
    upper_aff = a_mat @ center + np.abs(a_mat) @ radius + bias
    upper = np.minimum(upper_iv, upper_aff)
    upper[~feasible] = -np.inf
    return upper, feasible, pre_lo, pre_hi


def screen_containments(
        subproblems: Sequence[Tuple[Network, Box, Box]],
        tol: float = 1e-9) -> List[Optional[bool]]:
    """Screen N containment subproblems ``∀x ∈ source : f(x) ∈ target`` in
    one dimension-padded stacked interval pass.

    The subproblems may involve different (sub)networks of different widths
    and depths: sources are zero-padded to the widest dimension, every
    block's weights are embedded in a stacked ``(N, dmax, dmax)`` tensor,
    and exhausted (shorter) networks carry their values through identity
    blocks.  Verdicts are ``True`` (containment proved by the sound interval
    bound -- exact for single-block subproblems) or ``None`` (inconclusive;
    the caller falls back to its exact check).  Rows with activations the
    screen cannot express are also ``None``.
    """
    n = len(subproblems)
    if n == 0:
        return []
    supported = []
    for network, source, target in subproblems:
        ok = source.dim == network.input_dim and target.dim == network.output_dim
        if ok:
            try:
                for block in network.blocks():
                    _block_slope(block.activation)
            except UnsupportedLayerError:
                ok = False
        supported.append(ok)
    if not any(supported):
        return [None] * n

    all_dims = [d for (net, _, __), ok in zip(subproblems, supported) if ok
                for d in net.block_dims()]
    dmax = max(all_dims)
    depth = max(net.num_blocks
                for (net, _, __), ok in zip(subproblems, supported) if ok)

    lo = np.zeros((n, dmax))
    hi = np.zeros((n, dmax))
    for j, (network, source, _) in enumerate(subproblems):
        if supported[j]:
            lo[j, :source.dim] = source.lower
            hi[j, :source.dim] = source.upper

    eye = np.eye(dmax)
    for t in range(depth):
        weights = np.zeros((n, dmax, dmax))
        biases = np.zeros((n, dmax))
        slopes = np.ones((n, dmax))
        for j, (network, _, __) in enumerate(subproblems):
            if not supported[j]:
                continue
            blocks = network.blocks()
            if t < len(blocks):
                block = blocks[t]
                d_out, d_in = block.dense.weight.shape
                weights[j, :d_out, :d_in] = block.dense.weight
                biases[j, :d_out] = block.dense.bias
                slopes[j, :d_out] = _block_slope(block.activation)
            else:
                weights[j] = eye  # finished network: carry values through
        center = 0.5 * (lo + hi)
        radius = 0.5 * (hi - lo)
        zc = np.einsum("nij,nj->ni", weights, center) + biases
        zr = np.einsum("nij,nj->ni", np.abs(weights), radius)
        zl, zu = zc - zr, zc + zr
        # y = max(x, slope * x); slope 1 on padding keeps identities exact.
        lo = np.where(zl > 0, zl, slopes * zl)
        hi = np.where(zu > 0, zu, slopes * zu)

    verdicts: List[Optional[bool]] = []
    for j, (_, __, target) in enumerate(subproblems):
        if not supported[j]:
            verdicts.append(None)
            continue
        d = target.dim
        contained = bool(
            np.all(lo[j, :d] >= target.lower - tol)
            and np.all(hi[j, :d] <= target.upper + tol)
        )
        verdicts.append(True if contained else None)
    return verdicts
