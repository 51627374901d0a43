"""LP / MILP encodings of piecewise-linear networks over a box domain.

Implements the big-M encoding the paper cites ([12]-[14], Equation 2) plus
the LP *triangle* relaxation used by the branch-and-bound solver.  One
:class:`NetworkEncoding` owns the variable layout and the pre-activation
bounds; callers ask it for constraint matrices, either

* :meth:`NetworkEncoding.build_lp` -- an LP relaxation where each unstable
  (leaky-)ReLU is replaced by its convex triangle hull, optionally with some
  neuron phases *fixed* (the branching device of :mod:`repro.exact.bab`); or
* :meth:`NetworkEncoding.build_milp` -- the exact mixed-integer encoding with
  one binary indicator per unstable neuron (big-M style).

Variable layout: input ``x`` first, then per block its pre-activation vector
``z_k`` and (when the block has an activation) its post-activation ``a_k``.
Binary indicators, when requested, are appended at the end.

Fixed node layout
-----------------
The phase-free base system is assembled exactly once per encoding, whole
layers at a time as COO triplets collapsed into CSR (no per-neuron dense
rows).  Its inequality block ends with two *phase rows* per unstable
neuron, ``a - z <= +inf`` and ``a - slope*z <= +inf``, which stay vacuous
until a branch fixes the neuron's phase:

* active (``+1``): ``z >= 0`` and the first phase row's bound becomes 0,
  which with the triangle row ``z - a <= 0`` pins ``a = z``;
* inactive (``-1``): ``z <= 0`` and the second phase row's bound becomes
  0, which with ``slope*z - a <= 0`` pins ``a = slope*z``.

Every branch-and-bound node therefore shares one constraint matrix and
differs from its parent only in a few column bounds and right-hand sides
(:meth:`NetworkEncoding.node_bounds`, for one node or a batch).  That is
what lets :mod:`repro.exact.highs` keep one HiGHS model per encoding and
restart each child's dual simplex from its parent's basis, and what lets
:meth:`NetworkEncoding.lagrangian_uppers` bound a whole batch of nodes
by weak duality with one sparse product on the shared matrices.  The
triangle rows of a fixed neuron stay in place: they bound the hull of
both pieces, so they are redundant but sound.

Encodings themselves are reusable across solves: :meth:`NetworkEncoding.
for_problem` memoises encodings under a ``(network-weights, box)``
fingerprint so the continuous-verification loop re-proving the same
``(network, box)`` pair with different thresholds or phase sets never
re-runs symbolic propagation or base assembly (paper Sec. VI, proof reuse).
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import DomainError, UnsupportedLayerError
from repro.domains.box import Box
from repro.domains.symbolic import SymbolicPropagator
from repro.exact.highs import kernel_for
from repro.exact.lp import LPResult
from repro.nn.layers import LeakyReLU, ReLU
from repro.nn.network import Network

__all__ = [
    "PhaseMap",
    "PackedDuals",
    "as_phase_matrix",
    "phase_columns",
    "phase_maps",
    "phase_matrix",
    "LinearSystem",
    "NetworkEncoding",
    "encoding_cache_stats",
    "clear_encoding_cache",
]

#: Phase assignment for branching: ``{(block, neuron): +1 (active) | -1 (inactive)}``.
PhaseMap = Dict[Tuple[int, int], int]


def phase_matrix(maps: Sequence[PhaseMap], widths: Sequence[int]) -> np.ndarray:
    """The ``(N, W)`` int8 *phase matrix* of N phase maps.

    One row per map and one column per neuron in block order: ``widths``
    are the blocks' neuron counts, ``W = sum(widths)``, and neuron ``(k,
    i)`` sits in column ``sum(widths[:k]) + i``.  0 means free, +-1 fixed.
    Raises :class:`DomainError` for a neuron outside ``widths`` or a
    phase other than +-1.
    """
    offsets = [0, *itertools.accumulate(widths)]
    rows: List[int] = []
    cols: List[int] = []
    values: List[int] = []
    for j, phases in enumerate(maps):
        for (block, unit), phase in phases.items():
            if phase not in (1, -1) or not (
                    0 <= block < len(widths) and 0 <= unit < widths[block]):
                raise DomainError(
                    f"phase {phase!r} of neuron ({block}, {unit}) does not "
                    f"fit blocks of widths {list(widths)}")
            rows.append(j)
            cols.append(offsets[block] + unit)
            values.append(phase)
    matrix = np.zeros((len(maps), offsets[-1]), dtype=np.int8)
    if rows:
        matrix[rows, cols] = values
    return matrix


def phase_columns(widths: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """``(blocks, units)``: the neuron ``(blocks[c], units[c])`` of every
    phase-matrix column ``c``."""
    blocks = np.repeat(np.arange(len(widths)), widths)
    units = np.arange(len(blocks)) - np.repeat(
        np.cumsum(widths) - np.asarray(widths), widths)
    return blocks, units


def phase_maps(matrix: np.ndarray, widths: Sequence[int]) -> List[PhaseMap]:
    """Inverse of :func:`phase_matrix`: one phase map per row, its items
    in column order."""
    blocks, units = (part.tolist() for part in phase_columns(widths))
    maps = []
    for row in np.asarray(matrix):
        cols = np.flatnonzero(row).tolist()
        maps.append({(blocks[c], units[c]): int(row[c]) for c in cols})
    return maps


def as_phase_matrix(phases, widths: Sequence[int]) -> np.ndarray:
    """``phases`` as an ``(N, W)`` int8 phase matrix: an array passes
    through (shape-checked), a sequence of phase maps is converted."""
    if not isinstance(phases, np.ndarray):
        return phase_matrix(phases, widths)
    width = int(sum(widths))
    if phases.ndim != 2 or phases.shape[1] != width:
        raise DomainError(
            f"phase matrix of shape {phases.shape} does not have {width} "
            f"neuron columns")
    return phases.astype(np.int8, copy=False)


@dataclass(frozen=True)
class PackedDuals:
    """Per-node multipliers ``(lambda, mu)`` packed as one float64 matrix.

    ``present`` marks the nodes that carry multipliers; row ``r`` of
    ``matrix`` belongs to the ``r``-th present node and holds ``lambda``
    followed by ``mu``, split at ``split``.  The fixed node layout gives
    every node the same row counts, so one width fits all -- this is the
    certificate wire's dual block as it decodes.
    """

    matrix: np.ndarray
    present: np.ndarray
    split: int

    @classmethod
    def pack(cls, entries: Sequence[Optional[Tuple]],
             sizes: Optional[Tuple[int, int]] = None) -> "PackedDuals":
        """Pack per-node ``(lambda, mu)`` pairs (``None``: no multipliers);
        every pair must have the same two lengths.  With ``sizes = (m_ub,
        m_eq)`` a pair of other lengths counts as ``None`` instead, and the
        matrix has that row shape even when no node is present."""
        if sizes is not None:
            entries = [entry if entry is not None and
                       (np.size(entry[0]), np.size(entry[1])) == sizes
                       else None for entry in entries]
        present = np.array([entry is not None for entry in entries],
                           dtype=bool)
        rows = [[np.asarray(part, dtype=np.float64).reshape(-1)
                 for part in entry] for entry in entries if entry is not None]
        if sizes is not None:
            split, width = sizes[0], sum(sizes)
        elif rows:
            split, width = rows[0][0].size, rows[0][0].size + rows[0][1].size
        else:
            split = width = 0
        if any(lam.size != split or mu.size != width - split
               for lam, mu in rows):
            raise DomainError(
                "node duals must share one (dual_ub, dual_eq) shape to pack")
        matrix = np.array([np.concatenate(row) for row in rows],
                          dtype=np.float64).reshape(len(rows), width)
        return cls(matrix, present, split)

    @classmethod
    def absent(cls, count: int, sizes: Tuple[int, int]) -> "PackedDuals":
        """``count`` nodes without multipliers, rows shaped ``sizes``."""
        return cls(np.zeros((0, sum(sizes))), np.zeros(count, dtype=bool),
                   sizes[0])

    @classmethod
    def stack(cls, parts: Sequence["PackedDuals"]) -> "PackedDuals":
        """The nodes of ``parts`` in order; all share one row shape."""
        if len(parts) == 1:
            return parts[0]
        return cls(np.concatenate([part.matrix for part in parts]),
                   np.concatenate([part.present for part in parts]),
                   parts[0].split)

    def fits(self, sizes: Tuple[int, int]) -> bool:
        """Are the rows shaped ``(m_ub, m_eq)`` -- ``sizes`` -- as a node
        layout's multipliers must be?"""
        return self.split == sizes[0] and self.matrix.shape[1] == sum(sizes)

    def __len__(self) -> int:
        return self.present.size

    def __iter__(self) -> Iterator[Optional[Tuple[np.ndarray, np.ndarray]]]:
        """Each node's ``(lambda, mu)`` views into ``matrix``, or ``None``."""
        rows = iter(self.matrix)
        for present in self.present.tolist():
            if present:
                row = next(rows)
                yield row[:self.split], row[self.split:]
            else:
                yield None

    def take(self, index) -> "PackedDuals":
        """The multipliers of the nodes ``index`` selects, in its order."""
        index = np.arange(len(self))[index]
        keep = self.present[index]
        rank = np.cumsum(self.present) - 1  # matrix row of a present node
        return PackedDuals(self.matrix[rank[index[keep]]], keep, self.split)


#: Constraint matrices may be dense arrays or any scipy.sparse matrix.
Matrix = Union[np.ndarray, sp.spmatrix]

#: Per-node ``(column lower, column upper, b_ub)`` of the fixed layout.
NodeBounds = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


@dataclass
class LinearSystem:
    """Constraint matrices in ``scipy.linprog`` form.

    ``a_ub`` / ``a_eq`` may be dense ``np.ndarray`` or ``scipy.sparse``
    matrices (HiGHS consumes either); ``integer_mask`` marks binary
    variables (``None`` normalises to all-``False`` for pure LPs).
    """

    num_vars: int
    a_ub: Optional[Matrix]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[Matrix]
    b_eq: Optional[np.ndarray]
    bounds: List[Tuple[Optional[float], Optional[float]]]
    integer_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.integer_mask is None:
            self.integer_mask = np.zeros(self.num_vars, dtype=bool)
        else:
            self.integer_mask = np.asarray(self.integer_mask, dtype=bool)
            if self.integer_mask.shape != (self.num_vars,):
                raise DomainError(
                    f"integer_mask shape {self.integer_mask.shape} != "
                    f"({self.num_vars},)"
                )


class _CooBuilder:
    """Accumulates whole layers of constraint rows as COO triplets.

    Chunks arrive with *local* row indices (0-based within the chunk);
    :meth:`matrices` shifts them into place and collapses everything into
    one CSR matrix -- no dense intermediates at any point.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.num_rows = 0
        self._rows: List[np.ndarray] = []
        self._cols: List[np.ndarray] = []
        self._data: List[np.ndarray] = []
        self._rhs: List[np.ndarray] = []

    def add_chunk(self, local_rows: np.ndarray, cols: np.ndarray,
                  data: np.ndarray, rhs: np.ndarray) -> int:
        """Append ``rhs.size`` rows; returns the global index of the first."""
        start = self.num_rows
        rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
        self._rows.append(np.asarray(local_rows, dtype=np.int64) + start)
        self._cols.append(np.asarray(cols, dtype=np.int64))
        self._data.append(np.asarray(data, dtype=np.float64))
        self._rhs.append(rhs)
        self.num_rows += rhs.size
        return start

    def matrices(self) -> Tuple[Optional[sp.csr_matrix], Optional[np.ndarray]]:
        if self.num_rows == 0:
            return None, None
        rows = np.concatenate(self._rows) if self._rows else np.empty(0, np.int64)
        cols = np.concatenate(self._cols) if self._cols else np.empty(0, np.int64)
        data = np.concatenate(self._data) if self._data else np.empty(0)
        keep = data != 0.0  # drop explicit zeros; empty rows keep their slot
        matrix = sp.coo_matrix(
            (data[keep], (rows[keep], cols[keep])),
            shape=(self.num_rows, self.num_vars),
        ).tocsr()
        return matrix, np.concatenate(self._rhs)


@dataclass
class _LPBase:
    """The phase-free fixed node layout, assembled once per encoding.

    ``b_ub`` ends with the two ``+inf`` phase rows of every unstable
    neuron.  Per phase-matrix column (one per neuron, block order):
    ``phase_row`` is the index of an unstable neuron's first phase row
    (-1 for other neurons), ``tri_row``/``tri_rhs`` the index and
    right-hand side of its triangle-hull row ``a - lam*z <= (slope -
    lam)*l`` (-1 and 0 for other neurons), and ``contradicts`` is the
    phase that contradicts a stable activation neuron's stability (0 for
    others).
    ``a_ub_t``/``a_eq_t`` are the matrices' transposes as CSR with sorted
    indices, built on first use: ``(a_t @ m.T).T`` is bitwise ``m @ a``
    (each entry sums its terms in the same column order) without a
    transpose per product.
    """

    a_eq: Optional[sp.csr_matrix]
    b_eq: Optional[np.ndarray]
    a_ub: Optional[sp.csr_matrix]
    b_ub: Optional[np.ndarray]
    col_lo: np.ndarray
    col_hi: np.ndarray
    phase_row: np.ndarray
    tri_row: np.ndarray
    tri_rhs: np.ndarray
    contradicts: np.ndarray

    # Concurrent first uses may both build one; either result is the same.
    @cached_property
    def a_ub_t(self) -> Optional[sp.csr_matrix]:
        return _csr_transpose(self.a_ub)

    @cached_property
    def a_eq_t(self) -> Optional[sp.csr_matrix]:
        return _csr_transpose(self.a_eq)


def _csr_transpose(matrix: Optional[sp.csr_matrix]
                   ) -> Optional[sp.csr_matrix]:
    if matrix is None:
        return None
    transposed = matrix.T.tocsr()
    transposed.sort_indices()
    return transposed


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.where(mask, a, b)`` for float64 ``a``, ``b`` of ``mask``'s
    shape, as a branch-free bit select: ``np.where`` branches per element,
    which costs several multiplies' time on a random mask such as the sign
    pattern of reduced costs."""
    pick = mask.astype(np.uint64)
    np.negative(pick, out=pick)  # 0 -> no bits, 1 -> all bits
    b_bits = b.view(np.uint64)
    return (b_bits ^ ((b_bits ^ a.view(np.uint64)) & pick)).view(np.float64)


def _bounds_list(lo: np.ndarray, hi: np.ndarray
                 ) -> List[Tuple[Optional[float], Optional[float]]]:
    """``linprog``-style bounds: ``None`` for an infinite side."""
    return [(None if l == -np.inf else float(l), None if h == np.inf else float(h))
            for l, h in zip(lo.tolist(), hi.tolist())]


# --------------------------------------------------------------------------
# Encoding cache (proof-reuse substrate: same (weights, box) => same system)
# --------------------------------------------------------------------------
# guarded-by: _ENCODING_CACHE_LOCK
_ENCODING_CACHE: "OrderedDict[tuple, NetworkEncoding]" = OrderedDict()
_ENCODING_CACHE_LOCK = threading.Lock()
_ENCODING_CACHE_SIZE = 32
_ENCODING_CACHE_STATS = {"hits": 0, "misses": 0}  # guarded-by: _ENCODING_CACHE_LOCK
#: Guards the class-level construction counter (``NetworkEncoding.builds``):
#: ``+=`` on an attribute is not atomic in CPython, and encodings are
#: constructed from worker threads by the parallel proposition checks.
_BUILDS_LOCK = threading.Lock()


def _network_fingerprint(network: Network) -> bytes:
    """Digest of the architecture and every parameter value.

    Content-addressed (not ``id``-based) so in-place weight mutation can
    never serve a stale encoding, and structurally-equal subnetwork copies
    share one cache entry."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(network.input_dim).encode())
    for block in network.blocks():
        digest.update(np.ascontiguousarray(block.dense.weight).tobytes())
        digest.update(np.ascontiguousarray(block.dense.bias).tobytes())
        act = block.activation
        digest.update(type(act).__name__.encode())
        alpha = getattr(act, "alpha", None)
        if alpha is not None:
            digest.update(np.float64(alpha).tobytes())
    return digest.digest()


def encoding_cache_stats() -> Dict[str, int]:
    """Snapshot of :meth:`NetworkEncoding.for_problem` cache hits/misses."""
    with _ENCODING_CACHE_LOCK:
        return dict(_ENCODING_CACHE_STATS)


def clear_encoding_cache() -> None:
    """Drop all memoised encodings (test isolation hook)."""
    with _ENCODING_CACHE_LOCK:
        _ENCODING_CACHE.clear()


class NetworkEncoding:
    """Reusable encoding context for one ``(network, input_box)`` pair."""

    #: Total constructions process-wide (regression hook: one per solve).
    builds = 0

    def __init__(self, network: Network, input_box: Box,
                 pre_boxes: Optional[Sequence[Box]] = None):
        if input_box.dim != network.input_dim:
            raise DomainError(
                f"input box dim {input_box.dim} != network input {network.input_dim}"
            )
        self.network = network
        self.input_box = input_box
        for block in network.blocks():
            act = block.activation
            if act is not None and not isinstance(act, (ReLU, LeakyReLU)):
                raise UnsupportedLayerError(
                    f"exact encodings require piecewise-linear activations, "
                    f"found {type(act).__name__}"
                )
        if pre_boxes is None:
            pre_boxes = SymbolicPropagator().preactivation_boxes(network, input_box)
        self.pre_boxes: List[Box] = list(pre_boxes)
        if len(self.pre_boxes) != network.num_blocks:
            raise DomainError("need one pre-activation box per block")
        self._layout()
        self._base: Optional[_LPBase] = None
        #: One encoding is shared read-only by every concurrent node solve
        #: of the parallel frontier search; this lock makes the lazy base
        #: assembly happen exactly once (no duplicated work, no torn reads)
        #: and keeps the instrumentation counters exact under threads.
        self._base_lock = threading.Lock()
        #: Instrumentation: base assemblies / :meth:`build_lp` calls.
        self.base_builds = 0
        self.lp_builds = 0
        with _BUILDS_LOCK:
            NetworkEncoding.builds += 1

    # ------------------------------------------------------------- memoisation
    @classmethod
    def for_problem(cls, network: Network, input_box: Box) -> "NetworkEncoding":
        """Memoised encoding for ``(network, input_box)``.

        Keyed by a content fingerprint of the weights plus the box bounds:
        re-proving the same problem (different thresholds, different phase
        sets, warm-started certificates) reuses both the symbolic
        pre-activation propagation and the sparse base system.  Bounded LRU;
        thread-safe for the parallel proposition checks.
        """
        key = (
            _network_fingerprint(network),
            input_box.lower.tobytes(),
            input_box.upper.tobytes(),
        )
        with _ENCODING_CACHE_LOCK:
            cached = _ENCODING_CACHE.get(key)
            if cached is not None:
                _ENCODING_CACHE.move_to_end(key)
                _ENCODING_CACHE_STATS["hits"] += 1
                return cached
        encoding = cls(network, input_box)  # built outside the lock
        with _ENCODING_CACHE_LOCK:
            # Double-checked: a concurrent first-caller may have finished
            # first; keep its object so callers share one base per key.
            existing = _ENCODING_CACHE.get(key)
            if existing is not None:
                _ENCODING_CACHE.move_to_end(key)
                _ENCODING_CACHE_STATS["hits"] += 1
                return existing
            _ENCODING_CACHE_STATS["misses"] += 1
            _ENCODING_CACHE[key] = encoding
            while len(_ENCODING_CACHE) > _ENCODING_CACHE_SIZE:
                _ENCODING_CACHE.popitem(last=False)
        return encoding

    # ---------------------------------------------------------------- layout
    def _layout(self) -> None:
        net = self.network
        self.input_slice = slice(0, net.input_dim)
        cursor = net.input_dim
        self.z_slices: List[slice] = []
        self.a_slices: List[slice] = []
        for block in net.blocks():
            d = block.out_dim
            self.z_slices.append(slice(cursor, cursor + d))
            cursor += d
            if block.activation is not None:
                self.a_slices.append(slice(cursor, cursor + d))
                cursor += d
            else:
                # Linear block: post-activation is the pre-activation.
                self.a_slices.append(self.z_slices[-1])
        self.num_continuous = cursor
        #: Every block's ``z`` columns, in block order -- the LP column of
        #: each phase-matrix column -- and the blocks' neuron counts.
        self._z_cols = np.concatenate(
            [np.arange(sl.start, sl.stop) for sl in self.z_slices])
        #: Per phase-matrix column: its ``a`` column and activation slope
        #: (the identity's 1 on linear blocks), so ``a - act(z)`` at an LP
        #: point is one vectorised expression.
        self._a_cols = np.concatenate(
            [np.arange(sl.start, sl.stop) for sl in self.a_slices])
        self._slopes = np.concatenate(
            [np.full(block.out_dim, 1.0 if block.activation is None
                     else self._block_slope(block.activation))
             for block in net.blocks()])
        self.phase_widths = [sl.stop - sl.start for sl in self.z_slices]

    @property
    def output_slice(self) -> slice:
        """Variables holding the network output."""
        return self.a_slices[-1]

    def output_objective(self, c: np.ndarray, num_vars: Optional[int] = None) -> np.ndarray:
        """Dense objective vector selecting ``c @ output``."""
        c = np.asarray(c, dtype=np.float64).reshape(-1)
        out = self.output_slice
        if c.size != out.stop - out.start:
            raise DomainError(
                f"objective dim {c.size} != output dim {out.stop - out.start}"
            )
        vec = np.zeros(num_vars if num_vars is not None else self.num_continuous)
        vec[out] = c
        return vec

    # ----------------------------------------------------------- neuron info
    def neuron_stability(self, block: int, neuron: int) -> str:
        """``"active"``, ``"inactive"`` or ``"unstable"`` from static bounds."""
        l = self.pre_boxes[block].lower[neuron]
        u = self.pre_boxes[block].upper[neuron]
        if l >= 0.0:
            return "active"
        if u <= 0.0:
            return "inactive"
        return "unstable"

    def _stability_masks(self, block: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised ``(active, inactive, unstable)`` masks for one block."""
        lower = self.pre_boxes[block].lower
        upper = self.pre_boxes[block].upper
        active = lower >= 0.0
        inactive = ~active & (upper <= 0.0)
        return active, inactive, ~active & ~inactive

    def unstable_neurons(self) -> List[Tuple[int, int]]:
        """All statically-unstable ``(block, neuron)`` pairs with activations."""
        pairs = []
        for k, block in enumerate(self.network.blocks()):
            if block.activation is None:
                continue
            _, __, unstable = self._stability_masks(k)
            pairs.extend((k, int(i)) for i in np.flatnonzero(unstable))
        return pairs

    @staticmethod
    def _block_slope(act) -> float:
        return 0.0 if isinstance(act, ReLU) else act.alpha

    # ------------------------------------------------------------- LP builder
    def build_lp(self, fixed_phases: Optional[PhaseMap] = None,
                 tight_pre: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
                 ) -> LinearSystem:
        """Triangle-relaxation LP of one branch-and-bound node.

        ``fixed_phases`` forces unstable neurons into one linear piece --
        exactly the branching step of ReLU branch-and-bound.  The LP is a
        sound relaxation: every real execution of the network (consistent
        with the fixed phases) satisfies all constraints.

        Every node shares the fixed layout of the module docstring: the
        matrices are the encoding's one base, and only ``b_ub`` and the
        variable bounds vary (:meth:`node_bounds`).  Unfixed phase rows
        carry ``b_ub = +inf``.

        ``tight_pre`` optionally supplies per-block ``(lower, upper)``
        pre-activation vectors valid on this node's region (e.g. the
        batched phase-clamped interval pass); they become bounds on the
        ``z`` variables, tightening the relaxation without extra rows.
        """
        base = self._lp_base()
        lo, hi, b_ub = self.node_bounds(fixed_phases, tight_pre)
        with self._base_lock:
            self.lp_builds += 1
        return LinearSystem(self.num_continuous, base.a_ub, b_ub, base.a_eq,
                            base.b_eq, _bounds_list(lo, hi))

    def node_bounds(self, fixed_phases=None, tight_pre=None) -> NodeBounds:
        """``(column lower, column upper, b_ub)`` of node LPs.

        A batch: ``fixed_phases`` is an ``(N, W)`` phase matrix (or a
        sequence of N phase maps, converted by :func:`phase_matrix`) and
        ``tight_pre`` the ``(pre_lo, pre_hi)`` pair of per-block ``(N,
        d_k)`` arrays that :func:`~repro.domains.batch.
        phase_clamped_node_bounds` returns; the result is ``(N, n)``,
        ``(N, n)`` and ``(N, m_ub)``.  One node -- a phase map, one phase
        row, or ``None`` with ``tight_pre`` as per-block ``(lower,
        upper)`` vectors -- is the batch's N=1 case and gives 1-D arrays.

        Fixing a phase only moves bounds: the neuron's ``z`` column gets
        its sign bound and one of its two phase rows gets right-hand side
        0.  A phase that *contradicts* the static stability (``-1`` on an
        always-active neuron, ``+1`` on an always-inactive one) names an
        empty branch region: the ``z`` column of the node's first such
        neuron gets the empty interval ``[1, -1]``, so the node is
        infeasible without a solve instead of silently dropping the
        constraint.
        """
        if fixed_phases is None:
            fixed_phases = {}
        row = isinstance(fixed_phases, np.ndarray) and fixed_phases.ndim == 1
        single = row or isinstance(fixed_phases, dict)
        phases = as_phase_matrix(
            fixed_phases[None] if row else
            [fixed_phases] if single else fixed_phases, self.phase_widths)
        base = self._lp_base()
        count = len(phases)
        lo = base.col_lo[None].repeat(count, 0)
        hi = base.col_hi[None].repeat(count, 0)
        b_ub = None if base.b_ub is None else base.b_ub[None].repeat(count, 0)
        zc = self._z_cols
        if tight_pre is not None and count:
            pre_lo, pre_hi = zip(*tight_pre) if single else tight_pre
            lead = () if single else (count,)
            shapes = [lead + (size,) for size in self.phase_widths]
            if [np.shape(x) for x in pre_lo] != shapes or \
                    [np.shape(x) for x in pre_hi] != shapes:
                raise DomainError(
                    f"tight_pre needs per-block (lower, upper) bounds of "
                    f"shapes {shapes}, got {[np.shape(x) for x in pre_lo]}")
            lower = np.concatenate(pre_lo, axis=-1)
            upper = np.concatenate(pre_hi, axis=-1)
            # Non-finite entries (nan fails both tests) keep the base bound.
            lo[:, zc] = np.maximum(
                base.col_lo[zc], np.where(lower < np.inf, lower, -np.inf))
            hi[:, zc] = np.minimum(
                base.col_hi[zc], np.where(upper > -np.inf, upper, np.inf))
        # Every fixed neuron at once, as (node, column) pairs addressed by
        # flat index: an unstable neuron's phase row opens and only a
        # strictly wrong-signed bound of its z column moves, so a -0.0
        # keeps its sign.
        values = np.ravel(phases)
        flat = np.flatnonzero(values)
        if flat.size:
            r, c = np.divmod(flat, phases.shape[1])
            v = values[flat]
            z = r * lo.shape[1] + self._z_cols[c]
            row = base.phase_row[c]
            free = row >= 0
            down = v < 0
            if b_ub is not None:
                b_ub.reshape(-1)[(r * b_ub.shape[1] + row + down)[free]] = 0.0
            lo_flat, hi_flat = lo.reshape(-1), hi.reshape(-1)
            at = z[free & ~down]
            bound = lo_flat[at]
            lo_flat[at] = np.where(bound < 0.0, 0.0, bound)
            at = z[free & down]
            bound = hi_flat[at]
            hi_flat[at] = np.where(bound > 0.0, 0.0, bound)
            # Stable neurons already carry their piece's equality; only the
            # opposite phase (an empty region) moves bounds, on the node's
            # first such column (pairs come in row-major order).
            wrong = np.flatnonzero(v == base.contradicts[c])
            if wrong.size:
                at = z[wrong[np.unique(r[wrong], return_index=True)[1]]]
                lo_flat[at], hi_flat[at] = 1.0, -1.0
        if single:
            return lo[0], hi[0], None if b_ub is None else b_ub[0]
        return lo, hi, b_ub

    def dual_rows(self) -> Tuple[int, int]:
        """``(m_ub, m_eq)``: the node layout's row counts, i.e. the sizes a
        node's multipliers ``(lambda, mu)`` must have."""
        base = self._lp_base()
        return (0 if base.b_ub is None else base.b_ub.size,
                0 if base.b_eq is None else base.b_eq.size)

    def lagrangian_uppers(self, cost: np.ndarray, phases,
                          pre_lo: Sequence[np.ndarray],
                          pre_hi: Sequence[np.ndarray],
                          duals: PackedDuals) -> np.ndarray:
        """Weak-duality upper bounds on the maxima of ``-cost @ x`` over
        the N nodes of the phase matrix ``phases``, from any multipliers
        ``duals[j] = (lambda, mu)``.

        For the node LP ``min cost @ x  s.t.  A_ub x <= b_ub, A_eq x =
        b_eq, l <= x <= u`` and any ``lambda >= 0``, ``mu``::

            max -cost @ x <= lambda @ b_ub + mu @ b_eq - min_{l<=x<=u} g @ x,
            g = cost + lambda @ A_ub + mu @ A_eq

        with the box minimum in closed form.  Every node shares the base
        matrices, so ``g`` is one sparse product for the whole batch, and
        only the multipliers come from outside.  ``pre_lo``/``pre_hi``
        (per-block ``(N, d_k)`` pre-activation bounds, as the
        phase-clamped screen returns) make each variable box finite: the
        node's columns already bound ``x`` by the input box and ``z`` by
        these bounds, and each ``a`` column is cut to its ``z`` interval's
        image, so the box minimum stays finite when reduced costs drift
        off zero.

        ``lambda`` is clipped to ``>= 0`` and is 0 on rows whose ``b_ub``
        is ``+inf`` (unfixed phase rows; else ``0 * inf = nan``).  A node
        whose multipliers are missing or non-finite, or whose bound is not
        finite, gets ``+inf`` -- that node alone; multipliers not shaped
        for this layout (``split``/width) give every node ``+inf``.

        The pass builds no operator per call (the base's transposed
        matrices serve every batch) and reads the packed multipliers in
        place when every node has a usable row.  Each entry still takes
        the float64 operations of the formula above in the same order, so
        a rewrite here must keep the bounds bitwise (the reference in
        ``tests/test_lagrangian.py``).
        """
        count = len(phases)
        if len(duals) != count:
            raise DomainError(f"{len(duals)} dual entries for {count} nodes")
        if count == 0:
            return np.empty(0)
        base = self._lp_base()
        box_lo, box_hi, b_ub = self.node_bounds(phases, (pre_lo, pre_hi))
        for k, block in enumerate(self.network.blocks()):
            if block.activation is not None:
                s = self._block_slope(block.activation)
                zl, zu, a = pre_lo[k], pre_hi[k], self.a_slices[k]
                lo_a, hi_a = box_lo[:, a], box_hi[:, a]
                # y = max(z, s*z) is nondecreasing for s in [0, 1].
                np.maximum(np.maximum(zl, s * zl), lo_a, out=lo_a)
                np.minimum(np.maximum(zu, s * zu), hi_a, out=hi_a)

        m_ub, m_eq = self.dual_rows()
        rows = duals.matrix
        at = np.empty(0, dtype=np.intp)
        if duals.fits((m_ub, m_eq)):
            finite = np.isfinite(rows).all(axis=1)
            at = np.flatnonzero(duals.present)[finite]
        valid = np.zeros(count, dtype=bool)
        valid[at] = True
        if at.size == count:  # every node present: row j is node j's
            lam, mu = rows[:, :m_ub], rows[:, m_ub:]
        else:
            lam, mu = np.zeros((count, m_ub)), np.zeros((count, m_eq))
            if at.size:
                lam[at], mu[at] = rows[finite, :m_ub], rows[finite, m_ub:]
        g = np.asarray(cost, dtype=np.float64)
        rhs = np.zeros(count)
        if m_ub:
            lam = np.maximum(lam, 0.0)
            unbounded = ~np.isfinite(b_ub)
            lam[unbounded] = 0.0
            b_ub[unbounded] = 0.0
            g = g + (base.a_ub_t @ lam.T).T
            rhs += np.einsum("ij,ij->i", lam, b_ub)
        if m_eq:
            mu = np.ascontiguousarray(mu)
            g = g + (base.a_eq_t @ mu.T).T
            rhs += mu @ base.b_eq
        with np.errstate(invalid="ignore", over="ignore"):
            # min of g @ x over the box; C order fixes the row sums' order.
            term = np.multiply(g, _select(g > 0, box_lo, box_hi), order="C")
            bound = rhs - term.sum(axis=1)
        valid &= np.isfinite(term).all(axis=1) & np.isfinite(bound)
        return np.where(valid, bound, np.inf)

    def solve_node(self, cost: np.ndarray, fixed_phases,
                   tight_pre: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
                   basis=None, label: str = "") -> LPResult:
        """Solve one node LP (``min cost @ x``; the node a phase map or
        one phase row, see :meth:`node_bounds`) on the calling thread's
        persistent HiGHS kernel (:func:`repro.exact.highs.kernel_for`),
        hot-started from a parent's ``basis`` when given.  A solve
        depends only on the node and ``basis``, never on which thread's
        kernel ran it.
        """
        col_lo, col_hi, b_ub = self.node_bounds(fixed_phases, tight_pre)
        return kernel_for(self).solve(cost, col_lo, col_hi, b_ub, basis=basis,
                                      label=label)

    # ------------------------------------------------------ fixed base layout
    def _lp_base(self) -> _LPBase:
        """The cached phase-free sparse system (assembled exactly once,
        also under concurrent first use -- see ``_base_lock``)."""
        base = self._base
        if base is None:
            with self._base_lock:
                base = self._base
                if base is None:
                    base = self._assemble_base()
                    self.base_builds += 1
                    self._base = base
        return base

    def _init_bounds(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh ``(lower, upper)`` columns: input box, everything else free."""
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
        lo[self.input_slice] = self.input_box.lower
        hi[self.input_slice] = self.input_box.upper
        return lo, hi

    def _emit_affine_rows(self, eq: _CooBuilder, k: int, prev_a: slice) -> None:
        """``z_k = W a_{k-1} + b`` for one whole block: the identity
        diagonal plus every (structurally nonzero) weight entry."""
        block = self.network.block(k)
        w, b = block.dense.weight, block.dense.bias
        out_dim = block.out_dim
        w_rows, w_cols = np.nonzero(w)
        eq.add_chunk(
            np.concatenate([np.arange(out_dim), w_rows]),
            np.concatenate([self.z_slices[k].start + np.arange(out_dim),
                            prev_a.start + w_cols]),
            np.concatenate([np.ones(out_dim), -w[w_rows, w_cols]]),
            b,
        )

    def _emit_stable_rows(self, eq: _CooBuilder, k: int, stable: np.ndarray,
                          active: np.ndarray, slope: float) -> None:
        """``a = z`` (active) or ``a = slope * z`` (inactive), stacked."""
        if not stable.size:
            return
        z0, a0 = self.z_slices[k].start, self.a_slices[k].start
        coeff = np.where(active[stable], 1.0, slope)
        m = stable.size
        eq.add_chunk(
            np.concatenate([np.arange(m), np.arange(m)]),
            np.concatenate([a0 + stable, z0 + stable]),
            np.concatenate([np.ones(m), -coeff]),
            np.zeros(m),
        )

    @staticmethod
    def _unstable_a_bounds(slope: float, l: np.ndarray,
                           u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Post-activation variable bounds of unstable neurons."""
        return np.minimum(0.0, slope * l), np.maximum(u, 0.0)

    def _assemble_base(self) -> _LPBase:
        n = self.num_continuous
        eq = _CooBuilder(n)
        ub = _CooBuilder(n)
        lo, hi = self._init_bounds(n)
        phase_z: List[np.ndarray] = []
        phase_a: List[np.ndarray] = []
        phase_slope: List[np.ndarray] = []
        phase_cols: List[np.ndarray] = []
        offsets = np.concatenate([[0], np.cumsum(self.phase_widths)])
        contradicts = np.zeros(offsets[-1], dtype=np.int8)
        tri_row = np.full(offsets[-1], -1, dtype=np.int64)
        tri_rhs = np.zeros(offsets[-1])

        prev_a = self.input_slice
        for k, block in enumerate(self.network.blocks()):
            z_sl, a_sl = self.z_slices[k], self.a_slices[k]
            self._emit_affine_rows(eq, k, prev_a)
            act = block.activation
            if act is not None:
                slope = self._block_slope(act)
                pre = self.pre_boxes[k]
                active, inactive, unstable = self._stability_masks(k)
                z0, a0 = z_sl.start, a_sl.start
                stable = np.flatnonzero(~unstable)
                self._emit_stable_rows(eq, k, stable, active, slope)
                contradicts[offsets[k] + stable] = np.where(active[stable],
                                                            -1, 1)
                free = np.flatnonzero(unstable)
                if free.size:
                    l = pre.lower[free]
                    u = pre.upper[free]
                    lam = (u - slope * l) / (u - l)
                    m = free.size
                    zi = z0 + free
                    ai = a0 + free
                    triple = 3 * np.arange(m)
                    # r0: z - a <= 0; r1: slope*z - a <= 0;
                    # r2: a - lam*z <= slope*l - lam*l  (triangle hull).
                    rows = np.concatenate([
                        triple, triple,
                        triple + 1, triple + 1,
                        triple + 2, triple + 2,
                    ])
                    cols = np.concatenate([zi, ai, zi, ai, ai, zi])
                    data = np.concatenate([
                        np.ones(m), -np.ones(m),
                        np.full(m, slope), -np.ones(m),
                        np.ones(m), -lam,
                    ])
                    rhs = np.zeros(3 * m)
                    rhs[2::3] = (slope - lam) * l
                    start = ub.add_chunk(rows, cols, data, rhs)
                    tri_row[offsets[k] + free] = start + triple + 2
                    tri_rhs[offsets[k] + free] = rhs[2::3]
                    lo[ai], hi[ai] = self._unstable_a_bounds(slope, l, u)
                    phase_z.append(zi)
                    phase_a.append(ai)
                    phase_slope.append(np.full(m, slope))
                    phase_cols.append(offsets[k] + free)
            prev_a = a_sl

        phase_row = np.full(offsets[-1], -1, dtype=np.int64)
        if phase_cols:
            zi = np.concatenate(phase_z)
            ai = np.concatenate(phase_a)
            slopes = np.concatenate(phase_slope)
            pair = 2 * np.arange(zi.size)
            # p0: a - z <= +inf; p1: a - slope*z <= +inf (vacuous until a
            # branch fixes the phase and sets the bound to 0).
            start = ub.add_chunk(
                np.concatenate([pair, pair, pair + 1, pair + 1]),
                np.concatenate([ai, zi, ai, zi]),
                np.concatenate([np.ones(zi.size), -np.ones(zi.size),
                                np.ones(zi.size), -slopes]),
                np.full(2 * zi.size, np.inf))
            phase_row[np.concatenate(phase_cols)] = \
                start + 2 * np.arange(zi.size)

        a_eq, b_eq = eq.matrices()
        a_ub, b_ub = ub.matrices()
        return _LPBase(a_eq, b_eq, a_ub, b_ub, lo, hi, phase_row, tri_row,
                       tri_rhs, contradicts)

    # ----------------------------------------------------------- MILP builder
    def build_milp(self) -> LinearSystem:
        """Exact big-M MILP encoding (one binary per unstable neuron).

        For an unstable ReLU neuron with pre-activation bounds ``[l, u]``::

            a >= z,  a >= slope*z,
            a <= slope*z + (1 - slope)*u*delta,
            a <= z - (1 - slope)*l*(1 - delta),       delta in {0, 1}

        ``delta = 1`` forces the active piece (``a = z``), ``delta = 0`` the
        negative-side piece (``a = slope*z``) -- the classic big-M encoding
        of the paper's Equation 2 with ``l``/``u`` as the big-M constants,
        emitted whole layers at a time as CSR triplets.
        """
        unstable = self.unstable_neurons()
        n = self.num_continuous + len(unstable)
        delta_index = {pair: self.num_continuous + j
                       for j, pair in enumerate(unstable)}

        eq = _CooBuilder(n)
        ub = _CooBuilder(n)
        lo, hi = self._init_bounds(n)
        lo[self.num_continuous:] = 0.0
        hi[self.num_continuous:] = 1.0

        prev_a = self.input_slice
        for k, block in enumerate(self.network.blocks()):
            z_sl, a_sl = self.z_slices[k], self.a_slices[k]
            self._emit_affine_rows(eq, k, prev_a)
            act = block.activation
            if act is not None:
                slope = self._block_slope(act)
                pre = self.pre_boxes[k]
                active, inactive, unstable_mask = self._stability_masks(k)
                z0, a0 = z_sl.start, a_sl.start
                self._emit_stable_rows(eq, k, np.flatnonzero(~unstable_mask),
                                       active, slope)
                free = np.flatnonzero(unstable_mask)
                if free.size:
                    l = pre.lower[free]
                    u = pre.upper[free]
                    m = free.size
                    zi = z0 + free
                    ai = a0 + free
                    di = np.array([delta_index[(k, int(i))] for i in free])
                    quad = 4 * np.arange(m)
                    # r0: z - a <= 0
                    # r1: slope*z - a <= 0
                    # r2: a - slope*z - (1-slope)*u*delta <= 0
                    # r3: a - z - (1-slope)*l*delta <= -(1-slope)*l
                    rows = np.concatenate([
                        quad, quad,
                        quad + 1, quad + 1,
                        quad + 2, quad + 2, quad + 2,
                        quad + 3, quad + 3, quad + 3,
                    ])
                    cols = np.concatenate([
                        zi, ai,
                        zi, ai,
                        ai, zi, di,
                        ai, zi, di,
                    ])
                    data = np.concatenate([
                        np.ones(m), -np.ones(m),
                        np.full(m, slope), -np.ones(m),
                        np.ones(m), np.full(m, -slope), -(1 - slope) * u,
                        np.ones(m), -np.ones(m), -(1 - slope) * l,
                    ])
                    rhs = np.zeros(4 * m)
                    rhs[3::4] = -(1 - slope) * l
                    ub.add_chunk(rows, cols, data, rhs)
                    lo[ai], hi[ai] = self._unstable_a_bounds(slope, l, u)
            prev_a = a_sl

        a_eq, b_eq = eq.matrices()
        a_ub, b_ub = ub.matrices()
        integer_mask = np.zeros(n, dtype=bool)
        integer_mask[self.num_continuous:] = True
        return LinearSystem(n, a_ub, b_ub, a_eq, b_eq, _bounds_list(lo, hi),
                            integer_mask)
