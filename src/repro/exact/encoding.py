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
(:meth:`NetworkEncoding.node_bounds`).  That is what lets
:mod:`repro.exact.highs` keep one HiGHS model per encoding and restart
each child's dual simplex from its parent's basis.  The triangle rows of
a fixed neuron stay in place: they bound the hull of both pieces, so
they are redundant but sound.

Encodings themselves are reusable across solves: :meth:`NetworkEncoding.
for_problem` memoises encodings under a ``(network-weights, box)``
fingerprint so the continuous-verification loop re-proving the same
``(network, box)`` pair with different thresholds or phase sets never
re-runs symbolic propagation or base assembly (paper Sec. VI, proof reuse).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    "LinearSystem",
    "NetworkEncoding",
    "encoding_cache_stats",
    "clear_encoding_cache",
]

#: Phase assignment for branching: ``{(block, neuron): +1 (active) | -1 (inactive)}``.
PhaseMap = Dict[Tuple[int, int], int]

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

    # ---------------------------------------------------------- introspection
    @property
    def is_sparse(self) -> bool:
        """Whether any constraint matrix is stored sparse."""
        return sp.issparse(self.a_ub) or sp.issparse(self.a_eq)

    @property
    def nnz(self) -> int:
        """Total structural nonzeros across both constraint matrices."""
        total = 0
        for matrix in (self.a_ub, self.a_eq):
            if matrix is None:
                continue
            total += matrix.nnz if sp.issparse(matrix) else int(
                np.count_nonzero(matrix))
        return total

    @property
    def num_constraints(self) -> int:
        """Total row count across both constraint groups."""
        return sum(matrix.shape[0] for matrix in (self.a_ub, self.a_eq)
                   if matrix is not None)

    # ------------------------------------------------------------- derivation
    def with_extra_ub(self, rows: np.ndarray, rhs) -> "LinearSystem":
        """New system with extra ``rows @ x <= rhs`` constraints appended,
        preserving the storage form (the sparse-safe ``np.vstack``)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if rows.shape != (rhs.size, self.num_vars):
            raise DomainError(
                f"extra rows shape {rows.shape} != ({rhs.size}, {self.num_vars})"
            )
        if self.a_ub is None:
            a_ub: Matrix = rows
            b_ub = rhs
        elif sp.issparse(self.a_ub):
            a_ub = sp.vstack([self.a_ub, sp.csr_matrix(rows)], format="csr")
            b_ub = np.concatenate([self.b_ub, rhs])
        else:
            a_ub = np.vstack([self.a_ub, rows])
            b_ub = np.concatenate([self.b_ub, rhs])
        return LinearSystem(self.num_vars, a_ub, b_ub, self.a_eq, self.b_eq,
                            list(self.bounds), self.integer_mask)


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
    neuron; ``phase_rows`` maps ``(block, neuron)`` to its ``z`` column
    and the index of its first phase row.
    """

    a_eq: Optional[sp.csr_matrix]
    b_eq: Optional[np.ndarray]
    a_ub: Optional[sp.csr_matrix]
    b_ub: Optional[np.ndarray]
    col_lo: np.ndarray
    col_hi: np.ndarray
    phase_rows: Dict[Tuple[int, int], Tuple[int, int]]


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

    def node_bounds(self, fixed_phases: Optional[PhaseMap] = None,
                    tight_pre: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
                    ) -> NodeBounds:
        """``(column lower, column upper, b_ub)`` of one node's LP.

        Fixing a phase only moves bounds: the neuron's ``z`` column gets
        its sign bound and one of its two phase rows gets right-hand side
        0.  A phase that *contradicts* the static stability (``-1`` on an
        always-active neuron, ``+1`` on an always-inactive one) names an
        empty branch region: that neuron's ``z`` column gets the empty
        interval ``[1, -1]``, so the node is infeasible without a solve
        instead of silently dropping the constraint.
        """
        base = self._lp_base()
        lo = base.col_lo.copy()
        hi = base.col_hi.copy()
        b_ub = None if base.b_ub is None else base.b_ub.copy()
        fixed_phases = fixed_phases or {}
        if tight_pre is not None:
            self._apply_tight_pre(lo, hi, tight_pre)
        for pair, phase in fixed_phases.items():
            if phase not in (1, -1):
                continue
            neuron = base.phase_rows.get(pair)
            if neuron is None:
                # Stable neurons already carry their piece's equality.
                continue
            zi, row = neuron
            if phase == 1:
                lo[zi] = max(lo[zi], 0.0)
                b_ub[row] = 0.0
            else:
                hi[zi] = min(hi[zi], 0.0)
                b_ub[row + 1] = 0.0
        contradiction = self._find_contradiction(fixed_phases)
        if contradiction is not None:
            k, i = contradiction
            zi = self.z_slices[k].start + i
            lo[zi], hi[zi] = 1.0, -1.0
        return lo, hi, b_ub

    def solve_node(self, cost: np.ndarray, fixed_phases: PhaseMap,
                   tight_pre: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
                   basis=None, want_duals: bool = False,
                   label: str = "") -> LPResult:
        """Solve one node LP (``min cost @ x``) on the calling thread's
        persistent HiGHS kernel (:func:`repro.exact.highs.kernel_for`),
        hot-started from a parent's ``basis`` when given.  A solve
        depends only on the node and ``basis``, never on which thread's
        kernel ran it.
        """
        col_lo, col_hi, b_ub = self.node_bounds(fixed_phases, tight_pre)
        return kernel_for(self).solve(cost, col_lo, col_hi, b_ub, basis=basis,
                                      want_duals=want_duals, label=label)

    def _find_contradiction(self, fixed_phases: PhaseMap
                            ) -> Optional[Tuple[int, int]]:
        """First forced phase naming an empty branch region, if any."""
        for (k, i), phase in fixed_phases.items():
            if phase not in (1, -1):
                continue
            if not 0 <= k < self.network.num_blocks:
                continue
            block = self.network.block(k)
            if block.activation is None or not 0 <= i < block.out_dim:
                continue
            stability = self.neuron_stability(k, i)
            if (phase == -1 and stability == "active") or \
                    (phase == 1 and stability == "inactive"):
                return (k, i)
        return None

    def _apply_tight_pre(self, lo: np.ndarray, hi: np.ndarray,
                         tight_pre: Sequence[Tuple[np.ndarray, np.ndarray]],
                         ) -> None:
        """Intersect the ``z`` column bounds with per-node pre-activation
        bounds (non-finite entries keep the existing bound)."""
        if len(tight_pre) != self.network.num_blocks:
            raise DomainError(
                f"tight_pre needs one (lower, upper) pair per block, got "
                f"{len(tight_pre)} for {self.network.num_blocks}"
            )
        for k, (lower, upper) in enumerate(tight_pre):
            sl = self.z_slices[k]
            lower = np.asarray(lower, dtype=np.float64).reshape(-1)
            upper = np.asarray(upper, dtype=np.float64).reshape(-1)
            if lower.size != sl.stop - sl.start:
                raise DomainError(
                    f"tight_pre block {k} has {lower.size} entries, expected "
                    f"{sl.stop - sl.start}"
                )
            lo[sl] = np.maximum(lo[sl], np.where(np.isfinite(lower), lower, -np.inf))
            hi[sl] = np.minimum(hi[sl], np.where(np.isfinite(upper), upper, np.inf))

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
        phase_pairs: List[Tuple[int, int]] = []

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
                self._emit_stable_rows(eq, k, np.flatnonzero(~unstable),
                                       active, slope)
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
                    ub.add_chunk(rows, cols, data, rhs)
                    lo[ai], hi[ai] = self._unstable_a_bounds(slope, l, u)
                    phase_z.append(zi)
                    phase_a.append(ai)
                    phase_slope.append(np.full(m, slope))
                    phase_pairs.extend((k, int(i)) for i in free)
            prev_a = a_sl

        phase_rows: Dict[Tuple[int, int], Tuple[int, int]] = {}
        if phase_pairs:
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
            phase_rows = {p: (int(z), start + 2 * j)
                          for j, (p, z) in enumerate(zip(phase_pairs, zi))}

        a_eq, b_eq = eq.matrices()
        a_ub, b_ub = ub.matrices()
        return _LPBase(a_eq, b_eq, a_ub, b_ub, lo, hi, phase_rows)

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
