"""ReLU-phase branch and bound: exact optimisation over network outputs.

The workhorse of every "exact local check" in the paper: maximise a linear
function of a (sub)network's output over a box of inputs.  Each node of the
search tree is a partial phase assignment for statically-unstable neurons;
its LP relaxation (triangle hull for still-free neurons) yields an upper
bound, and forward-evaluating the relaxation's input point yields a feasible
lower bound (incumbent).  Branching fixes the most violated neuron's phase.
The method is sound and complete for ReLU / LeakyReLU networks.  The
search loop itself -- synchronous rounds of batched screens and node LPs --
lives in :mod:`repro.exact.parallel_bab`.

Threshold mode makes the proposition checks cheap: when the caller only
needs to know whether ``max <= threshold`` the search stops as soon as the
global upper bound drops below (proved) or the incumbent rises above
(refuted, with a concrete counterexample input).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.api.config import (
    DEFAULT_INTERVAL_PRUNE,
    DEFAULT_NODE_LIMIT,
    DEFAULT_NODE_TIGHTEN,
    DEFAULT_TOL,
    DEFAULT_WORKERS,
    VerifyConfig,
)
from repro.domains.box import Box
from repro.domains.batch import phase_clamped_node_bounds
from repro.exact.encoding import NetworkEncoding, PackedDuals
# solve_lp stays bound here: perfbench's tracer looks it up by name.
from repro.exact.lp import solve_lp  # noqa: F401
from repro.nn.network import Network

__all__ = ["BaBResult", "BaBSolver", "CoveringLeaves"]

BAB_OPTIMAL = "optimal"
BAB_PROVED = "threshold_proved"     # max <= threshold established
BAB_REFUTED = "threshold_refuted"   # witness with value > threshold found
BAB_INFEASIBLE = "infeasible"
BAB_NODE_LIMIT = "node_limit"


@dataclass
class BaBResult:
    """Result of one branch-and-bound maximisation.

    ``upper_bound`` always soundly over-approximates the true maximum;
    ``incumbent`` is the best *achieved* value (at input ``witness``).
    At ``status == "optimal"`` the two coincide within tolerance.

    ``rounds`` / ``max_batch`` / ``mean_batch`` report the frontier
    search's per-round concurrency: how many synchronous rounds ran, and
    the largest / average number of node LPs solved together per round.
    ``workers`` is the pool width the solve was configured with.

    ``nodes_reused`` / ``lp_solves_saved`` report warm-start economics
    (both zero for cold solves): how many caller-supplied ``initial_nodes``
    the search adopted, and how many of those the batched float64
    re-screen settled without building their LP.  They are run
    bookkeeping, not part of the verdict value.
    """

    status: str
    upper_bound: float
    incumbent: float
    witness: Optional[np.ndarray]
    nodes: int
    lp_solves: int
    rounds: int = 0
    max_batch: int = 0
    mean_batch: float = 0.0
    workers: int = DEFAULT_WORKERS
    nodes_reused: int = 0
    lp_solves_saved: int = 0

    @property
    def optimum(self) -> float:
        """The exact maximum -- defined *only* at ``status == "optimal"``.

        Off the optimal path (``node_limit``, ``threshold_proved``,
        ``threshold_refuted``, ``infeasible``) ``upper_bound`` is merely a
        sound over-approximation, and silently returning it here has
        historically been misread as the exact value.  Raise instead;
        callers wanting the bound regardless of status read
        ``upper_bound``/``incumbent`` explicitly.
        """
        if self.status != BAB_OPTIMAL:
            raise SolverError(
                f"BaBResult.optimum is undefined at status {self.status!r}: "
                "the search did not run to optimality; use .upper_bound "
                "(sound bound) or .incumbent (best witness value) instead")
        return self.upper_bound


class CoveringLeaves:
    """The leaves one search settles, in settle order: their phase rows
    and, when collected with duals, each leaf's multipliers.

    Leaves arrive one at a time (:meth:`add`: a phase row and its
    ``(lambda, mu)`` or ``None``) or as one block (:meth:`add_block`: rows
    of a phase matrix and their :class:`PackedDuals`, as when the screen
    settles a whole warm-start batch -- no per-leaf work).  :meth:`matrix`
    and :meth:`duals` stack what arrived; multipliers not shaped for the
    encoding's node layout (:meth:`NetworkEncoding.dual_rows`) are kept as
    absent, since they bound nothing there.
    """

    def __init__(self, encoding: NetworkEncoding, duals: bool = False):
        self.width = int(sum(encoding.phase_widths))
        #: ``(m_ub, m_eq)`` of the node layout, or ``None``: no duals.
        self.dual_rows: Optional[Tuple[int, int]] = \
            encoding.dual_rows() if duals else None
        self._blocks: List[Tuple[np.ndarray, Optional[PackedDuals]]] = []
        self._rows: List[np.ndarray] = []
        self._duals: List = []

    def add(self, row: np.ndarray, dual=None) -> None:
        self._rows.append(row)
        if self.dual_rows is not None:
            self._duals.append(dual)

    def add_block(self, rows: np.ndarray,
                  duals: Optional[PackedDuals] = None) -> None:
        """Rows of a phase matrix settled together; ``duals`` (``None``:
        none) holds their multipliers by row."""
        self._flush()
        if self.dual_rows is None:
            duals = None
        elif duals is None or len(duals) != len(rows) or \
                not duals.fits(self.dual_rows):
            duals = PackedDuals.absent(len(rows), self.dual_rows)
        self._blocks.append((rows, duals))

    def _flush(self) -> None:
        if self._rows:
            rows = np.array(self._rows, dtype=np.int8).reshape(
                len(self._rows), self.width)
            duals = None if self.dual_rows is None else \
                PackedDuals.pack(self._duals, self.dual_rows)
            self._blocks.append((rows, duals))
            self._rows, self._duals = [], []

    def matrix(self) -> np.ndarray:
        """The ``(N, W)`` int8 phase matrix of every leaf (a block that
        arrived alone is returned as it is)."""
        self._flush()
        if len(self._blocks) == 1:
            return self._blocks[0][0]
        return np.concatenate([rows for rows, _ in self._blocks] or
                              [np.zeros((0, self.width), dtype=np.int8)])

    def duals(self) -> Optional[PackedDuals]:
        """Every leaf's multipliers by row, or ``None`` when not
        collected."""
        self._flush()
        if self.dual_rows is None:
            return None
        return PackedDuals.stack([duals for _, duals in self._blocks] or
                                 [PackedDuals.absent(0, self.dual_rows)])


class BaBSolver:
    """Branch-and-bound maximiser bound to one ``(network, box)`` encoding."""

    def __init__(self, network: Network, input_box: Box,
                 encoding: Optional[NetworkEncoding] = None,
                 tol: float = DEFAULT_TOL,
                 node_limit: int = DEFAULT_NODE_LIMIT,
                 interval_prune: bool = DEFAULT_INTERVAL_PRUNE,
                 node_tighten: bool = DEFAULT_NODE_TIGHTEN,
                 workers: int = DEFAULT_WORKERS):
        self.network = network
        self.input_box = input_box
        #: One encoding serves every node of every solve; when the caller
        #: does not bring their own it is pulled from the fingerprint-keyed
        #: cache, so repeated solves of the same ``(network, box)`` pair
        #: (different objectives, thresholds, warm starts) skip symbolic
        #: propagation and base assembly entirely.
        self.encoding = encoding or NetworkEncoding.for_problem(network, input_box)
        self.tol = float(tol)
        self.node_limit = int(node_limit)
        #: Screen each batch of candidate nodes with batched phase-clamped
        #: interval bounds before building their LPs (see :meth:`maximize`).
        self.interval_prune = bool(interval_prune)
        #: Feed each node's batched phase-clamped pre-activation bounds into
        #: its LP as ``z``-variable bounds (a per-node presolve riding the
        #: same stacked pass as the interval screen).  Off by default: it
        #: tightens node relaxations, which can change the search trajectory
        #: relative to the plain triangle LP.
        self.node_tighten = bool(node_tighten)
        if workers < 1:
            raise SolverError(f"workers must be positive, got {workers}")
        #: How many of a frontier round's node LPs are in flight at once
        #: (see :mod:`repro.exact.parallel_bab`).  The trajectory -- hence
        #: status and optimum -- does not depend on it.
        self.workers = int(workers)

    @classmethod
    def from_config(cls, network: Network, input_box: Box,
                    config: VerifyConfig,
                    encoding: Optional[NetworkEncoding] = None) -> "BaBSolver":
        """A solver configured from one :class:`VerifyConfig` -- the bridge
        the :mod:`repro.api` engine (and every internal caller) uses instead
        of hand-threading kwargs.  ``encoding=None`` honours the config's
        encoding-cache policy."""
        if encoding is None:
            encoding = config.encoding_for(network, input_box)
        return cls(network, input_box, encoding=encoding,
                   **config.bab_kwargs())

    # ------------------------------------------------------------------ main
    def maximize(self, c: np.ndarray,
                 threshold: Optional[float] = None,
                 initial_nodes=None,
                 collect_leaves: Optional[CoveringLeaves] = None,
                 start_screen: Optional[Callable] = None,
                 initial_duals: Optional[PackedDuals] = None) -> BaBResult:
        """Maximise ``c @ f(x)`` over the input box.

        With ``threshold`` set, stops early once ``max <= threshold`` is
        proved or refuted (see module docstring).

        Search nodes are rows of the encoding's phase matrix
        (:func:`~repro.exact.encoding.phase_matrix`): one int8 column per
        neuron, 0 free, +-1 fixed.  ``initial_nodes`` replaces the root
        with a caller-supplied ``(N, W)`` phase matrix (or list of phase
        maps) whose regions must jointly cover the search space -- the
        warm-start mechanism of :mod:`repro.exact.incremental`.

        ``collect_leaves`` (a caller-owned :class:`CoveringLeaves`)
        receives the phase row of every region the search *settled* --
        pruned, proven, refined to a consistent LP, or still open at early
        termination.  Together these leaves cover the entire space, so they
        form a reusable branching certificate.  The regions one batched
        screen settles arrive as one block of rows: when the whole
        warm-start batch settles on the screen, the collector receives
        ``initial_nodes`` and ``initial_duals`` themselves, with no
        per-leaf step.

        With ``interval_prune`` on (the default), every batch of candidate
        nodes -- the warm-start list and each round's children -- is first
        screened with one batched phase-clamped interval pass
        (:func:`~repro.domains.batch.phase_clamped_node_bounds`).
        Nodes whose region is empty, cannot beat the incumbent, or already
        proves the threshold are settled without building their LP, which
        cuts ``lp_solves`` while preserving soundness, the optimum, and the
        covering-leaves invariant.  With ``node_tighten`` on, the same pass
        additionally hands each surviving node its clamped pre-activation
        bounds, installed as ``z``-variable bounds in the node's LP.

        ``start_screen`` optionally replaces the batched screen for the
        *initial-nodes batch only* (signature and return contract of
        :meth:`_screen_nodes`): certificate reuse passes the dual-bound
        screen of :func:`repro.certs.reuse.dual_start_screen` here, which
        settles warm starts far below the interval screen's reach -- one
        :meth:`NetworkEncoding.lagrangian_uppers` evaluation over all
        stored leaves, where a bad dual row costs only its leaf an LP.
        Branching children always use the stock screen, so a custom
        screen never changes a cold search.

        Node LPs run on the encoding's persistent HiGHS kernel: a round
        gets every node's column bounds and ``b_ub`` from one
        :meth:`NetworkEncoding.node_bounds` call and solves each node on
        :func:`~repro.exact.highs.kernel_for` ``(encoding).solve``.  Each
        child hot-starts from its parent's optimal basis, carried on the
        open-node heap; the root and warm starts solve cold.

        A collector made with ``duals=True`` also receives one multiplier
        row per collected leaf, by position: the optimal dual multipliers
        ``(dual_ub, dual_eq)`` of the leaf's own node LP, else its
        ``initial_duals`` row when it is a warm start (the multipliers a
        certificate stored for it), else none.  Free for the solver (HiGHS
        computes marginals anyway) and never consulted by the search
        itself; certificate recording stores them so future
        re-verifications can re-certify every leaf with one LP-free,
        batched Lagrangian evaluation (:mod:`repro.certs.reuse`).

        The search runs in synchronous frontier rounds
        (:mod:`repro.exact.parallel_bab`): each round expands the best
        open nodes, screens all their children in one batched pass and
        solves the survivors' LPs together, ``workers`` of them in flight
        at once on the shared pool.
        """
        from repro.exact.parallel_bab import maximize_frontier

        return maximize_frontier(self, c, threshold=threshold,
                                 initial_nodes=initial_nodes,
                                 collect_leaves=collect_leaves,
                                 start_screen=start_screen,
                                 initial_duals=initial_duals)

    # ------------------------------------------------------- search pieces
    def _screen_nodes(self, phases: np.ndarray, c_vec: np.ndarray):
        """One batched clamped-interval pass over the candidate nodes of a
        phase matrix: objective upper bounds (when pruning), feasibility,
        and -- with ``node_tighten`` -- the per-block ``(pre_lo, pre_hi)``
        pre-activation tightenings: the stock screen of every batch the
        search settles."""
        upper, feasible, pre_lo, pre_hi = phase_clamped_node_bounds(
            self.network, self.input_box, phases,
            c_vec if self.interval_prune else None)
        return upper, feasible, (pre_lo, pre_hi) if self.node_tighten \
            else None

    def _most_violated(self, x: np.ndarray,
                       phases: np.ndarray) -> Optional[int]:
        """The phase-matrix column of the free unstable neuron whose LP
        values most violate a = act(z)."""
        enc = self.encoding
        phase_row = enc._lp_base().phase_row  # >= 0 exactly when unstable
        worst: Optional[int] = None
        worst_gap = self.tol
        offset = 0
        for k, block in enumerate(self.network.blocks()):
            act = block.activation
            offset += block.out_dim
            if act is None:
                continue
            start = offset - block.out_dim
            slope = getattr(act, "alpha", 0.0)
            z = x[enc.z_slices[k]]
            a = x[enc.a_slices[k]]
            exact = np.where(z > 0, z, slope * z)
            gaps = np.abs(a - exact)
            for i in np.argsort(gaps)[::-1]:
                gap = gaps[i]
                if gap <= worst_gap:
                    break
                column = start + int(i)
                if phases[column] or phase_row[column] < 0:
                    continue
                worst = column
                worst_gap = gap
                break
        return worst

    def minimize(self, c: np.ndarray,
                 threshold: Optional[float] = None) -> BaBResult:
        """Minimise ``c @ f(x)``; thresholds mean ``min >= threshold``."""
        neg_threshold = None if threshold is None else -float(threshold)
        res = self.maximize(-np.asarray(c, dtype=np.float64), threshold=neg_threshold)
        return BaBResult(
            status=res.status,
            upper_bound=-res.upper_bound,   # now a sound *lower* bound
            incumbent=-res.incumbent,
            witness=res.witness,
            nodes=res.nodes,
            lp_solves=res.lp_solves,
            rounds=res.rounds,
            max_batch=res.max_batch,
            mean_batch=res.mean_batch,
            workers=res.workers,
            nodes_reused=res.nodes_reused,
            lp_solves_saved=res.lp_solves_saved,
        )


def _maximize_output(network: Network, input_box: Box, c: np.ndarray,
                     threshold: Optional[float] = None,
                     config: Optional[VerifyConfig] = None) -> BaBResult:
    """Internal one-shot maximisation: the engine path."""
    solver = BaBSolver.from_config(network, input_box,
                                   config or VerifyConfig())
    return solver.maximize(c, threshold=threshold)


def _minimize_output(network: Network, input_box: Box, c: np.ndarray,
                     threshold: Optional[float] = None,
                     config: Optional[VerifyConfig] = None) -> BaBResult:
    """Internal one-shot minimisation: the engine path."""
    solver = BaBSolver.from_config(network, input_box,
                                   config or VerifyConfig())
    return solver.minimize(c, threshold=threshold)
