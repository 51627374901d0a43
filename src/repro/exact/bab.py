"""ReLU-phase branch and bound: exact optimisation over network outputs.

The workhorse of every "exact local check" in the paper: maximise a linear
function of a (sub)network's output over a box of inputs.  Each node of the
search tree is a partial phase assignment for statically-unstable neurons;
its LP relaxation (triangle hull for still-free neurons) yields an upper
bound, and forward-evaluating the relaxation's input point yields a feasible
lower bound (incumbent).  The method is sound and complete for ReLU /
LeakyReLU networks.  The search loop itself -- synchronous rounds of
batched screens and node LPs, shared by the threshold searches of one
check (:meth:`BaBSolver.maximize_thresholds`) -- lives in
:mod:`repro.exact.parallel_bab`.

Threshold mode makes the proposition checks cheap: when the caller only
needs to know whether ``max <= threshold`` the search stops as soon as the
global upper bound drops below (proved) or the incumbent rises above
(refuted, with a concrete counterexample input).

Branching
---------
A node splits on the free unstable neuron whose triangle-hull row
``a - lam*z <= (slope - lam)*l`` its own LP optimum leans on hardest:
among the neurons the LP point violates (``|a - act(z)| > tol``), the
largest ``lambda_r * rhs_r`` on that row ``r``, with ``lambda`` the
node LP's optimal multipliers, ties to the lowest phase-matrix column
(:meth:`BaBSolver._split_column`).  Each child replaces that hull by
one exact piece, so the row's share ``lambda_r * rhs_r`` of the LP's
dual bound estimates what the split takes off the node's bound.  This
is the LP-dual form of BaBSR (Bunel et al., "Branch and Bound for
Piecewise Linear Neural Network Verification", JMLR 2020).  When no
violated neuron has a positive score (the optimum rests on column
bounds alone), the largest violation is split instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.api.config import (
    DEFAULT_NODE_LIMIT,
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
#: Every status a :class:`BaBResult` can carry; the wire decodes no other.
BAB_STATUSES = (BAB_OPTIMAL, BAB_PROVED, BAB_REFUTED, BAB_INFEASIBLE,
                BAB_NODE_LIMIT)


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
        warm start of certificate reuse (:mod:`repro.certs.reuse`).

        ``collect_leaves`` (a caller-owned :class:`CoveringLeaves`)
        receives the phase row of every region the search *settled* --
        pruned, proven, refined to a consistent LP, or still open at early
        termination.  Together these leaves cover the entire space, so they
        form a reusable branching certificate.  The regions one batched
        screen settles arrive as one block of rows: when the whole
        warm-start batch settles on the screen, the collector receives
        ``initial_nodes`` and ``initial_duals`` themselves, with no
        per-leaf step.

        Every batch of candidate nodes -- the warm-start list and each
        round's children -- is first screened with one batched
        phase-clamped interval pass
        (:func:`~repro.domains.batch.phase_clamped_node_bounds`).
        Nodes whose region is empty, cannot beat the incumbent, or already
        proves the threshold are settled without building their LP, which
        cuts ``lp_solves`` while preserving soundness, the optimum, and the
        covering-leaves invariant.  The survivors' LPs keep the encoding's
        own pre-activation bounds: the screen only decides which nodes
        need one.

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
        open-node heap, and stops early once its dual bound falls to the
        round's bar (:mod:`repro.exact.parallel_bab`); the root and warm
        starts solve cold, to optimality.

        Every node LP returns its multipliers, and a node's own
        ``dual_ub`` chooses its split (module docstring, "Branching").
        A collector made with ``duals=True`` also receives one multiplier
        row per collected leaf, by position: the dual multipliers
        ``(dual_ub, dual_eq)`` of the leaf's own node LP (optimal, or the
        dual iterate a cut-off child stopped at), else its
        ``initial_duals`` row when it is a warm start (the multipliers a
        certificate stored for it), else none.  Those recorded rows are
        advisory: the search never reads them back; certificate recording
        stores them so future re-verifications can re-certify every leaf
        with one LP-free, batched Lagrangian evaluation
        (:mod:`repro.certs.reuse`).

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

    def maximize_thresholds(self, searches: Sequence[Tuple[np.ndarray, float]]
                            ) -> List[BaBResult]:
        """Decide ``max c @ f(x) <= threshold`` for each ``(c, threshold)``
        in order, as running each through :meth:`maximize` alone and
        stopping at the first one refuted or at its node limit would:
        the results of the searches that loop runs, bit for bit.

        The searches share frontier rounds: each round screens the
        children of every open search in one batched pass and solves their
        LPs as one batch (:mod:`repro.exact.parallel_bab`, "The searches
        of one check").  A search the loop would not have run is not
        reported, and its LPs and nodes are counted in no result.
        """
        from repro.exact.parallel_bab import maximize_thresholds

        return maximize_thresholds(self, searches)

    # ------------------------------------------------------- search pieces
    def _screen_nodes(self, phases: np.ndarray, c: np.ndarray,
                      groups: Optional[Sequence[int]] = None):
        """One batched clamped-interval pass over the candidate nodes of a
        phase matrix: ``(upper, feasible)``, each node's objective upper
        bound and whether its phase constraints leave it nonempty -- the
        stock screen of every batch the search settles.  ``c`` and
        ``groups`` are those of
        :func:`~repro.domains.batch.phase_clamped_node_bounds`: one
        objective, or one per search of a shared round."""
        upper, feasible, _, _ = phase_clamped_node_bounds(
            self.network, self.input_box, phases, c, groups)
        return upper, feasible

    def _split_column(self, x: np.ndarray, phases: np.ndarray,
                      dual_ub: Optional[np.ndarray]) -> Optional[int]:
        """The phase-matrix column a node with LP point ``x`` and row
        multipliers ``dual_ub`` splits on, or ``None`` when ``x`` is
        activation-consistent.

        Candidates are the free unstable neurons whose LP values violate
        ``a = act(z)`` by more than ``tol``.  Each scores ``dual_ub[r] *
        rhs_r`` on its triangle-hull row ``r``; the best positive score
        wins, ties to the lowest column.  When no score is positive (or
        there are no multipliers) the largest violation wins instead, ties
        again to the lowest column.
        """
        enc = self.encoding
        base = enc._lp_base()
        z = x[enc._z_cols]
        gap = np.abs(x[enc._a_cols] - np.where(z > 0, z, enc._slopes * z))
        candidates = np.flatnonzero(
            (gap > self.tol) & (phases == 0) & (base.tri_row >= 0))
        if not candidates.size:
            return None
        if dual_ub is not None:
            score = dual_ub[base.tri_row[candidates]] * \
                base.tri_rhs[candidates]
            best = int(np.argmax(score))
            if score[best] > 0.0:
                return int(candidates[best])
        return int(candidates[np.argmax(gap[candidates])])

    def minimize(self, c: np.ndarray,
                 threshold: Optional[float] = None) -> BaBResult:
        """Minimise ``c @ f(x)``; thresholds mean ``min >= threshold``."""
        neg_threshold = None if threshold is None else -float(threshold)
        res = self.maximize(-np.asarray(c, dtype=np.float64), threshold=neg_threshold)
        # ``upper_bound`` becomes a sound *lower* bound.
        return replace(res, upper_bound=-res.upper_bound,
                       incumbent=-res.incumbent)


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
