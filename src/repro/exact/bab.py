"""ReLU-phase branch and bound: exact optimisation over network outputs.

The workhorse of every "exact local check" in the paper: maximise a linear
function of a (sub)network's output over a box of inputs.  Each node of the
search tree is a partial phase assignment for statically-unstable neurons;
its LP relaxation (triangle hull for still-free neurons) yields an upper
bound, and forward-evaluating the relaxation's input point yields a feasible
lower bound (incumbent).  Branching fixes the most violated neuron's phase.
The method is sound and complete for ReLU / LeakyReLU networks.

Threshold mode makes the proposition checks cheap: when the caller only
needs to know whether ``max <= threshold`` the search stops as soon as the
global upper bound drops below (proved) or the incumbent rises above
(refuted, with a concrete counterexample input).
"""

from __future__ import annotations

import heapq
import itertools
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
    warn_legacy,
)
from repro.domains.box import Box
from repro.domains.batch import phase_clamped_node_bounds
from repro.exact.encoding import NetworkEncoding, PhaseMap
# solve_lp stays bound here: perfbench's tracer looks it up by name.
from repro.exact.lp import LP_INFEASIBLE, LP_OPTIMAL, solve_lp  # noqa: F401
from repro.nn.network import Network

__all__ = ["BaBResult", "BaBSolver", "maximize_output", "minimize_output"]

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
    search's per-round concurrency (all zero for the scalar search):
    how many synchronous rounds ran, and the largest / average number of
    node LPs solved concurrently per round.  ``workers`` is the pool
    width the solve was configured with.

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


class BaBSolver:
    """Branch-and-bound maximiser bound to one ``(network, box)`` encoding."""

    def __init__(self, network: Network, input_box: Box,
                 encoding: Optional[NetworkEncoding] = None,
                 tol: float = DEFAULT_TOL,
                 node_limit: int = DEFAULT_NODE_LIMIT,
                 interval_prune: bool = DEFAULT_INTERVAL_PRUNE,
                 node_tighten: bool = DEFAULT_NODE_TIGHTEN,
                 workers: int = DEFAULT_WORKERS,
                 frontier_width: Optional[int] = None,
                 frontier: Optional[bool] = None):
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
        #: Screen sibling/frontier nodes with batched phase-clamped interval
        #: bounds before building their LPs (see :meth:`maximize`).
        self.interval_prune = bool(interval_prune)
        #: Feed each node's batched phase-clamped pre-activation bounds into
        #: its LP as ``z``-variable bounds (a per-node presolve riding the
        #: same stacked pass as the interval screen).  Off by default: it
        #: tightens node relaxations, which can change the search trajectory
        #: relative to the plain triangle LP.
        self.node_tighten = bool(node_tighten)
        if workers < 1:
            raise SolverError(f"workers must be positive, got {workers}")
        #: Concurrency of the frontier search's per-round LP solves (see
        #: :mod:`repro.exact.parallel_bab`).  ``workers=1`` keeps the
        #: historical scalar best-first search unless ``frontier=True``
        #: forces the frontier algorithm (e.g. to benchmark its pure
        #: concurrency gain at identical trajectories).
        self.workers = int(workers)
        #: Nodes expanded per frontier round.  Deliberately *independent*
        #: of ``workers`` (defaulting to a fixed constant) so the search
        #: trajectory -- hence status and optimum -- is identical across
        #: worker counts; raise it explicitly for very wide pools.
        self.frontier_width = frontier_width
        self.frontier = self.workers > 1 if frontier is None else bool(frontier)

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
                 initial_nodes: Optional[List[PhaseMap]] = None,
                 collect_leaves: Optional[List[PhaseMap]] = None,
                 start_screen: Optional[Callable] = None,
                 collect_duals: Optional[dict] = None) -> BaBResult:
        """Maximise ``c @ f(x)`` over the input box.

        With ``threshold`` set, stops early once ``max <= threshold`` is
        proved or refuted (see module docstring).

        ``initial_nodes`` replaces the root with a caller-supplied list of
        phase maps whose regions must jointly cover the search space -- the
        warm-start mechanism of :mod:`repro.exact.incremental`.

        ``collect_leaves`` (a caller-owned list) receives the phase map of
        every region the search *settled* -- pruned, proven, refined to a
        consistent LP, or still open at early termination.  Together these
        leaves cover the entire space, so they form a reusable branching
        certificate.

        With ``interval_prune`` on (the default), every batch of candidate
        nodes -- the warm-start list and each branching's sibling pair --
        is first screened with one batched phase-clamped interval pass
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

        Node LPs run on the encoding's persistent HiGHS kernel
        (:meth:`NetworkEncoding.solve_node`): each child hot-starts from its
        parent's optimal basis, carried on the open-node heap; the root
        and warm starts solve cold.

        ``collect_duals`` (a caller-owned dict) receives the optimal dual
        multipliers ``(dual_ub, dual_eq)`` of every node LP this search
        solves, keyed by the node's canonical phase-map items.  Free for
        the solver (HiGHS computes marginals anyway) and never consulted
        by the search itself; certificate recording stores them so future
        re-verifications can re-certify every leaf with one LP-free,
        batched Lagrangian evaluation (:mod:`repro.certs.reuse`).

        With ``workers > 1`` (or ``frontier=True``) the search runs as the
        parallel frontier algorithm of :mod:`repro.exact.parallel_bab`:
        same soundness guarantees, per-round batched screening and
        concurrent node LPs on the shared pool.
        """
        if self.frontier:
            from repro.exact.parallel_bab import maximize_frontier

            return maximize_frontier(self, c, threshold=threshold,
                                     initial_nodes=initial_nodes,
                                     collect_leaves=collect_leaves,
                                     start_screen=start_screen,
                                     collect_duals=collect_duals)
        enc = self.encoding
        tol = self.tol
        objective = enc.output_objective(np.asarray(c, dtype=np.float64))
        neg_obj = -objective  # linprog minimises

        lp_solves = 0
        nodes = 0
        counter = itertools.count()
        incumbent = -np.inf
        witness: Optional[np.ndarray] = None
        c_vec = np.asarray(c, dtype=np.float64).reshape(-1)
        # Sound max over regions the interval screen settled above the
        # incumbent (threshold mode); folded into every reported bound.
        screened_bound = -np.inf

        use_screen = self.interval_prune or self.node_tighten

        def screen_nodes(phase_maps: List[PhaseMap]):
            return self._screen_nodes(phase_maps, c_vec)

        def record_leaf(phases: PhaseMap) -> None:
            if collect_leaves is not None:
                collect_leaves.append(dict(phases))

        def node_lp(phases: PhaseMap, tight_pre=None, basis=None):
            nonlocal lp_solves
            lp_solves += 1
            res = enc.solve_node(neg_obj, phases, tight_pre, basis=basis,
                                 want_duals=collect_duals is not None,
                                 label=f"node {lp_solves}")
            if collect_duals is not None and res.optimal:
                collect_duals[tuple(sorted(phases.items()))] = (
                    res.dual_ub if res.dual_ub is not None else np.zeros(0),
                    res.dual_eq if res.dual_eq is not None else np.zeros(0))
            return res

        def register_feasible(x_input: np.ndarray) -> None:
            nonlocal incumbent, witness
            value, x_clipped = self._feasible_value(c_vec, x_input)
            if value > incumbent:
                incumbent = value
                witness = x_clipped

        # Max-heap on node upper bounds (negate for heapq); each entry
        # carries its LP point and optimal basis (its children's hot start).
        heap: List[Tuple[float, int, PhaseMap, np.ndarray, object]] = []

        # Warm-start economics: how many caller-supplied starts we adopted,
        # and how many of those the float64 re-screen settled LP-free.
        nodes_reused = len(initial_nodes) if initial_nodes else 0
        lp_solves_saved = 0

        def finish(status: str, bound: float) -> BaBResult:
            # Whatever remains open is part of the covering certificate.
            for entry in heap:
                record_leaf(entry[2])
            return BaBResult(status, max(bound, screened_bound), incumbent,
                             witness, nodes, lp_solves,
                             nodes_reused=nodes_reused,
                             lp_solves_saved=lp_solves_saved)

        starts: List[PhaseMap] = (
            [dict(p) for p in initial_nodes] if initial_nodes else [{}]
        )
        start_ubs = start_feasible = start_tights = None
        if use_screen:
            start_ubs, start_feasible, start_tights = \
                (start_screen or screen_nodes)(starts)
            if self.interval_prune and threshold is not None and \
                    np.all(start_ubs <= threshold + tol):
                # The covering regions all close on the screen alone:
                # proved without a single LP.
                for start in starts:
                    record_leaf(start)
                lp_solves_saved = nodes_reused
                return BaBResult(BAB_PROVED, float(start_ubs.max()), incumbent,
                                 witness, nodes, lp_solves,
                                 nodes_reused=nodes_reused,
                                 lp_solves_saved=lp_solves_saved)
        any_feasible = False
        for j, start in enumerate(starts):
            ub_est = float(start_ubs[j]) if self.interval_prune else None
            verdict = self._screen_verdict(
                ub_est, not use_screen or bool(start_feasible[j]),
                incumbent, threshold)
            if verdict != "open":
                if verdict == "proved":  # region closed below the threshold
                    screened_bound = max(screened_bound, ub_est)
                if initial_nodes:
                    lp_solves_saved += 1
                record_leaf(start)  # empty / dominated by an earlier start
                continue
            res = node_lp(start, start_tights[j] if start_tights else None)
            if res.status == LP_INFEASIBLE:
                record_leaf(start)
                continue
            if res.status != LP_OPTIMAL:
                raise SolverError(f"start LP ended with status {res.status}")
            any_feasible = True
            register_feasible(res.x[enc.input_slice])
            heapq.heappush(heap, (res.value, next(counter), start, res.x,
                                  res.basis))
        if not any_feasible:
            if screened_bound > -np.inf:
                # Every LP-checked region was empty, but interval-screened
                # regions cover the rest below the threshold.
                return finish(BAB_PROVED, screened_bound)
            return BaBResult(BAB_INFEASIBLE, -np.inf, -np.inf, None,
                             len(starts), lp_solves,
                             nodes_reused=nodes_reused,
                             lp_solves_saved=lp_solves_saved)

        while heap:
            neg_bound, _, phases, x_lp, basis = heapq.heappop(heap)
            bound = -neg_bound
            global_bound = max(bound, incumbent)

            if threshold is not None:
                if incumbent > threshold + tol:
                    record_leaf(phases)
                    return finish(BAB_REFUTED, global_bound)
                if global_bound <= threshold + tol:
                    record_leaf(phases)
                    return finish(BAB_PROVED, global_bound)
            if bound <= incumbent + tol:
                # The best remaining node cannot beat the incumbent: optimal.
                record_leaf(phases)
                return finish(BAB_OPTIMAL, max(incumbent, bound))

            nodes += 1
            if nodes > self.node_limit:
                record_leaf(phases)
                return finish(BAB_NODE_LIMIT, global_bound)

            branch_var = self._most_violated(x_lp, phases)
            if branch_var is None:
                # LP solution is activation-consistent: bound is attained.
                register_feasible(x_lp[enc.input_slice])
                record_leaf(phases)
                continue

            children: List[PhaseMap] = []
            for phase in (1, -1):
                child: PhaseMap = dict(phases)
                child[branch_var] = phase
                children.append(child)
            child_ubs = child_feasible = child_tights = None
            if use_screen:
                # One batched pass bounds both siblings before any LP exists.
                child_ubs, child_feasible, child_tights = screen_nodes(children)
            for j, child in enumerate(children):
                ub_est = float(child_ubs[j]) if self.interval_prune else None
                verdict = self._screen_verdict(
                    ub_est, not use_screen or bool(child_feasible[j]),
                    incumbent, threshold)
                if verdict != "open":
                    if verdict == "proved":  # closed below the threshold
                        screened_bound = max(screened_bound, ub_est)
                    record_leaf(child)  # empty region / dominated bound
                    continue
                res = node_lp(child, child_tights[j] if child_tights else None,
                              basis)
                if res.status == LP_INFEASIBLE:
                    record_leaf(child)  # the region is empty: settled
                    continue
                if res.status != LP_OPTIMAL:
                    # An unbounded child relaxation can never be *settled*:
                    # silently recording it as a leaf would drop an infinite
                    # upper bound from the search (historical bug).  Node
                    # LPs over a bounded input box are bounded, so this is
                    # always a solver/encoding failure worth surfacing.
                    raise SolverError(
                        f"child LP ended with status {res.status}")
                child_bound = -res.value
                register_feasible(res.x[enc.input_slice])
                if child_bound <= incumbent + tol:
                    record_leaf(child)
                    continue
                heapq.heappush(heap, (-child_bound, next(counter), child,
                                      res.x, res.basis))

        status, bound = self._terminal_status(incumbent, screened_bound,
                                              threshold)
        return BaBResult(status, bound, incumbent, witness, nodes, lp_solves,
                         nodes_reused=nodes_reused,
                         lp_solves_saved=lp_solves_saved)

    # ------------------------------------------------- shared search pieces
    def _terminal_status(self, incumbent: float, screened_bound: float,
                         threshold: Optional[float]) -> Tuple[str, float]:
        """Resolve the verdict once no open node remains, shared by both
        searches.  Three subtle cases, in order: the incumbent can cross
        the threshold during the *last* expansion with no further pop to
        notice it (refuted, not optimal); interval-settled regions
        (threshold mode) may exceed the incumbent, so optimality is not
        established even though every region closed below the threshold;
        otherwise the incumbent is the exact optimum."""
        if threshold is not None and incumbent > threshold + self.tol:
            return BAB_REFUTED, max(incumbent, screened_bound)
        if screened_bound > incumbent + self.tol:
            return BAB_PROVED, screened_bound
        return BAB_OPTIMAL, incumbent

    def _screen_verdict(self, ub_est: Optional[float], feasible: bool,
                        incumbent: float,
                        threshold: Optional[float]) -> str:
        """Settle one screened candidate: ``"empty"`` (region infeasible),
        ``"dominated"`` (cannot beat ``incumbent``), ``"proved"`` (closed
        below ``threshold`` on intervals alone) or ``"open"`` (needs its
        LP).  The single statement of the screen-settling rules, shared by
        the scalar and frontier searches and by their start/child loops --
        callers record the leaf / fold ``ub_est`` into the screened bound
        according to the verdict."""
        if not feasible:
            return "empty"
        if self.interval_prune and ub_est is not None:
            if ub_est <= incumbent + self.tol:
                return "dominated"
            if threshold is not None and ub_est <= threshold + self.tol:
                return "proved"
        return "open"

    def _screen_nodes(self, phase_maps: List[PhaseMap], c_vec: np.ndarray):
        """One batched clamped-interval pass over candidate nodes:
        objective upper bounds (when pruning), feasibility, and -- with
        ``node_tighten`` -- per-node pre-activation tightenings.  Shared by
        the scalar search and the parallel frontier search so the settling
        rules cannot diverge between the two."""
        upper, feasible, pre_lo, pre_hi = phase_clamped_node_bounds(
            self.network, self.input_box, phase_maps,
            c_vec if self.interval_prune else None)
        tights = None
        if self.node_tighten:
            tights = [[(pre_lo[k][j], pre_hi[k][j])
                       for k in range(len(pre_lo))]
                      for j in range(len(phase_maps))]
        return upper, feasible, tights

    def _feasible_value(self, c_vec: np.ndarray,
                        x_input: np.ndarray) -> Tuple[float, np.ndarray]:
        """Clip an LP solution's input point into the box and evaluate the
        objective on the real network -- the incumbent candidate both
        searches derive from every optimal node LP."""
        x_clipped = self.input_box.clip_point(x_input)
        value = float(np.dot(c_vec, np.atleast_1d(
            self.network.forward(x_clipped))))
        return value, x_clipped

    def _most_violated(self, x: np.ndarray,
                       phases: PhaseMap) -> Optional[Tuple[int, int]]:
        """The free unstable neuron whose LP values most violate a = act(z)."""
        enc = self.encoding
        worst: Optional[Tuple[int, int]] = None
        worst_gap = self.tol
        for k, block in enumerate(self.network.blocks()):
            act = block.activation
            if act is None:
                continue
            slope = getattr(act, "alpha", 0.0)
            z = x[enc.z_slices[k]]
            a = x[enc.a_slices[k]]
            exact = np.where(z > 0, z, slope * z)
            gaps = np.abs(a - exact)
            for i in np.argsort(gaps)[::-1]:
                gap = gaps[i]
                if gap <= worst_gap:
                    break
                if (k, int(i)) in phases:
                    continue
                if enc.neuron_stability(k, int(i)) != "unstable":
                    continue
                worst = (k, int(i))
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
    """Internal one-shot maximisation (no deprecation): the engine path."""
    solver = BaBSolver.from_config(network, input_box,
                                   config or VerifyConfig())
    return solver.maximize(c, threshold=threshold)


def _minimize_output(network: Network, input_box: Box, c: np.ndarray,
                     threshold: Optional[float] = None,
                     config: Optional[VerifyConfig] = None) -> BaBResult:
    """Internal one-shot minimisation (no deprecation): the engine path."""
    solver = BaBSolver.from_config(network, input_box,
                                   config or VerifyConfig())
    return solver.minimize(c, threshold=threshold)


def maximize_output(network: Network, input_box: Box, c: np.ndarray,
                    threshold: Optional[float] = None,
                    node_limit: int = DEFAULT_NODE_LIMIT,
                    tol: float = DEFAULT_TOL,
                    interval_prune: bool = DEFAULT_INTERVAL_PRUNE,
                    workers: int = DEFAULT_WORKERS) -> BaBResult:
    """Deprecated shim: one-shot ``max c @ f(x)`` over ``input_box``.

    Use :class:`repro.api.MaximizeSpec` through the engine instead.
    """
    warn_legacy("maximize_output", "MaximizeSpec")
    from repro.api.engine import VerificationEngine
    from repro.api.specs import MaximizeSpec

    config = VerifyConfig(node_limit=node_limit, tol=tol,
                          interval_prune=interval_prune, workers=workers)
    return VerificationEngine(config).verify(
        MaximizeSpec(network=network, input_box=input_box, objective=c,
                     threshold=threshold)).result


def minimize_output(network: Network, input_box: Box, c: np.ndarray,
                    threshold: Optional[float] = None,
                    node_limit: int = DEFAULT_NODE_LIMIT,
                    tol: float = DEFAULT_TOL,
                    interval_prune: bool = DEFAULT_INTERVAL_PRUNE,
                    workers: int = DEFAULT_WORKERS) -> BaBResult:
    """Deprecated shim: one-shot ``min c @ f(x)`` over ``input_box``.

    Use :class:`repro.api.MaximizeSpec` (``minimize=True``) instead.
    """
    warn_legacy("minimize_output", "MaximizeSpec(minimize=True)")
    from repro.api.engine import VerificationEngine
    from repro.api.specs import MaximizeSpec

    config = VerifyConfig(node_limit=node_limit, tol=tol,
                          interval_prune=interval_prune, workers=workers)
    return VerificationEngine(config).verify(
        MaximizeSpec(network=network, input_box=input_box, objective=c,
                     threshold=threshold, minimize=True)).result
