"""Parallel frontier branch and bound on the shared sparse encoding.

The scalar search of :mod:`repro.exact.bab` expands one node at a time:
pop the best open node, screen its two children with a batched interval
pass, solve each surviving child's LP on the encoding's hot-started HiGHS
kernel, push.  Every stage of that loop was built batch-first
(``phase_clamped_node_bounds`` screens N regions in one pass; every node
LP shares the encoding's one fixed layout), so the search itself is the
last sequential piece.
This module removes it: the **frontier search** expands the top-K open
nodes per synchronous round and solves all surviving child LPs concurrently
on the shared worker pool of :mod:`repro.core.parallel`.

One round
---------
1. *Pop.*  Take up to ``frontier_width`` best-bound nodes off the open
   heap (stopping early when bounds fall to the incumbent).
2. *Branch.*  Each popped node contributes its two phase-split children
   (activation-consistent nodes instead register their LP point as a
   feasible incumbent and settle).
3. *Screen.*  All children of the round are screened with **one**
   :func:`~repro.domains.batch.phase_clamped_node_bounds` call: empty
   regions, incumbent-dominated regions and threshold-closed regions settle
   without an LP.
4. *Solve.*  The survivors' node LPs are submitted together to
   :func:`~repro.core.parallel.run_parallel`; each worker solves on its
   own thread's kernel for the shared encoding
   (:meth:`~repro.exact.encoding.NetworkEncoding.solve_node`),
   hot-started from the popped parent's basis, which travels with the
   node.  Idle workers
   pick up whatever task is next in the round's queue (pool-level work
   stealing), so heterogeneous node costs do not serialise the round.
5. *Fold.*  Results are folded back **in submission order** on the
   coordinating thread: incumbents update, surviving children are pushed.

Soundness
---------
The scalar invariant -- the true maximum never exceeds
``max(incumbent, screened_bound, max over open-node bounds)`` -- extends to
the frontier search with one addition: during a round, nodes that have been
popped but whose children are still being screened/solved ("in-flight"
regions) are covered by *their own* LP bounds, which are at least their
children's bounds (a child's feasible set is a subset of its parent's).
Every reported global bound is therefore taken as the max over the heap,
the bounds of the round's popped nodes, the interval-settled regions and
the incumbent -- a sound upper bound at every instant, including early
termination inside a round (node limit).  The covering-leaves invariant is
preserved the same way: every popped node either settles as a leaf or
contributes both children, each of which settles or returns to the heap.

Determinism
-----------
``frontier_width`` is deliberately *independent* of ``workers`` (a fixed
constant by default).  The sequence of rounds -- which nodes are popped,
which children are screened, which LPs are solved, and the order results
are folded -- is then a pure function of the problem, so ``status`` is
byte-identical and ``optimum`` bitwise-identical across worker counts:
``workers`` only changes how many of a round's LPs are in flight at once.
Which thread's kernel solves a node does not matter either: a kernel
solve depends only on the node and its parent's basis
(:mod:`repro.exact.highs`).
(Raising ``frontier_width`` for very wide pools changes the trajectory,
not soundness: bounds/verdicts agree within ``tol``.)
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.exact.bab import (
    BAB_INFEASIBLE,
    BAB_NODE_LIMIT,
    BAB_OPTIMAL,
    BAB_PROVED,
    BAB_REFUTED,
    BaBResult,
    BaBSolver,
)
from repro.exact.encoding import PhaseMap
# solve_lp stays bound here: perfbench's tracer looks it up by name.
from repro.exact.lp import LP_INFEASIBLE, LP_OPTIMAL, LPResult, solve_lp  # noqa: F401

__all__ = ["FRONTIER_WIDTH", "maximize_frontier"]

#: Nodes expanded per synchronous round.  A fixed default (rather than a
#: multiple of ``workers``) keeps the search trajectory -- and hence the
#: verdict -- identical across worker counts; see the module docstring.
FRONTIER_WIDTH = 8


def maximize_frontier(solver: BaBSolver, c: np.ndarray,
                      threshold: Optional[float] = None,
                      initial_nodes: Optional[List[PhaseMap]] = None,
                      collect_leaves: Optional[List[PhaseMap]] = None,
                      start_screen=None,
                      collect_duals: Optional[dict] = None,
                      ) -> BaBResult:
    """Frontier-parallel ``max c @ f(x)`` with :class:`BaBSolver` semantics.

    Same contract as :meth:`BaBSolver.maximize` (thresholds, warm starts,
    covering leaves); concurrency and per-round batch statistics are
    reported through the extra :class:`BaBResult` fields.
    """
    # Imported lazily: repro.core.parallel pulls in the proposition
    # machinery, which sits *above* the exact layer in the import graph.
    from repro.core.parallel import (available_width, effective_workers,
                                     run_parallel)

    enc = solver.encoding
    tol = solver.tol
    workers = solver.workers
    #: Requests wider than the shared pool can admit (or nested inside a
    #: pool worker) would fall back to a fresh private pool *per round* --
    #: pure churn.  Clamp the in-flight LP concurrency instead; the
    #: trajectory (hence verdict/optimum) never depends on this.
    pool_workers = effective_workers(workers)
    width = FRONTIER_WIDTH if solver.frontier_width is None \
        else int(solver.frontier_width)
    if width < 1:
        raise SolverError(f"frontier_width must be positive, got {width}")
    objective = enc.output_objective(np.asarray(c, dtype=np.float64))
    neg_obj = -objective  # linprog minimises
    c_vec = np.asarray(c, dtype=np.float64).reshape(-1)

    lp_solves = 0
    nodes = 0
    rounds = 0
    batches: List[int] = []
    counter = itertools.count()
    incumbent = -np.inf
    witness: Optional[np.ndarray] = None
    screened_bound = -np.inf
    use_screen = solver.interval_prune or solver.node_tighten

    def screen_nodes(phase_maps: List[PhaseMap]):
        return solver._screen_nodes(phase_maps, c_vec)

    def record_leaf(phases: PhaseMap) -> None:
        if collect_leaves is not None:
            collect_leaves.append(dict(phases))

    def capture_duals(phases: PhaseMap, res: LPResult) -> None:
        # Called on the coordinating thread only (results are folded in
        # submission order after each batch), so the caller's dict needs
        # no locking.
        if collect_duals is not None and res.optimal:
            collect_duals[tuple(sorted(phases.items()))] = (
                res.dual_ub if res.dual_ub is not None else np.zeros(0),
                res.dual_eq if res.dual_eq is not None else np.zeros(0))

    def node_thunk(phases: PhaseMap, tight_pre, basis, label: str
                   ) -> Callable[[], LPResult]:
        """One worker task: solve the node on this thread's kernel,
        hot-started from its parent's ``basis`` (``None``: cold)."""
        def thunk() -> LPResult:
            return enc.solve_node(neg_obj, phases, tight_pre, basis=basis,
                                  want_duals=collect_duals is not None,
                                  label=label)
        return thunk

    def solve_batch(items: List[Tuple[PhaseMap, object, object]],
                    stage: str) -> List[LPResult]:
        """Solve one round's surviving node LPs, order-preserving.

        ``workers > 1`` submits the whole batch to the shared pool in one
        :func:`run_parallel` call; a single worker (or a single task) runs
        inline -- identical results either way, so the sequential path is
        the honest baseline the speedup benchmark compares against.
        """
        nonlocal lp_solves
        lp_solves += len(items)
        batches.append(len(items))
        thunks = [node_thunk(phases, tight, basis, f"{stage} node {j}")
                  for j, (phases, tight, basis) in enumerate(items)]
        # Re-clamp per batch against the width other callers currently
        # hold: while the pool is occupied elsewhere this degrades to
        # inline execution for the round (results identical) rather than
        # constructing a private pool every round.
        run_workers = min(pool_workers, available_width())
        if run_workers <= 1 or len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        tasks = [(f"{stage}-{j}", thunk) for j, thunk in enumerate(thunks)]
        return [value for _, value, _ in
                run_parallel(tasks, workers=run_workers)]

    def register_feasible(x_input: np.ndarray) -> None:
        nonlocal incumbent, witness
        value, x_clipped = solver._feasible_value(c_vec, x_input)
        if value > incumbent:
            incumbent = value
            witness = x_clipped

    # Max-heap on node upper bounds (negate for heapq); each entry carries
    # its LP point and optimal basis (its children's hot start).
    heap: List[Tuple[float, int, PhaseMap, np.ndarray, object]] = []

    # Warm-start economics: starts adopted from the caller, and how many
    # of them the batched float64 re-screen settled without an LP.
    nodes_reused = len(initial_nodes) if initial_nodes else 0
    lp_solves_saved = 0

    def result(status: str, bound: float) -> BaBResult:
        return BaBResult(
            status, max(bound, screened_bound), incumbent, witness,
            nodes, lp_solves, rounds=rounds,
            max_batch=max(batches, default=0),
            mean_batch=float(np.mean(batches)) if batches else 0.0,
            workers=workers,
            nodes_reused=nodes_reused,
            lp_solves_saved=lp_solves_saved,
        )

    def finish(status: str, bound: float) -> BaBResult:
        # Whatever remains open is part of the covering certificate.
        for entry in heap:
            record_leaf(entry[2])
        return result(status, bound)

    # ------------------------------------------------------------- warm start
    starts: List[PhaseMap] = (
        [dict(p) for p in initial_nodes] if initial_nodes else [{}]
    )
    start_ubs = start_feasible = start_tights = None
    if use_screen:
        # A caller-supplied screen (certificate reuse's dual-bound screen)
        # applies to the warm-start batch only; branching children below
        # always go through the stock batched screen.
        start_ubs, start_feasible, start_tights = \
            (start_screen or screen_nodes)(starts)
        if solver.interval_prune and threshold is not None and \
                np.all(start_ubs <= threshold + tol):
            for start in starts:
                record_leaf(start)
            lp_solves_saved = nodes_reused
            return result(BAB_PROVED, float(start_ubs.max()))
    surviving: List[Tuple[PhaseMap, object, object]] = []
    for j, start in enumerate(starts):
        ub_est = float(start_ubs[j]) if solver.interval_prune else None
        # Starts screen against an -inf incumbent: all surviving start LPs
        # solve in one concurrent batch, so no earlier start's incumbent
        # exists yet (the scalar search, solving sequentially, does prune
        # later starts against earlier ones -- same verdicts, more LPs).
        verdict = solver._screen_verdict(
            ub_est, not use_screen or bool(start_feasible[j]),
            -np.inf, threshold)
        if verdict != "open":
            if verdict == "proved":  # region closed below the threshold
                screened_bound = max(screened_bound, ub_est)
            if initial_nodes:
                lp_solves_saved += 1
            record_leaf(start)  # phase constraints emptied the region
            continue
        surviving.append((start, start_tights[j] if start_tights else None,
                          None))
    any_feasible = False
    if surviving:
        rounds += 1
        for (start, _, __), res in zip(surviving,
                                       solve_batch(surviving, "start")):
            if res.status == LP_INFEASIBLE:
                record_leaf(start)
                continue
            if res.status != LP_OPTIMAL:
                raise SolverError(f"start LP ended with status {res.status}")
            any_feasible = True
            capture_duals(start, res)
            register_feasible(res.x[enc.input_slice])
            heapq.heappush(heap, (res.value, next(counter), start, res.x,
                                  res.basis))
    if not any_feasible:
        if screened_bound > -np.inf:
            # Every LP-checked region was empty, but interval-screened
            # regions cover the rest below the threshold.
            return finish(BAB_PROVED, screened_bound)
        nodes = len(starts)  # scalar-search parity for the infeasible case
        return result(BAB_INFEASIBLE, -np.inf)

    # ---------------------------------------------------------------- rounds
    while heap:
        top_bound = -heap[0][0]
        global_bound = max(top_bound, incumbent)
        if threshold is not None:
            if incumbent > threshold + tol:
                return finish(BAB_REFUTED, global_bound)
            if global_bound <= threshold + tol:
                return finish(BAB_PROVED, global_bound)
        if top_bound <= incumbent + tol:
            # The best remaining node cannot beat the incumbent: optimal.
            return finish(BAB_OPTIMAL, max(incumbent, top_bound))
        budget = solver.node_limit - nodes
        if budget <= 0:
            return finish(BAB_NODE_LIMIT, global_bound)

        # Pop the round's frontier (heap order => bounds non-increasing).
        popped: List[Tuple[PhaseMap, np.ndarray, object]] = []
        while heap and len(popped) < min(width, budget):
            entry = heapq.heappop(heap)
            if -entry[0] <= incumbent + tol:
                # This and every later node is dominated; leave them open
                # (the next round's top-of-heap check settles the search).
                heapq.heappush(heap, entry)
                break
            popped.append(entry[2:])

        rounds += 1
        children: List[Tuple[PhaseMap, object]] = []
        for phases, x_lp, basis in popped:
            nodes += 1
            branch_var = solver._most_violated(x_lp, phases)
            if branch_var is None:
                # LP solution is activation-consistent: bound is attained.
                register_feasible(x_lp[enc.input_slice])
                record_leaf(phases)
                continue
            for phase in (1, -1):
                child: PhaseMap = dict(phases)
                child[branch_var] = phase
                children.append((child, basis))
        if not children:
            batches.append(0)
            continue

        # One batched pass screens the whole round's children at once.
        child_ubs = child_feasible = child_tights = None
        if use_screen:
            child_ubs, child_feasible, child_tights = screen_nodes(
                [child for child, _ in children])
        surviving = []
        for j, (child, basis) in enumerate(children):
            ub_est = float(child_ubs[j]) if solver.interval_prune else None
            verdict = solver._screen_verdict(
                ub_est, not use_screen or bool(child_feasible[j]),
                incumbent, threshold)
            if verdict != "open":
                if verdict == "proved":  # closed below the threshold
                    screened_bound = max(screened_bound, ub_est)
                record_leaf(child)  # empty region / dominated bound
                continue
            surviving.append(
                (child, child_tights[j] if child_tights else None, basis))

        # Concurrent node-LP solves; results folded in submission order.
        for (child, _, __), res in zip(surviving,
                                       solve_batch(surviving, f"round{rounds}")):
            if res.status == LP_INFEASIBLE:
                record_leaf(child)  # the region is empty: settled
                continue
            if res.status != LP_OPTIMAL:
                # Same status discipline as the scalar search: an unbounded
                # (or otherwise failed) child relaxation must surface, not
                # silently settle as a leaf.
                raise SolverError(f"child LP ended with status {res.status}")
            child_bound = -res.value
            capture_duals(child, res)
            register_feasible(res.x[enc.input_slice])
            if child_bound <= incumbent + tol:
                record_leaf(child)
                continue
            heapq.heappush(heap, (-child_bound, next(counter), child, res.x,
                                  res.basis))

    status, bound = solver._terminal_status(incumbent, screened_bound,
                                            threshold)
    return result(status, bound)
