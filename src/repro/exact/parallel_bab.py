"""Frontier branch and bound: the search behind :meth:`BaBSolver.maximize`.

Every stage of a branch-and-bound step is batch-first:
``phase_clamped_node_bounds`` screens N regions in one pass and every node
LP shares the encoding's one fixed layout.  The search therefore runs in
synchronous rounds: each round expands the top-``FRONTIER_WIDTH`` open
nodes and solves all surviving child LPs together, concurrently on the
shared worker pool of :mod:`repro.core.parallel` when ``workers > 1``.

One round
---------
Each round has one *bar*: ``incumbent + tol``, or ``max(incumbent,
threshold) + tol`` in a threshold search that collects no covering
leaves.  A node whose bound is at most the bar cannot change the answer:
it is dominated by the incumbent or closed below the threshold.

1. *Pop.*  Take up to ``FRONTIER_WIDTH`` best-bound nodes off the open
   heap, stopping at the first whose bound is at most the bar.  Such a
   node is never expanded; it stays open and counts in the global
   bound.
2. *Branch.*  Each popped node -- one int8 row of the encoding's phase
   matrix -- contributes its two phase-split children on the neuron its
   own LP multipliers choose (:meth:`BaBSolver._split_column`;
   activation-consistent nodes instead register their LP point as a
   feasible incumbent and settle).
3. *Screen.*  All children of the round are stacked into one phase matrix
   and screened with **one**
   :func:`~repro.domains.batch.phase_clamped_node_bounds` call: empty
   regions, incumbent-dominated regions and threshold-closed regions settle
   without an LP.
4. *Solve.*  The survivors' LP bounds come from one
   :meth:`~repro.exact.encoding.NetworkEncoding.node_bounds` call, and
   their node LPs are submitted together to
   :func:`~repro.core.parallel.run_parallel`; each worker solves on its
   own thread's kernel for the shared encoding
   (:func:`~repro.exact.highs.kernel_for`),
   hot-started from the popped parent's basis, which travels with the
   node, and cut off at the bar: the bar is fixed once per batch before
   any task is dispatched, and a child whose dual bound falls to it
   stops early (:data:`~repro.exact.lp.LP_CUTOFF`).  Start batches (the
   root and certificate warm starts) get no cutoff.  Idle workers
   pick up whatever task is next in the round's queue (pool-level work
   stealing), so heterogeneous node costs do not serialise the round.
5. *Fold.*  Results are folded back **in submission order** on the
   coordinating thread: incumbents update, surviving children are pushed,
   and cut children settle as leaves (with their dual iterate, when the
   caller collects multipliers) without touching the incumbent.

Soundness
---------
The true maximum never exceeds ``max(incumbent, screened_bound, max over
open-node bounds)``.  During a round, nodes that have been popped but
whose children are still being screened/solved ("in-flight" regions) are
covered by *their own* LP bounds, which are at least their children's
bounds (a child's feasible set is a subset of its parent's).  Every
reported global bound is therefore taken as the max over the heap, the
bounds of the round's popped nodes, the interval-settled regions and the
incumbent -- a sound upper bound at every instant, including early
termination inside a round (node limit).  The covering-leaves invariant is
preserved the same way: every popped node either settles as a leaf or
contributes both children, each of which settles or returns to the heap.

A cut child settles on HiGHS's dual objective instead of its LP value.
That objective belongs to a dual feasible iterate, so by weak duality it
is at most the LP minimum: the upper bound it gives on the child's
maximum is no weaker (no smaller) than the LP value it replaces.  A cut
above the incumbent, closed below the threshold, is folded into the
interval-settled bound exactly like a screened region.  Both the screens
and this bound are evaluated in round-to-nearest float64; certifying
them is ROADMAP's "certified settlement" item.

Leaf-collecting searches use the incumbent bar only.  Recording a
certificate wants its leaves fine enough for later re-screens: closing
nodes at the threshold gives fewer, coarser leaves that a perturbed
network's re-screen can no longer settle without LPs.

Determinism
-----------
``FRONTIER_WIDTH`` is a fixed constant, deliberately independent of
``workers``.  The sequence of rounds -- which nodes are popped, which
children are screened, which LPs are solved, and the order results are
folded -- is then a pure function of the problem, so ``status`` is
byte-identical and ``optimum`` bitwise-identical across worker counts:
``workers`` only changes how many of a round's LPs are in flight at once.
Which thread's kernel solves a node does not matter either: a kernel
solve depends only on the node and its parent's basis
(:mod:`repro.exact.highs`).
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
    CoveringLeaves,
)
from repro.exact.encoding import PackedDuals, as_phase_matrix
from repro.exact.highs import kernel_for
from repro.exact.lp import LP_CUTOFF, LP_INFEASIBLE, LP_OPTIMAL, LPResult
# solve_lp stays bound here: perfbench's tracer looks it up by name.
from repro.exact.lp import solve_lp  # noqa: F401

__all__ = ["FRONTIER_WIDTH", "maximize_frontier"]

#: Nodes expanded per synchronous round.  A fixed constant (rather than a
#: multiple of ``workers``) keeps the search trajectory -- and hence the
#: verdict -- identical across worker counts; see the module docstring.
FRONTIER_WIDTH = 8


def maximize_frontier(solver: BaBSolver, c: np.ndarray,
                      threshold: Optional[float] = None,
                      initial_nodes=None,
                      collect_leaves: Optional[CoveringLeaves] = None,
                      start_screen=None,
                      initial_duals: Optional[PackedDuals] = None,
                      ) -> BaBResult:
    """``max c @ f(x)`` for :meth:`BaBSolver.maximize`, which documents the
    contract (thresholds, warm starts, covering leaves, duals); per-round
    batch statistics are reported through the :class:`BaBResult` fields.

    A node is one int8 row of the encoding's phase matrix; each batch --
    the warm starts, then every round's children -- is screened as one
    ``(N, W)`` matrix, and its surviving node LPs get their bounds from
    one :meth:`~repro.exact.encoding.NetworkEncoding.node_bounds` call.
    The nodes a screen settles reach ``collect_leaves`` as one block of
    rows, with their multipliers as one :class:`PackedDuals`.
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
    objective = enc.output_objective(np.asarray(c, dtype=np.float64))
    neg_obj = -objective  # linprog minimises
    c_vec = np.asarray(c, dtype=np.float64).reshape(-1)
    want_duals = collect_leaves is not None and \
        collect_leaves.dual_rows is not None

    lp_solves = 0
    nodes = 0
    rounds = 0
    batches: List[int] = []
    counter = itertools.count()
    incumbent = -np.inf
    witness: Optional[np.ndarray] = None
    # Sound max over regions the interval screen settled above the
    # incumbent (threshold mode); folded into every reported bound.
    screened_bound = -np.inf

    def screen_nodes(phases: np.ndarray):
        return solver._screen_nodes(phases, c_vec)

    # The collectors are called on the coordinating thread only (results
    # are folded in submission order after each batch), so the caller's
    # collector needs no locking.
    def record_leaf(phases: np.ndarray, dual) -> None:
        if collect_leaves is not None:
            collect_leaves.add(phases, dual)

    def record_block(rows: np.ndarray,
                     duals: Optional[PackedDuals]) -> None:
        if collect_leaves is not None:
            collect_leaves.add_block(rows, duals)

    def bar() -> float:
        """The bound a node must beat to matter (module docstring)."""
        if threshold is None or collect_leaves is not None:
            return incumbent + tol
        return max(incumbent, threshold) + tol

    def node_thunk(col_lo, col_hi, b_ub, basis, label: str,
                   cutoff: float) -> Callable[[], LPResult]:
        """One worker task: solve the node on this thread's kernel,
        hot-started from its parent's ``basis`` (``None``: cold)."""
        def thunk() -> LPResult:
            return kernel_for(enc).solve(neg_obj, col_lo, col_hi, b_ub,
                                         basis=basis, label=label,
                                         cutoff=cutoff)
        return thunk

    def solve_batch(phases: np.ndarray, bases: List, stage: str,
                    cut: bool) -> List[LPResult]:
        """Solve one round's surviving node LPs, order-preserving; with
        ``cut``, each stops once its bound falls to the bar.

        ``workers > 1`` submits the whole batch to the shared pool in one
        :func:`run_parallel` call; a single worker (or a single task) runs
        inline -- identical results either way, so ``workers=1`` is the
        honest baseline the speedup benchmark compares against.
        """
        nonlocal lp_solves
        lp_solves += len(bases)
        batches.append(len(bases))
        if not bases:
            return []
        col_lo, col_hi, b_ub = enc.node_bounds(phases)
        # One cutoff for the whole batch, fixed before any dispatch, so
        # the worker count cannot move it.
        cutoff = -bar() if cut else np.inf
        thunks = [node_thunk(col_lo[j], col_hi[j],
                             None if b_ub is None else b_ub[j], basis,
                             f"{stage} node {j}", cutoff)
                  for j, basis in enumerate(bases)]
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
        # Clip the LP's input point into the box and evaluate the real
        # network: the incumbent is always an achieved value.
        nonlocal incumbent, witness
        x_clipped = solver.input_box.clip_point(x_input)
        value = float(np.dot(c_vec, np.atleast_1d(
            solver.network.forward(x_clipped))))
        if value > incumbent:
            incumbent = value
            witness = x_clipped

    def settle_screened(phases: np.ndarray, duals: Optional[PackedDuals],
                        screened, bar: float) -> np.ndarray:
        """Settle the candidate rows of ``phases`` one batched screen
        decides: empty regions, regions whose interval bound cannot beat
        ``bar``, and regions closed below the threshold on intervals alone
        (folded into ``screened_bound``).  They are recorded as one block,
        in row order, with their rows of ``duals`` (``None``: no
        multipliers).  Returns the survivors' row indices, in order."""
        nonlocal screened_bound
        ubs, feasible = screened
        settled = ~feasible  # the phase constraints empty them
        settled |= ubs <= bar + tol  # dominated by the incumbent
        if threshold is not None:
            closed = ~settled & (ubs <= threshold + tol)
            if closed.any():  # closed below the threshold
                screened_bound = max(screened_bound,
                                     float(ubs[closed].max()))
            settled |= closed
        if settled.any():
            index = np.flatnonzero(settled)
            record_block(phases[index],
                         None if duals is None else duals.take(index))
        return np.flatnonzero(~settled)

    # Max-heap on node upper bounds (negate for heapq); each entry carries
    # its phase row, LP point, optimal basis (its children's hot start),
    # the LP's ``<=`` row multipliers (they choose its split) and the
    # multipliers recorded if it settles as a leaf.
    heap: List[Tuple] = []

    def solve_and_fold(phases: np.ndarray, keep: np.ndarray,
                       bases: Optional[List], duals: Optional[PackedDuals],
                       stage: str, kind: str) -> bool:
        """Solve the ``keep`` rows of ``phases`` as one batch and fold the
        results in submission order: ``bases`` holds each kept row's
        parent basis (``None``: all cold), ``duals`` the multipliers each
        kept row records if it settles (``None``: none).
        ``kind="child"`` cuts each LP off at the bar and also settles LPs
        dominated by the incumbent.  Returns whether any LP was feasible."""
        nonlocal screened_bound
        results = solve_batch(
            phases if len(keep) == len(phases) else phases[keep],
            [None] * len(keep) if bases is None else bases, stage,
            kind == "child")
        entries = [None] * len(keep) if duals is None else list(duals)
        any_feasible = False
        for j, res, dual in zip(keep, results, entries):
            row = phases[j]
            if res.status == LP_INFEASIBLE:
                record_leaf(row, dual)  # the region is empty: settled
                continue
            if res.status not in (LP_OPTIMAL, LP_CUTOFF):
                # An unbounded (or otherwise failed) relaxation can never be
                # *settled*: node LPs over a bounded input box are bounded,
                # so this is always a solver/encoding failure to surface.
                raise SolverError(f"{kind} LP ended with status {res.status}")
            if want_duals:
                dual = (res.dual_ub if res.dual_ub is not None
                        else np.zeros(0),
                        res.dual_eq if res.dual_eq is not None
                        else np.zeros(0))
            if res.status == LP_CUTOFF:
                # Its dual bound fell to the bar: dominated, or closed
                # below the threshold (folded like a screened region).
                bound = -res.value
                if bound > incumbent + tol:
                    if threshold is None or bound > threshold + tol:
                        raise SolverError(
                            f"{kind} LP cut off above its bar ({bound!r})")
                    screened_bound = max(screened_bound, bound)
                record_leaf(row, dual)
                continue
            any_feasible = True
            register_feasible(res.x[enc.input_slice])
            if kind == "child" and -res.value <= incumbent + tol:
                record_leaf(row, dual)
                continue
            heapq.heappush(heap, (res.value, next(counter), row, res.x,
                                  res.basis, res.dual_ub, dual))
        return any_feasible

    # Warm-start economics: starts adopted from the caller, and how many
    # of them the batched float64 re-screen settled without an LP.
    warm = initial_nodes is not None and len(initial_nodes) > 0
    nodes_reused = len(initial_nodes) if warm else 0
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
            record_leaf(entry[2], entry[6])
        return result(status, bound)

    # ------------------------------------------------------------- warm start
    starts = as_phase_matrix(initial_nodes, enc.phase_widths) if warm else \
        np.zeros((1, sum(enc.phase_widths)), dtype=np.int8)
    if initial_duals is not None and len(initial_duals) != len(starts):
        initial_duals = None
    # A caller-supplied screen (certificate reuse's dual-bound screen)
    # applies to the warm-start batch only; branching children below
    # always go through the stock batched screen.
    screened = (start_screen or screen_nodes)(starts)
    start_ubs = screened[0]
    if threshold is not None and np.all(start_ubs <= threshold + tol):
        # The covering regions all close on the screen alone: proved
        # without a single LP, and they are the certificate as given.
        record_block(starts, initial_duals)
        lp_solves_saved = nodes_reused
        return result(BAB_PROVED, float(start_ubs.max()))
    # Starts screen against an -inf incumbent: all surviving start LPs
    # solve in one batch, so no earlier start's incumbent exists yet.
    surviving = settle_screened(starts, initial_duals, screened, -np.inf)
    if warm:
        lp_solves_saved = len(starts) - len(surviving)
    any_feasible = False
    if len(surviving):
        rounds += 1
        any_feasible = solve_and_fold(
            starts, surviving, None,
            None if initial_duals is None else initial_duals.take(surviving),
            "start", "start")
    if not any_feasible:
        if screened_bound > -np.inf:
            # Every LP-checked region was empty, but interval-screened
            # regions cover the rest below the threshold.
            return finish(BAB_PROVED, screened_bound)
        nodes = len(starts)  # each empty start counts as one settled node
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
        popped: List[Tuple] = []
        round_bar = bar()
        while heap and len(popped) < min(FRONTIER_WIDTH, budget):
            entry = heapq.heappop(heap)
            if -entry[0] <= round_bar:
                # This and every later node cannot matter; leave them open
                # (the next round's top-of-heap check settles the search).
                heapq.heappush(heap, entry)
                break
            popped.append(entry[2:])

        rounds += 1
        children: List[np.ndarray] = []
        parent_bases: List = []
        for phases, x_lp, basis, dual_ub, dual in popped:
            nodes += 1
            column = solver._split_column(x_lp, phases, dual_ub)
            if column is None:
                # LP solution is activation-consistent: bound is attained.
                register_feasible(x_lp[enc.input_slice])
                record_leaf(phases, dual)
                continue
            for phase in (1, -1):
                child = phases.copy()
                child[column] = phase
                children.append(child)
                parent_bases.append(basis)
        if not children:
            batches.append(0)
            continue

        # One batched pass screens the whole round's children at once.
        rows = np.stack(children)
        surviving = settle_screened(rows, None, screen_nodes(rows), incumbent)
        # Concurrent node-LP solves; results folded in submission order.
        solve_and_fold(rows, surviving, [parent_bases[j] for j in surviving],
                       None, f"round{rounds}", "child")

    # No open node remains.  The incumbent can cross the threshold during
    # the *last* round with no further top-of-heap check to notice it
    # (refuted, not optimal); interval-settled regions (threshold mode) may
    # exceed the incumbent, so optimality is not established even though
    # every region closed below the threshold; otherwise the incumbent is
    # the exact optimum.  ``result`` folds in ``screened_bound``.
    if threshold is not None and incumbent > threshold + tol:
        return result(BAB_REFUTED, incumbent)
    if screened_bound > incumbent + tol:
        return result(BAB_PROVED, incumbent)
    return result(BAB_OPTIMAL, incumbent)
