"""Frontier branch and bound: the rounds behind :meth:`BaBSolver.maximize`
and :meth:`BaBSolver.maximize_thresholds`.

Every stage of a branch-and-bound step is batch-first:
``phase_clamped_node_bounds`` screens N regions in one pass and every node
LP shares the encoding's one fixed layout.  Searches therefore run in
synchronous rounds: each round expands the top-``FRONTIER_WIDTH`` open
nodes of every live search and solves all surviving child LPs together,
concurrently on the shared worker pool of :mod:`repro.core.parallel` when
``workers > 1``.  A search's state between rounds -- open-node heap,
incumbent, witness, counters and options -- is one
:class:`FrontierSearch`, and :func:`run_rounds` advances any number of
them over one encoding: :meth:`BaBSolver.maximize` runs one search, and a
containment check runs its threshold searches together
(:func:`maximize_thresholds`).

One round
---------
Each search has its own *bar*: ``incumbent + tol``, or ``max(incumbent,
threshold) + tol`` in a threshold search that collects no covering
leaves.  A node whose bound is at most the bar cannot change the answer:
it is dominated by the incumbent or closed below the threshold.

1. *Pop.*  Each live search takes up to ``FRONTIER_WIDTH`` best-bound
   nodes, within its node budget, off its own open heap, stopping at the
   first whose bound is at most its bar.  Such a node is never expanded;
   it stays open and counts in the search's global bound.
2. *Branch.*  Each popped node -- one int8 row of the encoding's phase
   matrix -- contributes its two phase-split children on the neuron its
   own LP multipliers choose (:meth:`BaBSolver._split_column`;
   activation-consistent nodes instead register their LP point as a
   feasible incumbent and settle).
3. *Screen.*  The children of every search are stacked, search by
   search, into one phase matrix and screened with **one**
   :func:`~repro.domains.batch.phase_clamped_node_bounds` call, each
   search's rows under its own objective: empty regions,
   incumbent-dominated regions and threshold-closed regions settle
   without an LP.
4. *Solve.*  The survivors' LP bounds come from one
   :meth:`~repro.exact.encoding.NetworkEncoding.node_bounds` call, and
   all of the round's node LPs are submitted together to
   :func:`~repro.core.parallel.run_parallel`, each with its search's cost;
   each worker solves on its own thread's kernel for the shared encoding
   (:func:`~repro.exact.highs.kernel_for`), hot-started from the popped
   parent's basis, which travels with the node, and cut off at its
   search's bar: the bars are fixed once per round before any task is
   dispatched, and a child whose dual bound falls to its bar stops early
   (:data:`~repro.exact.lp.LP_CUTOFF`).  Start batches (the root and
   certificate warm starts) get no cutoff.  Idle workers pick up whatever
   task is next in the round's queue (pool-level work stealing), so
   heterogeneous node costs do not serialise the round.
5. *Fold.*  Each search folds its own results back **in its submission
   order** on the coordinating thread: incumbents update, surviving
   children are pushed, and cut children settle as leaves (with their
   dual iterate, when the caller collects multipliers) without touching
   the incumbent.

The searches of one check
-------------------------
:func:`maximize_thresholds` decides what the sequential loop -- run each
threshold search alone, in order, and stop at the first one refuted or at
its node limit -- decides, and reports the same searches.  Roots are
solved one at a time, in search order, all screened by one shared pass
over the all-free root; a search joins the lockstep rounds only once its
root leaves it open, and no search starts after an earlier one has ended
refuted or at its node limit.  When a search ends that way during the
rounds, every later search is abandoned: the sequential loop would never
have run it, so its LPs and nodes are counted nowhere and no result is
reported for it.  Starting every root in the first round instead would
pay a cold root LP for each search a refutation at an earlier root makes
moot.

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
``workers``.  The sequence of rounds -- which nodes each search pops,
which children are screened, which LPs are solved, and the order results
are folded -- is then a pure function of the problem, so ``status`` is
byte-identical and ``optimum`` bitwise-identical across worker counts:
``workers`` only changes how many of a round's LPs are in flight at once.
Which thread's kernel solves a node does not matter either: a kernel
solve depends on the node, its parent's basis and its cutoff, and
otherwise only on state HiGHS keeps from the kernel's earlier solves with
other objectives (:mod:`repro.exact.highs`, "History"), which the
containment objectives ``±e_i`` have not been seen to move; the tests
check both bit for bit.  A search reads only its own heap, bar and
incumbent, and stacking a round's children keeps each row's screened
bounds (:func:`~repro.domains.batch.phase_clamped_node_bounds`), so every
search of a check takes the trajectory it takes alone: the same nodes,
LPs and witness as :meth:`BaBSolver.maximize`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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

__all__ = ["FRONTIER_WIDTH", "maximize_frontier", "maximize_thresholds"]

#: Nodes expanded per search per synchronous round.  A fixed constant
#: (rather than a multiple of ``workers``) keeps the search trajectory --
#: and hence the verdict -- identical across worker counts; see the
#: module docstring.
FRONTIER_WIDTH = 8

#: Statuses that end a check's sequential loop: no later search runs.
_DECISIVE = (BAB_REFUTED, BAB_NODE_LIMIT)


class FrontierSearch:
    """One search's state between rounds: ``max c @ f(x)`` over the
    solver's encoding with the options of :meth:`BaBSolver.maximize`.
    ``result`` is ``None`` until the search ends.

    The collectors are called on the coordinating thread only (results
    are folded in submission order after each batch), so the caller's
    ``collect_leaves`` needs no locking.
    """

    def __init__(self, solver: BaBSolver, c: np.ndarray,
                 threshold: Optional[float] = None,
                 collect_leaves: Optional[CoveringLeaves] = None):
        self.solver = solver
        self.c_vec = np.asarray(c, dtype=np.float64).reshape(-1)
        self.cost = -solver.encoding.output_objective(self.c_vec)  # minimised
        self.threshold = threshold
        self.collect_leaves = collect_leaves
        self.want_duals = collect_leaves is not None and \
            collect_leaves.dual_rows is not None
        self.lp_solves = 0
        self.nodes = 0
        self.rounds = 0
        self.batches: List[int] = []
        self.counter = itertools.count()
        self.incumbent = -np.inf
        self.witness: Optional[np.ndarray] = None
        # Sound max over regions the interval screen settled above the
        # incumbent (threshold mode); folded into every reported bound.
        self.screened_bound = -np.inf
        # Max-heap on node upper bounds (negate for heapq); each entry
        # carries its phase row, LP point, optimal basis (its children's
        # hot start), the LP's ``<=`` row multipliers (they choose its
        # split) and the multipliers recorded if it settles as a leaf.
        self.heap: List[Tuple] = []
        # Warm-start economics: starts adopted from the caller, and how
        # many of them the batched float64 re-screen settled without an LP.
        self.nodes_reused = 0
        self.lp_solves_saved = 0
        self.result: Optional[BaBResult] = None

    def record_leaf(self, phases: np.ndarray, dual) -> None:
        if self.collect_leaves is not None:
            self.collect_leaves.add(phases, dual)

    def record_block(self, rows: np.ndarray,
                     duals: Optional[PackedDuals]) -> None:
        if self.collect_leaves is not None:
            self.collect_leaves.add_block(rows, duals)

    def bar(self) -> float:
        """The bound a node must beat to matter (module docstring)."""
        if self.threshold is None or self.collect_leaves is not None:
            return self.incumbent + self.solver.tol
        return max(self.incumbent, self.threshold) + self.solver.tol

    def register_feasible(self, x_input: np.ndarray) -> None:
        # Clip the LP's input point into the box and evaluate the real
        # network: the incumbent is always an achieved value.
        solver = self.solver
        x_clipped = solver.input_box.clip_point(x_input)
        value = float(np.dot(self.c_vec, np.atleast_1d(
            solver.network.forward(x_clipped))))
        if value > self.incumbent:
            self.incumbent = value
            self.witness = x_clipped

    def settle_screened(self, phases: np.ndarray,
                        duals: Optional[PackedDuals], screened,
                        bar: float) -> np.ndarray:
        """Settle the candidate rows of ``phases`` one batched screen
        decides: empty regions, regions whose interval bound cannot beat
        ``bar``, and regions closed below the threshold on intervals alone
        (folded into ``screened_bound``).  They are recorded as one block,
        in row order, with their rows of ``duals`` (``None``: no
        multipliers).  Returns the survivors' row indices, in order."""
        tol = self.solver.tol
        ubs, feasible = screened
        settled = ~feasible  # the phase constraints empty them
        settled |= ubs <= bar + tol  # dominated by the incumbent
        if self.threshold is not None:
            closed = ~settled & (ubs <= self.threshold + tol)
            if closed.any():  # closed below the threshold
                self.screened_bound = max(self.screened_bound,
                                          float(ubs[closed].max()))
            settled |= closed
        if settled.any():
            index = np.flatnonzero(settled)
            self.record_block(phases[index],
                              None if duals is None else duals.take(index))
        return np.flatnonzero(~settled)

    def fold(self, phases: np.ndarray, keep: np.ndarray,
             results: Sequence[LPResult], duals: Optional[PackedDuals],
             kind: str) -> bool:
        """Fold the LP results of the ``keep`` rows of ``phases`` in
        submission order; ``duals`` holds the multipliers each kept row
        records if it settles (``None``: none).  ``kind="child"`` also
        settles LPs dominated by the incumbent.  Returns whether any LP
        was feasible."""
        tol = self.solver.tol
        input_slice = self.solver.encoding.input_slice
        entries = [None] * len(keep) if duals is None else list(duals)
        any_feasible = False
        for j, res, dual in zip(keep, results, entries):
            row = phases[j]
            if res.status == LP_INFEASIBLE:
                self.record_leaf(row, dual)  # the region is empty: settled
                continue
            if res.status not in (LP_OPTIMAL, LP_CUTOFF):
                # An unbounded (or otherwise failed) relaxation can never
                # be *settled*: node LPs over a bounded input box are
                # bounded, so this is always a solver/encoding failure.
                raise SolverError(f"{kind} LP ended with status {res.status}")
            if self.want_duals:
                dual = (res.dual_ub if res.dual_ub is not None
                        else np.zeros(0),
                        res.dual_eq if res.dual_eq is not None
                        else np.zeros(0))
            if res.status == LP_CUTOFF:
                # Its dual bound fell to the bar: dominated, or closed
                # below the threshold (folded like a screened region).
                bound = -res.value
                if bound > self.incumbent + tol:
                    if self.threshold is None or \
                            bound > self.threshold + tol:
                        raise SolverError(
                            f"{kind} LP cut off above its bar ({bound!r})")
                    self.screened_bound = max(self.screened_bound, bound)
                self.record_leaf(row, dual)
                continue
            any_feasible = True
            self.register_feasible(res.x[input_slice])
            if kind == "child" and -res.value <= self.incumbent + tol:
                self.record_leaf(row, dual)
                continue
            heapq.heappush(self.heap, (res.value, next(self.counter), row,
                                       res.x, res.basis, res.dual_ub, dual))
        return any_feasible

    def end(self, status: str, bound: float) -> None:
        batches = self.batches
        self.result = BaBResult(
            status, max(bound, self.screened_bound), self.incumbent,
            self.witness, self.nodes, self.lp_solves, rounds=self.rounds,
            max_batch=max(batches, default=0),
            mean_batch=float(np.mean(batches)) if batches else 0.0,
            workers=self.solver.workers,
            nodes_reused=self.nodes_reused,
            lp_solves_saved=self.lp_solves_saved,
        )

    def finish(self, status: str, bound: float) -> None:
        # Whatever remains open is part of the covering certificate.
        for entry in self.heap:
            self.record_leaf(entry[2], entry[6])
        self.end(status, bound)

    def start(self, starts: np.ndarray, screened,
              duals: Optional[PackedDuals], warm: bool) -> np.ndarray:
        """Settle what the start batch's screen decides: the rows whose
        LPs the search still needs (none once it has ended)."""
        if warm:
            self.nodes_reused = len(starts)
        start_ubs = screened[0]
        tol = self.solver.tol
        if self.threshold is not None and \
                np.all(start_ubs <= self.threshold + tol):
            # The covering regions all close on the screen alone: proved
            # without a single LP, and they are the certificate as given.
            self.record_block(starts, duals)
            self.lp_solves_saved = self.nodes_reused
            self.end(BAB_PROVED, float(start_ubs.max()))
            return np.zeros(0, dtype=np.intp)
        # Starts screen against an -inf incumbent: all surviving start LPs
        # solve in one batch, so no earlier start's incumbent exists yet.
        surviving = self.settle_screened(starts, duals, screened, -np.inf)
        if warm:
            self.lp_solves_saved = len(starts) - len(surviving)
        return surviving

    def started(self, any_feasible: bool, count: int) -> None:
        """End the search unless a start LP was feasible."""
        if any_feasible:
            return
        if self.screened_bound > -np.inf:
            # Every LP-checked region was empty, but interval-screened
            # regions cover the rest below the threshold.
            self.finish(BAB_PROVED, self.screened_bound)
            return
        self.nodes = count  # each empty start counts as one settled node
        self.end(BAB_INFEASIBLE, -np.inf)

    def decide(self) -> bool:
        """End the search if its open nodes decide it; returns whether it
        has ended."""
        if not self.heap:
            self.close()
            return True
        tol = self.solver.tol
        incumbent, threshold = self.incumbent, self.threshold
        top_bound = -self.heap[0][0]
        global_bound = max(top_bound, incumbent)
        if threshold is not None:
            if incumbent > threshold + tol:
                self.finish(BAB_REFUTED, global_bound)
                return True
            if global_bound <= threshold + tol:
                self.finish(BAB_PROVED, global_bound)
                return True
        if top_bound <= incumbent + tol:
            # The best remaining node cannot beat the incumbent: optimal.
            self.finish(BAB_OPTIMAL, max(incumbent, top_bound))
            return True
        if self.nodes >= self.solver.node_limit:
            self.finish(BAB_NODE_LIMIT, global_bound)
            return True
        return False

    def branch(self) -> Optional[Tuple[np.ndarray, List]]:
        """Open one round: end the search if its open nodes decide it,
        else pop its frontier and branch.  Returns the children's phase
        rows and parent bases, or ``None`` when no child needs a
        screen."""
        if self.decide():
            return None
        budget = self.solver.node_limit - self.nodes

        # Pop the round's frontier (heap order => bounds non-increasing).
        popped: List[Tuple] = []
        round_bar = self.bar()
        while self.heap and len(popped) < min(FRONTIER_WIDTH, budget):
            entry = heapq.heappop(self.heap)
            if -entry[0] <= round_bar:
                # This and every later node cannot matter; leave them open
                # (the next round's top-of-heap check settles the search).
                heapq.heappush(self.heap, entry)
                break
            popped.append(entry[2:])

        self.rounds += 1
        input_slice = self.solver.encoding.input_slice
        children: List[np.ndarray] = []
        parent_bases: List = []
        for phases, x_lp, basis, dual_ub, dual in popped:
            self.nodes += 1
            column = self.solver._split_column(x_lp, phases, dual_ub)
            if column is None:
                # LP solution is activation-consistent: bound is attained.
                self.register_feasible(x_lp[input_slice])
                self.record_leaf(phases, dual)
                continue
            for phase in (1, -1):
                child = phases.copy()
                child[column] = phase
                children.append(child)
                parent_bases.append(basis)
        if not children:
            self.batches.append(0)
            return None
        return np.stack(children), parent_bases

    def close(self) -> None:
        """End the search once no open node remains.  The incumbent can
        cross the threshold during the *last* round with no further
        top-of-heap check to notice it (refuted, not optimal);
        interval-settled regions (threshold mode) may exceed the
        incumbent, so optimality is not established even though every
        region closed below the threshold; otherwise the incumbent is the
        exact optimum.  ``end`` folds in ``screened_bound``."""
        incumbent, threshold = self.incumbent, self.threshold
        if threshold is not None and incumbent > threshold + self.solver.tol:
            self.end(BAB_REFUTED, incumbent)
        elif self.screened_bound > incumbent + self.solver.tol:
            self.end(BAB_PROVED, incumbent)
        else:
            self.end(BAB_OPTIMAL, incumbent)


class _Batch(NamedTuple):
    """One search's node LPs of a round: the ``keep`` rows of ``phases``,
    hot-started from ``bases`` and cut off at the search's bar -- or, with
    ``bases=None``, a start batch: cold and uncut.  ``duals`` (``None``:
    none) holds what each kept row records if it settles."""

    search: "FrontierSearch"
    phases: np.ndarray
    keep: np.ndarray
    bases: Optional[List]
    duals: Optional[PackedDuals] = None

    @property
    def kind(self) -> str:
        return "start" if self.bases is None else "child"


def _node_thunk(enc, cost: np.ndarray, col_lo, col_hi, b_ub, basis,
                label: str, cutoff: float) -> Callable[[], LPResult]:
    """One worker task: solve the node on this thread's kernel,
    hot-started from its parent's ``basis`` (``None``: cold)."""
    def thunk() -> LPResult:
        return kernel_for(enc).solve(cost, col_lo, col_hi, b_ub,
                                     basis=basis, label=label, cutoff=cutoff)
    return thunk


def _solve_and_fold(solver: BaBSolver,
                    batches: Sequence[_Batch]) -> List[bool]:
    """Solve the node LPs of every batch together and fold each search's
    results in its own submission order.  Returns, per batch, whether any
    of its LPs was feasible.

    ``workers > 1`` submits every LP to the shared pool in one
    :func:`run_parallel` call; a single worker (or a single task) runs
    inline -- identical results either way, so ``workers=1`` is the
    honest baseline the speedup benchmark compares against.
    """
    # Imported lazily: repro.core.parallel pulls in the proposition
    # machinery, which sits *above* the exact layer in the import graph.
    from repro.core.parallel import (available_width, effective_workers,
                                     run_parallel)

    enc = solver.encoding
    rows = []
    for batch in batches:
        batch.search.lp_solves += len(batch.keep)
        batch.search.batches.append(len(batch.keep))
        rows.append(batch.phases if len(batch.keep) == len(batch.phases)
                    else batch.phases[batch.keep])
    results: List[LPResult] = []
    if sum(len(batch.keep) for batch in batches):
        col_lo, col_hi, b_ub = enc.node_bounds(
            rows[0] if len(rows) == 1 else np.concatenate(rows))
        tasks = []
        for search, _, keep, bases, _ in batches:
            # Each search's cutoff is fixed before any dispatch, so the
            # worker count cannot move it.
            stage = "start" if bases is None else f"round{search.rounds}"
            cutoff = np.inf if bases is None else -search.bar()
            for j, basis in enumerate([None] * len(keep) if bases is None
                                      else bases):
                t = len(tasks)
                label = f"{stage} node {j}"
                tasks.append((label, _node_thunk(
                    enc, search.cost, col_lo[t], col_hi[t],
                    None if b_ub is None else b_ub[t], basis, label,
                    cutoff)))
        # Clamped per call against the width other callers currently
        # hold: while the pool is occupied elsewhere this degrades to
        # inline execution for the round (results identical) rather than
        # constructing a private pool every round.  Requests wider than
        # the pool (or nested inside a pool worker) clamp the same way.
        run_workers = min(effective_workers(solver.workers),
                          available_width())
        if run_workers <= 1 or len(tasks) <= 1:
            results = [thunk() for _, thunk in tasks]
        else:
            results = [value for _, value, _ in
                       run_parallel(tasks, workers=run_workers)]
    feasible = []
    at = 0
    for batch in batches:
        count = len(batch.keep)
        feasible.append(batch.search.fold(
            batch.phases, batch.keep, results[at:at + count], batch.duals,
            batch.kind))
        at += count
    return feasible


def _start(solver: BaBSolver, search: FrontierSearch, starts: np.ndarray,
           screened, duals: Optional[PackedDuals], warm: bool) -> None:
    """Run a search's start batch: settle what ``screened`` decides, solve
    the remaining start LPs as one cold batch, and end the search if
    their results decide it."""
    surviving = search.start(starts, screened, duals, warm)
    if search.result is not None:
        return
    any_feasible = False
    if len(surviving):
        search.rounds += 1
        any_feasible, = _solve_and_fold(solver, [_Batch(
            search, starts, surviving, None,
            None if duals is None else duals.take(surviving))])
    search.started(any_feasible, len(starts))
    if search.result is None:
        search.decide()


def _live(searches: Sequence[FrontierSearch]) -> List[FrontierSearch]:
    """The searches still open before the first one that ended refuted or
    at its node limit."""
    live = []
    for search in searches:
        if search.result is None:
            live.append(search)
        elif search.result.status in _DECISIVE:
            break
    return live


def run_rounds(solver: BaBSolver, searches: Sequence[FrontierSearch]) -> None:
    """Advance started ``searches``, in search order, in lockstep rounds
    (module docstring) until each has a result or an earlier one ends
    refuted or at its node limit, which abandons it."""
    live = _live(searches)
    while live:
        groups = []
        for search in live:
            children = search.branch()
            if children is not None:
                groups.append((search, *children))
        if groups:
            # One batched pass screens the whole round's children at once.
            if len(groups) == 1:
                search, rows, _ = groups[0]
                ubs, feasible = solver._screen_nodes(rows, search.c_vec)
            else:
                ubs, feasible = solver._screen_nodes(
                    np.concatenate([rows for _, rows, _ in groups]),
                    np.stack([search.c_vec for search, _, _ in groups]),
                    [len(rows) for _, rows, _ in groups])
            batches = []
            at = 0
            for search, rows, bases in groups:
                part = slice(at, at + len(rows))
                at += len(rows)
                surviving = search.settle_screened(
                    rows, None, (ubs[part], feasible[part]),
                    search.incumbent)
                batches.append(_Batch(search, rows, surviving,
                                      [bases[j] for j in surviving]))
            # Concurrent node-LP solves; results folded in submission order.
            _solve_and_fold(solver, batches)
        live = _live(searches)


def maximize_frontier(solver: BaBSolver, c: np.ndarray,
                      threshold: Optional[float] = None,
                      initial_nodes=None,
                      collect_leaves: Optional[CoveringLeaves] = None,
                      start_screen=None,
                      initial_duals: Optional[PackedDuals] = None,
                      ) -> BaBResult:
    """``max c @ f(x)`` for :meth:`BaBSolver.maximize`, which documents the
    contract (thresholds, warm starts, covering leaves, duals): one
    :class:`FrontierSearch` run through :func:`run_rounds`; per-round
    batch statistics are reported through the :class:`BaBResult` fields.

    A node is one int8 row of the encoding's phase matrix; each batch --
    the warm starts, then every round's children -- is screened as one
    ``(N, W)`` matrix, and its surviving node LPs get their bounds from
    one :meth:`~repro.exact.encoding.NetworkEncoding.node_bounds` call.
    The nodes a screen settles reach ``collect_leaves`` as one block of
    rows, with their multipliers as one :class:`PackedDuals`.
    """
    search = FrontierSearch(solver, c, threshold, collect_leaves)
    warm = initial_nodes is not None and len(initial_nodes) > 0
    widths = solver.encoding.phase_widths
    starts = as_phase_matrix(initial_nodes, widths) if warm else \
        np.zeros((1, sum(widths)), dtype=np.int8)
    if initial_duals is not None and len(initial_duals) != len(starts):
        initial_duals = None
    # A caller-supplied screen (certificate reuse's dual-bound screen)
    # applies to the warm-start batch only; branching children always go
    # through the stock batched screen.
    screened = start_screen(starts) if start_screen is not None else \
        solver._screen_nodes(starts, search.c_vec)
    _start(solver, search, starts, screened, initial_duals, warm)
    run_rounds(solver, [search])
    return search.result


def maximize_thresholds(solver: BaBSolver,
                        searches: Sequence[Tuple[np.ndarray, float]]
                        ) -> List[BaBResult]:
    """The threshold searches ``max c @ f(x) <= threshold`` of one check,
    run together (module docstring, "The searches of one check"): the
    result of every search the sequential loop runs, in order, ending
    with the first one refuted or at its node limit."""
    states = [FrontierSearch(solver, c, threshold) for c, threshold in searches]
    if not states:
        return []
    root = np.zeros((1, sum(solver.encoding.phase_widths)), dtype=np.int8)
    # One screen of the all-free root under every objective.
    ubs, feasible = solver._screen_nodes(
        root, np.stack([search.c_vec for search in states]))
    started: List[FrontierSearch] = []
    for k, search in enumerate(states):
        started.append(search)
        _start(solver, search, root, (ubs[:, k], feasible), None, False)
        if search.result is not None and search.result.status in _DECISIVE:
            break
    run_rounds(solver, started)
    results = []
    for search in started:
        results.append(search.result)
        if search.result.status in _DECISIVE:
            break
    return results
