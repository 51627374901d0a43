"""A small but real branch-and-bound MILP solver on top of ``linprog``.

The paper's worked example (Equation 2) and its citations [12]-[14] rely on
mixed-integer linear programming with binary ReLU indicators.  Commercial
solvers are unavailable offline, so this module provides a self-contained
best-first branch-and-bound over the binary variables with LP relaxations
solved by HiGHS.  It is exact (up to ``tol``) for the bounded binary MILPs
produced by :meth:`NetworkEncoding.build_milp`, and generic enough to be
used as a standalone substrate.

Branching only edits *variable bounds*, so one :class:`LinearSystem` --
dense or CSR -- serves every node and each relaxation hands the same
matrices straight to HiGHS (see :func:`repro.exact.lp.solve_lp`); nothing
is re-stacked per node.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.api.config import DEFAULT_TOL
from repro.errors import SolverError
from repro.exact.encoding import LinearSystem
from repro.exact.lp import (
    LP_INFEASIBLE,
    LP_OPTIMAL,
    LP_UNBOUNDED,
    solve_lp,
)

__all__ = ["MILPResult", "solve_milp"]

MILP_OPTIMAL = "optimal"
MILP_INFEASIBLE = "infeasible"
MILP_NODE_LIMIT = "node_limit"


@dataclass
class MILPResult:
    """Outcome of a mixed-integer solve (minimisation orientation).

    ``value`` is the incumbent objective; ``bound`` is a valid lower bound
    on the true optimum (they coincide at optimality).  ``x`` is the best
    integer-feasible point found, ``None`` when the problem is infeasible.
    """

    status: str
    value: float
    bound: float
    x: Optional[np.ndarray]
    nodes: int

    @property
    def optimal(self) -> bool:
        return self.status == MILP_OPTIMAL


def _solve_relaxation(c, system: LinearSystem, extra_bounds):
    bounds = list(system.bounds)
    for idx, (lo, hi) in extra_bounds.items():
        bounds[idx] = (lo, hi)
    return solve_lp(c, system.a_ub, system.b_ub, system.a_eq, system.b_eq, bounds)


def solve_milp(c: np.ndarray, system: LinearSystem,
               maximize: bool = False,
               tol: float = DEFAULT_TOL,
               node_limit: int = 10000) -> MILPResult:
    """Solve ``min (or max) c @ x`` over the mixed-integer set in ``system``.

    ``system.integer_mask`` marks the binary variables; their bounds must be
    ``[0, 1]``.  ``system`` may carry dense or ``scipy.sparse`` constraint
    matrices -- every node's relaxation shares them unmodified.  Returns a
    :class:`MILPResult` in *minimisation* orientation regardless of
    ``maximize`` (the caller's value/bound are negated back).
    """
    c = np.asarray(c, dtype=np.float64)
    if maximize:
        res = solve_milp(-c, system, maximize=False, tol=tol, node_limit=node_limit)
        return MILPResult(
            status=res.status,
            value=-res.value,
            bound=-res.bound,
            x=res.x,
            nodes=res.nodes,
        )

    int_idx = np.flatnonzero(system.integer_mask)

    incumbent_value = float("inf")
    incumbent_x: Optional[np.ndarray] = None
    nodes = 0
    counter = itertools.count()  # heap tiebreaker

    root = _solve_relaxation(c, system, {})
    if root.status == LP_INFEASIBLE:
        return MILPResult(MILP_INFEASIBLE, float("inf"), float("inf"), None, 1)
    if root.status == LP_UNBOUNDED:
        raise SolverError("MILP relaxation is unbounded; add variable bounds")

    # Heap entries: (lp_bound, tiebreak, fixings dict).
    heap: List[Tuple[float, int, dict]] = [(root.value, next(counter), {})]
    lp_cache = {(): root}

    def integer_violation(x: np.ndarray) -> Tuple[float, int]:
        if int_idx.size == 0:
            return 0.0, -1
        frac = np.abs(x[int_idx] - np.round(x[int_idx]))
        j = int(np.argmax(frac))
        return float(frac[j]), int(int_idx[j])

    while heap:
        bound, _, fixings = heapq.heappop(heap)
        if bound >= incumbent_value - tol:
            continue  # cannot improve
        nodes += 1
        if nodes > node_limit:
            open_bound = min([bound] + [b for b, _, _ in heap])
            status = MILP_NODE_LIMIT
            return MILPResult(status, incumbent_value, min(open_bound, incumbent_value),
                              incumbent_x, nodes)
        key = tuple(sorted(fixings.items()))
        res = lp_cache.pop(key, None)
        if res is None:
            res = _solve_relaxation(c, system, fixings)
        if res.status != LP_OPTIMAL:
            continue
        if res.value >= incumbent_value - tol:
            continue
        frac, var = integer_violation(res.x)
        if frac <= tol:
            # Integer feasible: new incumbent.
            if res.value < incumbent_value:
                incumbent_value = res.value
                incumbent_x = res.x.copy()
                if int_idx.size:
                    incumbent_x[int_idx] = np.round(incumbent_x[int_idx])
            continue
        # Branch on the most fractional binary.
        for lo, hi in ((0.0, 0.0), (1.0, 1.0)):
            child = dict(fixings)
            child[var] = (lo, hi)
            child_res = _solve_relaxation(c, system, child)
            if child_res.status != LP_OPTIMAL:
                continue
            if child_res.value >= incumbent_value - tol:
                continue
            ckey = tuple(sorted(child.items()))
            lp_cache[ckey] = child_res
            heapq.heappush(heap, (child_res.value, next(counter), child))

    if incumbent_x is None:
        return MILPResult(MILP_INFEASIBLE, float("inf"), float("inf"), None, nodes)
    return MILPResult(MILP_OPTIMAL, incumbent_value, incumbent_value, incumbent_x, nodes)
