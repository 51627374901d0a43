"""Thin wrapper around ``scipy.optimize.linprog`` (HiGHS backend).

Normalises the solver interface the rest of :mod:`repro.exact` builds on:
explicit statuses, consistent ``None`` handling for absent constraint
groups, and a :class:`SolverError` for genuine backend failures (as opposed
to the ordinary *infeasible* / *unbounded* verdicts, which are results).

Constraint matrices may be dense ``np.ndarray`` or ``scipy.sparse``; both
are handed to HiGHS as-is.  This is the path for one-off LPs (bound
tightening, the MILP relaxations) and the differential oracle of the
branch-and-bound node kernel, which solves node LPs itself
(:mod:`repro.exact.highs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.errors import SolverError

__all__ = ["LPResult", "solve_lp", "solve_system",
           "LP_OPTIMAL", "LP_INFEASIBLE", "LP_UNBOUNDED"]

LP_OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"
LP_UNBOUNDED = "unbounded"

_STATUS_MAP = {0: LP_OPTIMAL, 2: LP_INFEASIBLE, 3: LP_UNBOUNDED}

@dataclass
class LPResult:
    """Outcome of one LP solve.

    ``value`` and ``x`` are only meaningful when ``status == LP_OPTIMAL``.
    ``dual_ub`` / ``dual_eq`` are the optimal row multipliers (sign
    convention: ``lambda >= 0`` for the ``<=`` rows of a minimisation),
    populated only when the solve was asked for them.  ``basis`` is the
    optimal HiGHS basis of a node-kernel solve, the hot start of the
    node's children (``None`` from :func:`solve_lp`).
    """

    status: str
    value: float
    x: Optional[np.ndarray]
    dual_ub: Optional[np.ndarray] = None
    dual_eq: Optional[np.ndarray] = None
    basis: Optional[object] = None

    @property
    def optimal(self) -> bool:
        return self.status == LP_OPTIMAL


def solve_lp(c: np.ndarray,
             a_ub=None,
             b_ub: Optional[np.ndarray] = None,
             a_eq=None,
             b_eq: Optional[np.ndarray] = None,
             bounds: Optional[Sequence[Tuple[Optional[float], Optional[float]]]] = None,
             label: str = "",
             want_duals: bool = False,
             ) -> LPResult:
    """Minimise ``c @ x`` subject to ``a_ub x <= b_ub``, ``a_eq x == b_eq``
    and variable ``bounds`` (default: free variables).

    ``a_ub`` / ``a_eq`` may be dense or ``scipy.sparse`` matrices.  Rows
    with ``b_ub = +inf`` are vacuous (the unfixed phase rows of a node
    LP): they are left out of the solve and get zero multipliers.

    Raises :class:`SolverError` if HiGHS reports a numerical failure or an
    iteration/time limit -- conditions a verification result must never be
    silently built on.  ``label`` names the solve in that error (essential
    when many node LPs run concurrently and one fails: the exception must
    say *which* region's relaxation broke).

    ``want_duals`` additionally extracts the optimal row multipliers into
    ``LPResult.dual_ub`` / ``dual_eq`` -- no extra solver work, HiGHS
    computes them anyway; off by default so the hot node-LP path carries
    nothing it does not use.

    Thread-safety: ``linprog``/HiGHS holds no module state, so concurrent
    calls from the shared worker pool are safe.
    """
    c = np.asarray(c, dtype=np.float64)
    if bounds is None:
        bounds = [(None, None)] * c.size
    kept = None
    if b_ub is not None:
        b_ub = np.asarray(b_ub, dtype=np.float64)
        if np.any(b_ub == np.inf):
            kept = np.flatnonzero(b_ub != np.inf)
            rows = sp.csr_matrix(a_ub) if sp.issparse(a_ub) else np.asarray(a_ub)
    res = linprog(
        c,
        A_ub=a_ub if kept is None else (rows[kept] if kept.size else None),
        b_ub=b_ub if kept is None else (b_ub[kept] if kept.size else None),
        A_eq=a_eq, b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    status = _STATUS_MAP.get(res.status)
    if status is None:
        where = f" [{label}]" if label else ""
        raise SolverError(
            f"linprog failed{where}: status={res.status} "
            f"message={res.message!r}")
    if status == LP_OPTIMAL:
        dual_ub = dual_eq = None
        if want_duals:
            # HiGHS marginals are d(fun)/d(rhs); for a minimisation over
            # ``A_ub x <= b_ub`` that is ``-lambda``, so negate to get the
            # conventional nonnegative multipliers (certificate reuse
            # evaluates them as a Lagrangian bound -- repro.certs.reuse).
            if a_ub is not None:
                dual_ub = np.zeros(len(b_ub))
                dual_ub[slice(None) if kept is None else kept] = -np.asarray(
                    res.ineqlin.marginals, dtype=np.float64)
            if a_eq is not None:
                dual_eq = -np.asarray(res.eqlin.marginals, dtype=np.float64)
        return LPResult(status=status, value=float(res.fun),
                        x=np.asarray(res.x), dual_ub=dual_ub, dual_eq=dual_eq)
    return LPResult(status=status, value=float("nan"), x=None)


def solve_system(c: np.ndarray, system, label: str = "") -> LPResult:
    """Solve ``min c @ x`` over a :class:`~repro.exact.encoding.LinearSystem`
    (its integer mask, if any, is relaxed -- this is the LP relaxation)."""
    return solve_lp(c, system.a_ub, system.b_ub, system.a_eq, system.b_eq,
                    system.bounds, label=label)
