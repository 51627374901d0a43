"""Persistent, hot-started HiGHS node kernel for branch and bound.

Every node LP of a search over one
:class:`~repro.exact.encoding.NetworkEncoding` shares one constraint
matrix (the fixed node layout of :mod:`repro.exact.encoding`), and a
child differs from its parent only in a few column bounds and right-hand
sides.  So instead of rebuilding the model and re-validating its inputs
for every node (what ``linprog`` does), this module keeps a HiGHS model
of the encoding on each thread that solves its nodes (:func:`kernel_for`)
and solves a node as::

    clearSolver() -> set the node's bounds -> setBasis(parent) -> run()

a dual simplex restarted from the parent's optimal basis, which stays
dual feasible under bound changes, so a child typically needs a handful
of iterations (Huangfu & Hall, 2018, "Parallelizing the dual revised
simplex method").  Nodes without a parent -- the root and certificate
warm starts -- solve cold on the same model.

History independence
--------------------
``clearSolver`` discards everything the previous solve left in the
instance (factorization, edge weights, solution), so a node's result is
a function of the node and its parent's basis only, never of which nodes
the thread's kernel solved before.  That keeps the frontier search's
verdicts byte-identical across worker counts.

Private API
-----------
This is the only module that uses scipy's private binding
``scipy.optimize._highspy._core._Highs``.  The methods it calls are
checked at import (:func:`check_binding`): a scipy without them raises a
permanent :class:`~repro.errors.SolverError` naming what is missing, and
nothing falls back to ``linprog`` silently.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import SolverError
from repro.exact.lp import LP_INFEASIBLE, LP_OPTIMAL, LP_UNBOUNDED, LPResult

try:
    from scipy.optimize._highspy import _core
except ImportError:  # pragma: no cover - scipy without the HiGHS binding
    _core = None

if TYPE_CHECKING:
    from repro.exact.encoding import LinearSystem, NetworkEncoding

__all__ = ["REQUIRED_METHODS", "NodeKernel", "check_binding", "kernel_for"]

#: Every ``_Highs`` method the kernel calls.
REQUIRED_METHODS = (
    "passModel", "changeColsCost", "changeColsBounds", "changeRowBounds",
    "clearSolver", "setBasis", "getBasis", "run", "getSolution", "getInfo",
    "getModelStatus",
)

#: Solver options of every kernel: quiet, serial dual simplex, and no
#: presolve, so a hot start runs on the model exactly as passed.
_OPTIONS = (("output_flag", False), ("presolve", "off"),
            ("solver", "simplex"), ("simplex_strategy", 1))


def check_binding() -> None:
    """Raise :class:`SolverError` unless scipy's ``_Highs`` binding has
    every method in :data:`REQUIRED_METHODS`."""
    highs = getattr(_core, "_Highs", None)
    if highs is None:
        raise SolverError(
            "scipy.optimize._highspy._core._Highs is unavailable; the "
            "branch-and-bound node kernel needs scipy's HiGHS binding")
    missing = [name for name in REQUIRED_METHODS
               if not callable(getattr(highs, name, None))]
    if missing:
        raise SolverError(
            f"scipy's HiGHS binding _Highs lacks {', '.join(missing)}; the "
            "branch-and-bound node kernel cannot run")


check_binding()


class NodeKernel:
    """One HiGHS instance holding one encoding's fixed node-LP model.

    Rows are ``a_ub`` then ``a_eq``, so HiGHS row duals split into the
    ``(dual_ub, dual_eq)`` pair of :class:`~repro.exact.lp.LPResult`.  Not
    thread-safe: each thread solves on its own kernel (:func:`kernel_for`).
    """

    def __init__(self, system: "LinearSystem"):
        check_binding()
        n = system.num_vars
        blocks = [m for m in (system.a_ub, system.a_eq) if m is not None]
        matrix = sp.csc_matrix(sp.vstack(blocks)) if blocks \
            else sp.csc_matrix((0, n))
        self.num_ub = 0 if system.a_ub is None else system.a_ub.shape[0]
        b_ub = np.zeros(0) if system.b_ub is None else system.b_ub
        b_eq = np.zeros(0) if system.b_eq is None else system.b_eq
        col_lo = np.array([-np.inf if lo is None else lo
                           for lo, _ in system.bounds], dtype=np.float64)
        col_hi = np.array([np.inf if hi is None else hi
                           for _, hi in system.bounds], dtype=np.float64)

        lp = _core.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = matrix.shape[0]
        lp.col_cost_ = np.zeros(n)
        lp.col_lower_ = col_lo
        lp.col_upper_ = col_hi
        lp.row_lower_ = np.concatenate([np.full(self.num_ub, -np.inf), b_eq])
        lp.row_upper_ = np.concatenate([b_ub, b_eq])
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = matrix.shape[0]
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        highs = _core._Highs()
        for name, value in _OPTIONS:
            highs.setOptionValue(name, value)
        if highs.passModel(lp) == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the node-LP model")
        self._highs = highs
        self._cols = np.arange(n, dtype=np.int32)
        # The model's current cost, column bounds and b_ub: a node only
        # sends HiGHS the entries that differ.
        self._cost = np.zeros(n)
        self._col_lo = col_lo
        self._col_hi = col_hi
        self._b_ub = np.array(b_ub, dtype=np.float64)

    def solve(self, cost: np.ndarray, col_lo: np.ndarray, col_hi: np.ndarray,
              b_ub: Optional[np.ndarray], basis=None, want_duals: bool = False,
              label: str = "") -> LPResult:
        """Minimise ``cost @ x`` on the model with these bounds.

        ``basis`` (a parent's :attr:`LPResult.basis`) hot-starts the dual
        simplex; ``None`` solves cold.  An empty column interval (a
        contradictory phase, or tightened bounds that cross) is
        infeasible at once, with no solve.  Statuses and the
        ``want_duals`` multipliers follow :func:`repro.exact.lp.solve_lp`;
        any other HiGHS outcome raises :class:`SolverError` naming
        ``label``.
        """
        if np.any(col_lo > col_hi):
            return LPResult(LP_INFEASIBLE, float("nan"), None)
        highs = self._highs
        highs.clearSolver()
        if not np.array_equal(cost, self._cost):
            highs.changeColsCost(self._cols.size, self._cols, cost)
            self._cost = np.array(cost, dtype=np.float64)
        moved = np.flatnonzero((col_lo != self._col_lo) | (col_hi != self._col_hi))
        if moved.size:
            highs.changeColsBounds(moved.size, self._cols[moved],
                                   col_lo[moved], col_hi[moved])
            self._col_lo = np.array(col_lo, dtype=np.float64)
            self._col_hi = np.array(col_hi, dtype=np.float64)
        if b_ub is not None:
            for row in np.flatnonzero(b_ub != self._b_ub).tolist():
                highs.changeRowBounds(row, -np.inf, float(b_ub[row]))
            self._b_ub = np.array(b_ub, dtype=np.float64)
        if basis is not None:
            highs.setBasis(basis)
        where = f" [{label}]" if label else ""
        if highs.run() == _core.HighsStatus.kError:
            raise SolverError(f"HiGHS node solve failed{where}")
        status = highs.getModelStatus()
        if status == _core.HighsModelStatus.kOptimal:
            solution = highs.getSolution()
            dual_ub = dual_eq = None
            if want_duals:
                # HiGHS row duals are d(objective)/d(rhs): negate for the
                # nonnegative ``<=`` multipliers of a minimisation.
                duals = -np.asarray(solution.row_dual, dtype=np.float64)
                if self.num_ub:
                    dual_ub = duals[:self.num_ub]
                if duals.size > self.num_ub:
                    dual_eq = duals[self.num_ub:]
            return LPResult(LP_OPTIMAL,
                            float(highs.getInfo().objective_function_value),
                            np.asarray(solution.col_value, dtype=np.float64),
                            dual_ub, dual_eq, basis=highs.getBasis())
        if status == _core.HighsModelStatus.kInfeasible:
            return LPResult(LP_INFEASIBLE, float("nan"), None)
        if status == _core.HighsModelStatus.kUnbounded:
            return LPResult(LP_UNBOUNDED, float("nan"), None)
        raise SolverError(
            f"HiGHS node solve failed{where}: model status {status.name}")


#: Each thread's ``(encoding, kernel)``.  One slot per thread: a live
#: HiGHS instance holds ~0.15 MB, so kernels are not kept for every
#: cached encoding; a thread that moves to another encoding reloads.
_LOCAL = threading.local()


def kernel_for(encoding: "NetworkEncoding") -> NodeKernel:
    """The calling thread's kernel holding ``encoding``'s fixed node-LP
    model, loaded from :meth:`~repro.exact.encoding.NetworkEncoding.
    build_lp` when the thread last solved for another encoding."""
    slot = getattr(_LOCAL, "slot", None)
    if slot is None or slot[0] is not encoding:
        slot = (encoding, NodeKernel(encoding.build_lp()))
        _LOCAL.slot = slot
    return slot[1]
