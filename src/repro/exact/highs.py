"""Persistent, hot-started HiGHS node kernel for branch and bound.

Every node LP of a search over one
:class:`~repro.exact.encoding.NetworkEncoding` shares one constraint
matrix (the fixed node layout of :mod:`repro.exact.encoding`), and a
child differs from its parent only in a few column bounds and right-hand
sides.  So instead of rebuilding the model and re-validating its inputs
for every node (what ``linprog`` does), this module keeps a HiGHS model
of the encoding on each thread that solves its nodes (:func:`kernel_for`;
a thread keeps the models of its few most recent encodings) and solves a
node as::

    clearSolver() -> set the node's bounds -> setBasis(parent) -> run()

a dual simplex restarted from the parent's optimal basis, which stays
dual feasible under bound changes, so a child typically needs a handful
of iterations (Huangfu & Hall, 2018, "Parallelizing the dual revised
simplex method").  Nodes without a parent -- the root and certificate
warm starts -- solve cold on the same model.

History
-------
``clearSolver`` discards the factorization, edge weights and solution
the previous solve left in the instance, and the kernel re-sends every
input that differs from the model's current one.  The cutoff (HiGHS
``objective_bound``) is an option, which ``clearSolver`` keeps, so the
kernel treats it as a per-solve input too: every solve whose cutoff
differs from the kernel's last one sets the option again.  A node's
result is then a function of the node, its parent's basis and its cutoff
-- up to state HiGHS keeps across ``clearSolver`` until the model is
passed again: after a solve with another objective, a node can take
other pivots (the exact output range of a random 6-16-12-6 network takes
1064 node LPs on a kernel that first maximised a six-term objective, and
1096 on a new one).  Passing the model again resets that state, at a
small part of a new kernel's cost, so :func:`kernel_for` does it
whenever a thread comes back to an encoding: a kept kernel's history is
exactly that of a kernel built at that moment, the solves since the
thread last switched encodings.

Cutoff
------
A branch-and-bound child is only worth solving to optimality if its
bound can beat the search's bar.  ``cutoff`` hands the dual simplex that
objective limit (Achterberg, 2007): once the *exact*, unperturbed dual
objective of its dual feasible iterate exceeds ``cutoff``, HiGHS stops
with ``kObjectiveBound``.  By weak duality that dual objective is a lower
bound on the node's minimum, so the node is settled: the kernel returns
:data:`~repro.exact.lp.LP_CUTOFF` with the dual objective as ``value``
and the iterate's row multipliers, but no primal point and no basis.

Pricing
-------
Because ``clearSolver`` also discards the dual simplex's edge weights,
the default dual steepest-edge pricing would recompute its exact weights
from scratch at every hot start -- a cost paid per node for weights a
child then uses for only a few iterations.  The kernel prices with Devex
instead, which starts from unit reference weights and updates them
cheaply as it goes (Forrest & Goldfarb, 1992; Huangfu & Hall, 2018).

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
from repro.exact.lp import (LP_CUTOFF, LP_INFEASIBLE, LP_OPTIMAL,
                            LP_UNBOUNDED, LPResult)

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
    "clearSolver", "setBasis", "getBasis", "run", "getSolution",
    "getObjectiveValue", "getModelStatus", "setOptionValue",
)

#: Solver options of every kernel: quiet, serial dual simplex, and no
#: presolve, so a hot start runs on the model exactly as passed.  Devex
#: pricing (strategy 1): ``clearSolver`` throws the edge weights away
#: before every node, and Devex restarts from unit weights where dual
#: steepest edge would recompute exact ones at each hot start.
_OPTIONS = (("output_flag", False), ("presolve", "off"),
            ("solver", "simplex"), ("simplex_strategy", 1),
            ("simplex_dual_edge_weight_strategy", 1))


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
        self._highs = highs
        self._lp = lp
        self._base = (col_lo, col_hi, np.array(b_ub, dtype=np.float64))
        self._cols = np.arange(n, dtype=np.int32)
        self._cutoff = np.inf
        self.reset()

    def reset(self) -> None:
        """Pass the model again: the kernel then solves every node as a
        newly built one would (module docstring, "History")."""
        if self._highs.passModel(self._lp) == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the node-LP model")
        # The model's current cost, column bounds and b_ub (and, above,
        # the cutoff option, which a new model keeps): a node only sends
        # HiGHS the entries that differ.
        self._cost = np.zeros(self._cols.size)
        self._col_lo, self._col_hi, self._b_ub = self._base

    def solve(self, cost: np.ndarray, col_lo: np.ndarray, col_hi: np.ndarray,
              b_ub: Optional[np.ndarray], basis=None,
              label: str = "", cutoff: float = np.inf) -> LPResult:
        """Minimise ``cost @ x`` on the model with these bounds.

        ``basis`` (a parent's :attr:`LPResult.basis`) hot-starts the dual
        simplex; ``None`` solves cold.  A finite ``cutoff`` ends the solve
        as soon as the dual objective exceeds it (:data:`LP_CUTOFF`; see
        the module docstring).  An empty column interval (a contradictory
        phase, or tightened bounds that cross) is infeasible at once, with
        no solve.  Other statuses follow :func:`repro.exact.lp.solve_lp`,
        and an optimal or cut result always carries the row multipliers
        (HiGHS computes them with every solution; the search branches on
        them); any other HiGHS outcome raises :class:`SolverError` naming
        ``label``.  ``cost`` must not change in place between the solves
        that pass it: the kernel recognises the array it last loaded.
        """
        if (col_lo > col_hi).any():
            return LPResult(LP_INFEASIBLE, float("nan"), None)
        highs = self._highs
        highs.clearSolver()
        if cost is not self._cost and not np.array_equal(cost, self._cost):
            highs.changeColsCost(self._cols.size, self._cols, cost)
            self._cost = cost
        if cutoff != self._cutoff:
            highs.setOptionValue("objective_bound", float(cutoff))
            self._cutoff = cutoff
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
        optimal = status == _core.HighsModelStatus.kOptimal
        if optimal or status == _core.HighsModelStatus.kObjectiveBound:
            solution = highs.getSolution()
            # HiGHS row duals are d(objective)/d(rhs): negate for the
            # nonnegative ``<=`` multipliers of a minimisation.
            duals = -np.asarray(solution.row_dual, dtype=np.float64)
            dual_ub = duals[:self.num_ub] if self.num_ub else None
            dual_eq = duals[self.num_ub:] if duals.size > self.num_ub \
                else None
            value = float(highs.getObjectiveValue())
            if not optimal:  # cut: a dual bound, no primal point
                return LPResult(LP_CUTOFF, value, None, dual_ub, dual_eq)
            return LPResult(LP_OPTIMAL, value,
                            np.asarray(solution.col_value, dtype=np.float64),
                            dual_ub, dual_eq, basis=highs.getBasis())
        if status == _core.HighsModelStatus.kInfeasible:
            return LPResult(LP_INFEASIBLE, float("nan"), None)
        if status == _core.HighsModelStatus.kUnbounded:
            return LPResult(LP_UNBOUNDED, float("nan"), None)
        raise SolverError(
            f"HiGHS node solve failed{where}: model status {status.name}")


#: Kernels each thread keeps.  A check's caller alternates between a few
#: cached encodings (the continuous loop re-checks the same layers round
#: after round), and a kernel rebuilt for each switch costs its model
#: assembly again; a fixed handful bounds the memory of a thread that
#: serves a new encoding per job (a solved kernel of the 27-16-12-1
#: vehicle head holds about 0.4 MB).
_KERNELS_PER_THREAD = 4

#: Each thread's ``[(encoding, kernel), ...]``, least recently used
#: first: one kernel per encoding, at most ``_KERNELS_PER_THREAD``.  A
#: kernel the thread comes back to is reset (module docstring,
#: "History"), so keeping it changes no result.
_LOCAL = threading.local()


def kernel_for(encoding: "NetworkEncoding") -> NodeKernel:
    """The calling thread's kernel holding ``encoding``'s fixed node-LP
    model, loaded from :meth:`~repro.exact.encoding.NetworkEncoding.
    build_lp` when the thread keeps none for it (evicting its least
    recently used kernel beyond ``_KERNELS_PER_THREAD``)."""
    kernels = getattr(_LOCAL, "kernels", None)
    if kernels is None:
        kernels = _LOCAL.kernels = []
    for k, (held, kernel) in enumerate(kernels):
        if held is encoding:
            if k != len(kernels) - 1:
                kernels.append(kernels.pop(k))
                kernel.reset()  # back from another encoding
            return kernel
    kernel = NodeKernel(encoding.build_lp())
    kernels.append((encoding, kernel))
    if len(kernels) > _KERNELS_PER_THREAD:
        del kernels[0]
    return kernel
