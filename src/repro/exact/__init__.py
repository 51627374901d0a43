"""Exact verification: LP, big-M MILP, ReLU branch-and-bound, splitting."""

from repro.exact.lp import (
    LP_INFEASIBLE,
    LP_OPTIMAL,
    LP_UNBOUNDED,
    LPResult,
    solve_lp,
    solve_system,
)
from repro.exact.encoding import (
    LinearSystem,
    NetworkEncoding,
    PhaseMap,
    clear_encoding_cache,
    encoding_cache_stats,
)
from repro.exact.milp import MILPResult, solve_milp
from repro.exact.bab import (
    BaBResult,
    BaBSolver,
    CoveringLeaves,
)
from repro.exact.splitting import SplitResult, check_containment_split
from repro.exact.tighten import TightenStats, tighten_preactivation_bounds
from repro.exact.incremental import BranchCertificate, prove_with_certificate
from repro.exact.verify import ContainmentResult

__all__ = [
    "BaBResult",
    "BranchCertificate",
    "TightenStats",
    "prove_with_certificate",
    "tighten_preactivation_bounds",
    "BaBSolver",
    "ContainmentResult",
    "CoveringLeaves",
    "LP_INFEASIBLE",
    "LP_OPTIMAL",
    "LP_UNBOUNDED",
    "LPResult",
    "LinearSystem",
    "MILPResult",
    "NetworkEncoding",
    "PhaseMap",
    "SplitResult",
    "check_containment_split",
    "clear_encoding_cache",
    "encoding_cache_stats",
    "solve_lp",
    "solve_milp",
    "solve_system",
]
