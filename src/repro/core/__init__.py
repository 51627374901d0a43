"""Core contribution: continuous safety verification with proof reuse."""

from repro.core.problem import SVbTV, SVuDC, VerificationProblem
from repro.core.artifacts import (
    LipschitzCertificate,
    ProofArtifacts,
    StateAbstractions,
    load_artifacts,
    save_artifacts,
)
from repro.core.propositions import (
    PropositionResult,
    SubproblemReport,
    check_prop3,
    check_prop6,
)
from repro.core.verifier import BaselineOutcome
from repro.core.fixing import FixingResult, incremental_fix
from repro.core.continuous import ContinuousResult, ContinuousVerifier
from repro.core.loop import EngineeringLoop, LoopStep
from repro.core.parallel import (
    makespan,
    parallel_time,
    run_parallel,
    sequential_time,
)
from repro.core.report import (
    Table1Row,
    format_continuous_result,
    format_proposition_result,
    format_table1,
)

__all__ = [
    "BaselineOutcome",
    "EngineeringLoop",
    "LoopStep",
    "ContinuousResult",
    "ContinuousVerifier",
    "FixingResult",
    "LipschitzCertificate",
    "ProofArtifacts",
    "PropositionResult",
    "SVbTV",
    "SVuDC",
    "StateAbstractions",
    "SubproblemReport",
    "Table1Row",
    "VerificationProblem",
    "check_prop3",
    "check_prop6",
    "format_continuous_result",
    "format_proposition_result",
    "format_table1",
    "incremental_fix",
    "load_artifacts",
    "makespan",
    "parallel_time",
    "run_parallel",
    "save_artifacts",
    "sequential_time",
]
