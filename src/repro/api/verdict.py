"""Uniform results: every engine run returns a Verdict with provenance.

The solvers behind the engine each return their own result shape
(:class:`~repro.exact.verify.ContainmentResult`,
:class:`~repro.exact.bab.BaBResult`,
:class:`~repro.core.propositions.PropositionResult`, ...).  The engine
keeps those objects -- they carry the byte-exact numbers the equivalence
suite compares -- but wraps each in a :class:`Verdict` subclass sharing
one surface:

* ``holds``      -- the three-valued answer (``None`` for pure value
  queries such as an output range, or when inconclusive);
* ``provenance`` -- wall time, LP/node counts, frontier rounds, pool
  width, and the encoding-cache reuse delta of this run;
* ``result``     -- the underlying solver result object, untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.api.config import DEFAULT_WORKERS
from repro.domains.box import Box

__all__ = [
    "Provenance",
    "Verdict",
    "ContainmentVerdict",
    "RangeVerdict",
    "ThresholdVerdict",
    "MaximizeVerdict",
    "PropositionVerdict",
    "ContinuousVerdict",
    "BaselineVerdict",
    "FailedVerdict",
]


@dataclass
class Provenance:
    """How a verdict was produced (the Table-I bookkeeping, unified).

    ``encoding_reuse`` is the fingerprint-cache ``{"hits", "misses"}``
    delta over this run; the counters are process-wide, so attribute the
    delta to one run only when runs do not overlap in time (the same
    caveat as :attr:`repro.core.continuous.ContinuousResult.encoding_reuse`).
    """

    elapsed: float = 0.0
    lp_solves: int = 0
    nodes: int = 0
    rounds: int = 0
    workers: int = DEFAULT_WORKERS
    encoding_reuse: Dict[str, int] = field(default_factory=dict)
    #: ``True`` when this verdict was replayed from a verdict cache (the
    #: serving layer of :mod:`repro.serve`) instead of being solved anew.
    #: ``elapsed``/``lp_solves`` then describe the *original* solve.
    cached: bool = False
    #: Stored-certificate leaves adopted as warm starts by this run
    #: (:mod:`repro.certs`); zero for cold solves.
    nodes_reused: int = 0
    #: LP solves this run avoided versus the certificate's recorded
    #: from-scratch baseline (or, when no baseline is stored, the number
    #: of warm starts the batched float64 re-screen settled without an
    #: LP) -- the delta-verification win this run actually banked.
    lp_solves_saved: int = 0
    #: ``True`` when a stored certificate was found, validated, and used
    #: to warm-start this run (its bounds re-checked, never trusted).
    cert_hit: bool = False


@dataclass
class Verdict:
    """Base result of ``engine.verify(spec)``."""

    spec_type: str
    holds: Optional[bool]
    provenance: Provenance
    detail: str = ""

    @property
    def conclusive(self) -> bool:
        return self.holds is not None


@dataclass
class ContainmentVerdict(Verdict):
    """Verdict of a :class:`~repro.api.specs.ContainmentSpec`."""

    #: The untouched solver result (``holds``/``method``/``counterexample``
    #: /``violation``/``lp_solves``/``nodes``).
    result: "ContainmentResult" = None  # noqa: F821

    @property
    def counterexample(self) -> Optional[np.ndarray]:
        return self.result.counterexample

    @property
    def violation(self) -> float:
        return self.result.violation


@dataclass
class RangeVerdict(Verdict):
    """Verdict of an :class:`~repro.api.specs.OutputRangeSpec`: a value
    query, so ``holds`` is ``None`` and the payload is the exact box."""

    output_range: Box = None


@dataclass
class ThresholdVerdict(Verdict):
    """Verdict of a :class:`~repro.api.specs.ThresholdSpec`."""

    result: "BaBResult" = None  # noqa: F821
    #: The reusable branching certificate (``None`` unless proved).
    certificate: Optional["BranchCertificate"] = None  # noqa: F821

    @property
    def certified(self) -> bool:
        return self.certificate is not None


@dataclass
class MaximizeVerdict(Verdict):
    """Verdict of a :class:`~repro.api.specs.MaximizeSpec`.  ``holds`` is
    the threshold answer (``None`` for a pure optimisation)."""

    result: "BaBResult" = None  # noqa: F821

    @property
    def status(self) -> str:
        return self.result.status

    @property
    def optimum(self) -> float:
        """Exact optimum -- raises off the optimal path (see
        :meth:`repro.exact.bab.BaBResult.optimum`)."""
        return self.result.optimum


@dataclass
class PropositionVerdict(Verdict):
    """Verdict of a :class:`~repro.api.specs.PropositionSpec`.  Note the
    proposition semantics: ``False`` means *this reuse condition fails*,
    not that the property is refuted."""

    result: "PropositionResult" = None  # noqa: F821

    @property
    def subproblems(self):
        return self.result.subproblems


@dataclass
class ContinuousVerdict(Verdict):
    """Verdict of a :class:`~repro.api.specs.ContinuousLoopSpec`."""

    result: "ContinuousResult" = None  # noqa: F821

    @property
    def strategy(self) -> str:
        return self.result.strategy


@dataclass
class FailedVerdict(Verdict):
    """A spec whose execution *errored* (not a refutation: ``holds`` is
    ``None``).  Produced by ``engine.submit`` for per-spec failures and by
    the serving layer for jobs that raised or timed out, so one bad spec
    in a batch cannot lose the other verdicts."""

    #: The exception message (or a timeout notice).
    error: str = ""
    #: The exception class name (``"TimeoutError"`` for deadline expiry).
    error_type: str = ""


@dataclass
class BaselineVerdict(Verdict):
    """Result of ``engine.baseline(problem)``: the from-scratch proof,
    with the reusable artifacts the continuous loop feeds on."""

    result: "BaselineOutcome" = None  # noqa: F821

    @property
    def artifacts(self) -> "ProofArtifacts":  # noqa: F821
        return self.result.artifacts
