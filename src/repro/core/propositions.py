"""Propositions 1-6: sufficient conditions for proof reuse (Section IV).

Each checker is *sound but incomplete*: a ``True`` verdict proves the new
property; ``False``/``None`` only means this particular reuse strategy does
not apply (the orchestrator then tries the next one, or falls back to full
re-verification).  Every checker returns a :class:`PropositionResult`
carrying a per-subproblem breakdown with wall-clock timings, because the
paper's Table I metric is precisely the (max-)subproblem time relative to
the original verification time.

Block indexing: paper layer ``g_i`` is block ``i-1``; the state abstraction
``S_i`` is ``states.layer(i-1)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence


from repro.errors import ArtifactError
from repro.api.config import VerifyConfig
from repro.domains.batch import screen_containments
from repro.domains.box import Box, box_kappa
from repro.domains.propagate import get_propagator
from repro.exact.verify import ContainmentResult, _check_containment
from repro.nn.network import Network
from repro.core.artifacts import ProofArtifacts

__all__ = [
    "PROPOSITIONS",
    "SINGLE_PROPOSITIONS",
    "SubproblemReport",
    "PropositionResult",
    "check_prop3",
    "check_prop6",
]


#: The paper's six propositions, each one strategy of a continuous round.
SINGLE_PROPOSITIONS = PROP1, PROP2, PROP3, PROP4, PROP5, PROP6 = (
    "prop1", "prop2", "prop3", "prop4", "prop5", "prop6")
#: The SVbTV enlargement composites and the full re-verification fallback.
PROP6_PROP1, PROP6_PROP3, FULL = "prop6+prop1", "prop6+prop3", "full"
#: Every name a :class:`PropositionResult` can carry; the wire decodes no
#: other.
PROPOSITIONS = SINGLE_PROPOSITIONS + (PROP6_PROP1, PROP6_PROP3, FULL)


@dataclass
class SubproblemReport:
    """One independent local check (a unit of parallelisable work)."""

    name: str
    holds: Optional[bool]
    elapsed: float
    detail: str = ""
    lp_solves: int = 0

    @staticmethod
    def from_containment(name: str, result: ContainmentResult) -> "SubproblemReport":
        return SubproblemReport(
            name=name,
            holds=result.holds,
            elapsed=result.elapsed,
            detail=result.detail or result.method,
            lp_solves=result.lp_solves,
        )


@dataclass
class PropositionResult:
    """Verdict of one proposition attempt.

    ``holds`` semantics: ``True`` -- new property proved; ``False`` -- the
    sufficient condition demonstrably fails (not a safety refutation!);
    ``None`` -- inconclusive (e.g. solver budget exhausted).
    """

    proposition: str
    holds: Optional[bool]
    subproblems: List[SubproblemReport] = field(default_factory=list)
    elapsed: float = 0.0
    detail: str = ""

    @property
    def max_subproblem_time(self) -> float:
        """Table I's parallel metric: the slowest independent subproblem."""
        if not self.subproblems:
            return self.elapsed
        return max(s.elapsed for s in self.subproblems)

    @property
    def total_subproblem_time(self) -> float:
        return sum(s.elapsed for s in self.subproblems)


def _timed(proposition: str, started: float, holds: Optional[bool],
           subproblems: List[SubproblemReport], detail: str = "") -> PropositionResult:
    return PropositionResult(
        proposition=proposition,
        holds=holds,
        subproblems=subproblems,
        elapsed=time.perf_counter() - started,
        detail=detail,
    )


def _states_premise(artifacts: ProofArtifacts) -> Optional[str]:
    """Propositions 1/2/4/5 reuse the *proof* S_1..S_n; they require that
    the stored abstraction actually established ``S_n ⊆ Dout``.

    Returns an explanation string when the premise is missing (the checker
    then reports ``holds=None`` so the orchestrator can move on), ``None``
    when everything is in place.
    """
    if artifacts.states is None:
        return "state-abstraction artifact not available"
    if not artifacts.states.matches(artifacts.problem.network):
        return "state abstractions do not match the network"
    if not artifacts.states_prove_safety:
        return ("stored state abstractions did not establish S_n ⊆ Dout; "
                "they cannot be reused as a safety proof")
    return None


def _screened_checks(names: Sequence[str], triples, config: VerifyConfig,
                     stop_on_failure: bool = False):
    """Props 4/5's independent containment subproblems ``(subnetwork,
    source, target)``: all are screened in one batched stacked-interval
    pass (:func:`repro.domains.batch.screen_containments`), and only
    those the screen leaves open get a containment check under
    ``config``.  The screen is sound, so it never changes a verdict.

    Returns ``(reports, holds)``.  Every report -- screened *and*
    checked -- carries an equal share of the screen's wall-clock time,
    so summed subproblem times account for the whole batched call
    (Table I fidelity).  A refutation survives later inconclusive checks.
    """
    t0 = time.perf_counter()
    screened = screen_containments(triples)
    share = (time.perf_counter() - t0) / len(triples)
    reports: List[SubproblemReport] = []
    holds: Optional[bool] = True
    for name, verdict, (network, source, target) in zip(names, screened,
                                                        triples):
        if verdict is True:
            reports.append(SubproblemReport(
                name=name, holds=True, elapsed=share,
                detail="batched box pre-screen"))
            continue
        res = _check_containment(network, source, target, config=config)
        report = SubproblemReport.from_containment(name, res)
        report.elapsed += share
        reports.append(report)
        if res.holds is not True:
            if res.holds is False:
                holds = False
            elif holds is True:
                holds = None
            if stop_on_failure:
                break
    return reports, holds


# --------------------------------------------------------------------- SVuDC
def _check_prop1(artifacts: ProofArtifacts, enlarged_din: Box,
                 config: Optional[VerifyConfig] = None) -> PropositionResult:
    """Proposition 1 (proof reuse at layers 1 and 2) -- engine path.

    Checks ``∀x ∈ Din ∪ Δin : g2(g1(x)) ∈ S2`` with the config's
    containment ``method`` (exact by default) on the two-layer head only.
    The two-layer depth is deliberate: abstract interpretation typically loses
    precision after two nonlinear layers, leaving room for exact local
    solving (paper footnote 1).
    """
    config = config or VerifyConfig()
    started = time.perf_counter()
    premise_gap = _states_premise(artifacts)
    if premise_gap:
        return _timed(PROP1, started, None, [], premise_gap)
    network = artifacts.problem.network
    if network.num_blocks < 3:
        return _timed(PROP1, started, None, [],
                      "network has fewer than 3 blocks; S2 does not cover a tail")
    head = network.subnetwork(0, 2)
    s2 = artifacts.states.layer(1)
    res = _check_containment(head, enlarged_din, s2, config=config)
    report = SubproblemReport.from_containment("g2∘g1 ⊆ S2", res)
    return _timed(PROP1, started, res.holds, [report],
                  f"two-layer head vs S2 ({res.method})")


def _check_prop2(artifacts: ProofArtifacts, enlarged_din: Box,
                 config: Optional[VerifyConfig] = None) -> PropositionResult:
    """Proposition 2 (proof reuse at layer ``j+1``) -- engine path.

    Builds fresh abstractions ``S'_1 … S'_j`` over the enlarged domain
    layer by layer in the config's ``domain``; after each one, checks
    (by the config's ``method``) whether
    ``∀x_j ∈ S'_j : g_{j+1}(x_j) ∈ S_{j+1}``.  The first success re-enters
    the old proof and guarantees safety for the whole network.
    """
    config = config or VerifyConfig()
    started = time.perf_counter()
    premise_gap = _states_premise(artifacts)
    if premise_gap:
        return _timed(PROP2, started, None, [], premise_gap)
    network = artifacts.problem.network
    n = network.num_blocks
    propagator = get_propagator(config.domain)
    subproblems: List[SubproblemReport] = []

    current = enlarged_din
    for j in range(1, n - 1):  # paper's j in {2, .., n-1}, 1-based
        t0 = time.perf_counter()
        current = propagator.propagate(network.subnetwork(j - 1, j), current)[-1]
        build_time = time.perf_counter() - t0
        layer = network.subnetwork(j, j + 1)
        res = _check_containment(layer, current, artifacts.states.layer(j),
                                 config=config)
        report = SubproblemReport(
            name=f"S'_{j} -> S_{j + 1}",
            holds=res.holds,
            elapsed=build_time + res.elapsed,
            detail=res.detail or res.method,
            lp_solves=res.lp_solves,
        )
        subproblems.append(report)
        if res.holds:
            return _timed(PROP2, started, True, subproblems,
                          f"re-entered old proof at layer {j + 1}")
    return _timed(PROP2, started, False, subproblems,
                  "no layer re-entry point found")


def check_prop3(artifacts: ProofArtifacts, enlarged_din: Box,
                ord: float = 2) -> PropositionResult:
    """Proposition 3 (Lipschitz-based proof reuse).

    With ``κ`` bounding the distance from any point of ``Δin`` to ``Din``
    and ``ℓ`` the global Lipschitz constant, safety transfers when the
    ``ℓκ``-inflation of ``S_n`` stays inside ``Dout``.  Pure arithmetic --
    no solver involved.
    """
    started = time.perf_counter()
    lipschitz = artifacts.require_lipschitz()
    t0 = time.perf_counter()
    kappa = box_kappa(artifacts.problem.din, enlarged_din, ord=ord)
    inflation = lipschitz.output_change_bound(kappa)
    # S_n here is any stored box containing f(Din); the exact certified
    # range (when available) is much tighter than the layered S_n.
    inflated = artifacts.tightest_output_abstraction().inflate(inflation)
    holds = artifacts.problem.dout.contains_box(inflated)
    report = SubproblemReport(
        name="inflate(S_n, ℓκ) ⊆ Dout",
        holds=holds,
        elapsed=time.perf_counter() - t0,
        detail=f"kappa={kappa:.6g} ell={lipschitz.ell:.6g} "
               f"inflation={inflation:.6g}",
    )
    return _timed(PROP3, started, holds, [report], report.detail)


# --------------------------------------------------------------------- SVbTV
def _check_prop4(artifacts: ProofArtifacts, new_network: Network,
                 enlarged_din: Optional[Box] = None,
                 stop_on_failure: bool = False,
                 config: Optional[VerifyConfig] = None) -> PropositionResult:
    """Proposition 4 (reusing state abstraction, single layer) -- engine path.

    ``n`` independent one-layer checks on the *new* network:

    * ``Din ∪ Δin --g'_1--> S_1``,
    * ``S_i --g'_{i+1}--> S_{i+1}`` for ``i = 1 … n-2``,
    * ``S_{n-1} --g'_n--> Dout``.

    All ``n`` are first screened in one batched interval pass; only the
    ones it leaves open get a containment check under ``config`` (its
    ``method`` and budgets), see :func:`_screened_checks`.

    With ``stop_on_failure=False`` every subproblem runs (the parallel
    execution model); the per-subproblem reports feed both the max-time
    metric and the incremental-fixing fallback, which needs the full
    failure pattern.
    """
    config = config or VerifyConfig()
    started = time.perf_counter()
    premise_gap = _states_premise(artifacts)
    if premise_gap:
        return _timed(PROP4, started, None, [], premise_gap)
    states = artifacts.states
    n = new_network.num_blocks
    din = enlarged_din if enlarged_din is not None else artifacts.problem.din
    triples, names = [], []
    for i in range(n):
        source = din if i == 0 else states.layer(i - 1)
        target = artifacts.problem.dout if i == n - 1 else states.layer(i)
        triples.append((new_network.subnetwork(i, i + 1), source, target))
        names.append("Din∪Δin -> S_1" if i == 0
                     else f"S_{n - 1} -> Dout" if i == n - 1
                     else f"S_{i} -> S_{i + 1}")
    subproblems, holds = _screened_checks(names, triples, config,
                                          stop_on_failure)
    return _timed(PROP4, started, holds, subproblems,
                  f"{sum(1 for s in subproblems if s.holds) }/{len(subproblems)} "
                  "layer checks passed")


def _check_prop5(artifacts: ProofArtifacts, new_network: Network,
                 alphas: Sequence[int], enlarged_din: Optional[Box] = None,
                 config: Optional[VerifyConfig] = None) -> PropositionResult:
    """Proposition 5 (reusing state abstraction, multiple layers) -- engine
    path.

    ``alphas`` are the reused boundaries in paper numbering
    (``1 < α_1 < … < α_l < n-1``... given 1-based layers; here: block
    indices ``0 < α < n``, the boundary *after* block ``α``).  Each segment
    between consecutive reuse points is one independent multi-block check.

    Like :func:`_check_prop4`, all segments are screened in one batched
    interval pass before any per-segment check runs.
    """
    config = config or VerifyConfig()
    started = time.perf_counter()
    premise_gap = _states_premise(artifacts)
    if premise_gap:
        return _timed(PROP5, started, None, [], premise_gap)
    states = artifacts.states
    n = new_network.num_blocks
    din = enlarged_din if enlarged_din is not None else artifacts.problem.din
    alphas = sorted(int(a) for a in alphas)
    if any(a <= 0 or a >= n for a in alphas) or len(set(alphas)) != len(alphas):
        raise ArtifactError(
            f"reuse points must be distinct block boundaries in (0, {n}), "
            f"got {alphas}"
        )
    cuts = [0] + alphas + [n]
    triples, names = [], []
    for seg_start, seg_end in zip(cuts[:-1], cuts[1:]):
        source = din if seg_start == 0 else states.layer(seg_start - 1)
        target = artifacts.problem.dout if seg_end == n else states.layer(seg_end - 1)
        triples.append((new_network.subnetwork(seg_start, seg_end), source, target))
        names.append(f"blocks[{seg_start}:{seg_end}] -> "
                     + ("Dout" if seg_end == n else f"S_{seg_end}"))
    subproblems, holds = _screened_checks(names, triples, config)
    return _timed(PROP5, started, holds, subproblems,
                  f"reuse points {alphas}")


def check_prop6(artifacts: ProofArtifacts, new_network: Network,
                recheck_safety: bool = False,
                method: str = "symbolic") -> PropositionResult:
    """Proposition 6 (reusing network abstraction).

    If the stored abstraction ``f̂`` (whose verification established
    ``{f̂(x) : x ∈ Din} ⊆ Dout``) also abstracts the new network --
    ``f' --Din--> f̂``, checked syntactically -- then ``φ^{f'}_{Din,Dout}``
    holds.  Note: Proposition 6 covers the *original* domain only; the
    orchestrator combines it with Propositions 1/3 for enlargements.

    ``recheck_safety`` re-verifies ``f̂(Din) ⊆ Dout`` instead of trusting the
    stored flag (useful in tests and when artifacts were edited).
    """
    started = time.perf_counter()
    absn = artifacts.require_network_abstraction()
    subproblems: List[SubproblemReport] = []

    t0 = time.perf_counter()
    check = absn.abstracts(new_network)
    subproblems.append(SubproblemReport(
        name="f' -> f̂ (domination)",
        holds=check.holds,
        elapsed=time.perf_counter() - t0,
        detail=check.reason,
    ))
    if not check.holds:
        return _timed(PROP6, started, False, subproblems, check.reason)

    # Only a recorded JSON true counts: notes are free-form, and a "false"
    # string or a 1 must not skip the containment check.
    safety_ok = artifacts.notes.get("netabs_proves_safety") is True
    if recheck_safety or not safety_ok:
        t0 = time.perf_counter()
        bounds = absn.output_bounds(artifacts.problem.din, method=method)
        safety_ok = artifacts.problem.dout.contains_box(bounds)
        subproblems.append(SubproblemReport(
            name="f̂(Din) ⊆ Dout",
            holds=safety_ok,
            elapsed=time.perf_counter() - t0,
            detail=f"abstract output bounds {bounds}",
        ))
    if not safety_ok:
        return _timed(PROP6, started, False, subproblems,
                      "abstraction does not prove Dout containment")
    return _timed(PROP6, started, True, subproblems,
                  "abstraction transfers to the new network")
