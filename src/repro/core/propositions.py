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
from repro.api.config import (
    DEFAULT_DOMAIN,
    DEFAULT_METHOD,
    VerifyConfig,
)
from repro.domains.batch import screen_containments
from repro.domains.box import Box, box_kappa
from repro.domains.propagate import get_propagator
from repro.exact.verify import ContainmentResult, _check_containment
from repro.nn.network import Network
from repro.core.artifacts import ProofArtifacts

__all__ = [
    "SubproblemReport",
    "PropositionResult",
    "check_prop3",
    "check_prop6",
]


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


def _batched_prescreen(triples, enabled: bool):
    """Screen ``(subnetwork, source, target)`` containment subproblems in one
    batched stacked-interval pass (see
    :func:`repro.domains.batch.screen_containments`).

    Returns the per-subproblem verdict list (``True`` / ``None``) and the
    per-subproblem share of the screen's wall-clock time.  Every report --
    screened *and* surviving -- carries its share, so summed subproblem
    times keep accounting for the whole batched call (Table I fidelity).
    """
    if not enabled or not triples:
        return [None] * len(triples), 0.0
    t0 = time.perf_counter()
    verdicts = screen_containments(triples)
    elapsed = time.perf_counter() - t0
    return verdicts, elapsed / len(triples)


# --------------------------------------------------------------------- SVuDC
def _check_prop1(artifacts: ProofArtifacts, enlarged_din: Box,
                 method: str = DEFAULT_METHOD,
                 config: Optional[VerifyConfig] = None) -> PropositionResult:
    """Proposition 1 (proof reuse at layers 1 and 2) -- engine path.

    Checks ``∀x ∈ Din ∪ Δin : g2(g1(x)) ∈ S2`` with an exact (or cascaded)
    method on the two-layer head only.  The two-layer depth is deliberate:
    abstract interpretation typically loses precision after two nonlinear
    layers, leaving room for exact local solving (paper footnote 1).
    """
    config = config or VerifyConfig()
    started = time.perf_counter()
    premise_gap = _states_premise(artifacts)
    if premise_gap:
        return _timed("prop1", started, None, [], premise_gap)
    network = artifacts.problem.network
    if network.num_blocks < 3:
        return _timed("prop1", started, None, [],
                      "network has fewer than 3 blocks; S2 does not cover a tail")
    head = network.subnetwork(0, 2)
    s2 = artifacts.states.layer(1)
    res = _check_containment(head, enlarged_din, s2, method=method,
                             config=config)
    report = SubproblemReport.from_containment("g2∘g1 ⊆ S2", res)
    return _timed("prop1", started, res.holds, [report],
                  f"two-layer head vs S2 ({res.method})")


def _check_prop2(artifacts: ProofArtifacts, enlarged_din: Box,
                 domain: str = DEFAULT_DOMAIN, method: str = "exact",
                 config: Optional[VerifyConfig] = None) -> PropositionResult:
    """Proposition 2 (proof reuse at layer ``j+1``) -- engine path.

    Builds fresh abstractions ``S'_1 … S'_j`` over the enlarged domain
    layer by layer; after each one, checks exactly whether
    ``∀x_j ∈ S'_j : g_{j+1}(x_j) ∈ S_{j+1}``.  The first success re-enters
    the old proof and guarantees safety for the whole network.
    """
    config = config or VerifyConfig()
    started = time.perf_counter()
    premise_gap = _states_premise(artifacts)
    if premise_gap:
        return _timed("prop2", started, None, [], premise_gap)
    network = artifacts.problem.network
    n = network.num_blocks
    propagator = get_propagator(domain)
    subproblems: List[SubproblemReport] = []

    current = enlarged_din
    for j in range(1, n - 1):  # paper's j in {2, .., n-1}, 1-based
        t0 = time.perf_counter()
        current = propagator.propagate(network.subnetwork(j - 1, j), current)[-1]
        build_time = time.perf_counter() - t0
        layer = network.subnetwork(j, j + 1)
        res = _check_containment(layer, current, artifacts.states.layer(j),
                                 method=method, config=config)
        report = SubproblemReport(
            name=f"S'_{j} -> S_{j + 1}",
            holds=res.holds,
            elapsed=build_time + res.elapsed,
            detail=res.detail or res.method,
            lp_solves=res.lp_solves,
        )
        subproblems.append(report)
        if res.holds:
            return _timed("prop2", started, True, subproblems,
                          f"re-entered old proof at layer {j + 1}")
    return _timed("prop2", started, False, subproblems,
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
    return _timed("prop3", started, holds, [report], report.detail)


# --------------------------------------------------------------------- SVbTV
def _check_prop4(artifacts: ProofArtifacts, new_network: Network,
                 enlarged_din: Optional[Box] = None,
                 method: str = DEFAULT_METHOD,
                 stop_on_failure: bool = False,
                 prescreen: bool = True,
                 config: Optional[VerifyConfig] = None) -> PropositionResult:
    """Proposition 4 (reusing state abstraction, single layer) -- engine path.

    ``n`` independent one-layer checks on the *new* network:

    * ``Din ∪ Δin --g'_1--> S_1``,
    * ``S_i --g'_{i+1}--> S_{i+1}`` for ``i = 1 … n-2``,
    * ``S_{n-1} --g'_n--> Dout``.

    With ``prescreen`` on (the default), all ``n`` subproblem boxes are
    first screened in one batched stacked-interval pass
    (:func:`~repro.domains.batch.screen_containments`); only the survivors
    fall back to per-subproblem exact checks.  The screen is sound (and, for
    single-block subproblems, its interval bound is exact), so verdicts are
    unchanged -- passing layers just stop paying one propagator run each.

    With ``stop_on_failure=False`` every subproblem runs (the parallel
    execution model); the per-subproblem reports feed both the max-time
    metric and the incremental-fixing fallback, which needs the full
    failure pattern.
    """
    config = config or VerifyConfig()
    started = time.perf_counter()
    premise_gap = _states_premise(artifacts)
    if premise_gap:
        return _timed("prop4", started, None, [], premise_gap)
    states = artifacts.states
    n = new_network.num_blocks
    din = enlarged_din if enlarged_din is not None else artifacts.problem.din
    triples = []
    for i in range(n):
        source = din if i == 0 else states.layer(i - 1)
        target = artifacts.problem.dout if i == n - 1 else states.layer(i)
        triples.append((new_network.subnetwork(i, i + 1), source, target))
    screened, screen_share = _batched_prescreen(triples, prescreen)
    subproblems: List[SubproblemReport] = []
    holds = True
    for i, (layer, source, target) in enumerate(triples):
        name = ("Din∪Δin -> S_1" if i == 0
                else f"S_{n - 1} -> Dout" if i == n - 1
                else f"S_{i} -> S_{i + 1}")
        if screened[i] is True:
            subproblems.append(SubproblemReport(
                name=name, holds=True, elapsed=screen_share,
                detail="batched box pre-screen"))
            continue
        res = _check_containment(layer, source, target, method=method,
                                 config=config)
        report = SubproblemReport.from_containment(name, res)
        report.elapsed += screen_share
        subproblems.append(report)
        if res.holds is not True:
            # A definite refutation must survive later inconclusive checks.
            if res.holds is False:
                holds = False
            elif holds is True:
                holds = None
            if stop_on_failure:
                break
    verdict = True if holds is True else holds
    return _timed("prop4", started, verdict, subproblems,
                  f"{sum(1 for s in subproblems if s.holds) }/{len(subproblems)} "
                  "layer checks passed")


def _check_prop5(artifacts: ProofArtifacts, new_network: Network,
                 alphas: Sequence[int], enlarged_din: Optional[Box] = None,
                 method: str = DEFAULT_METHOD,
                 prescreen: bool = True,
                 config: Optional[VerifyConfig] = None) -> PropositionResult:
    """Proposition 5 (reusing state abstraction, multiple layers) -- engine
    path.

    ``alphas`` are the reused boundaries in paper numbering
    (``1 < α_1 < … < α_l < n-1``... given 1-based layers; here: block
    indices ``0 < α < n``, the boundary *after* block ``α``).  Each segment
    between consecutive reuse points is one independent multi-block check.

    Like :func:`_check_prop4`, all segments are pre-screened in one batched
    interval pass before any exact per-segment check runs.
    """
    config = config or VerifyConfig()
    started = time.perf_counter()
    premise_gap = _states_premise(artifacts)
    if premise_gap:
        return _timed("prop5", started, None, [], premise_gap)
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
    triples = []
    for seg_start, seg_end in zip(cuts[:-1], cuts[1:]):
        source = din if seg_start == 0 else states.layer(seg_start - 1)
        target = artifacts.problem.dout if seg_end == n else states.layer(seg_end - 1)
        triples.append((new_network.subnetwork(seg_start, seg_end), source, target))
    screened, screen_share = _batched_prescreen(triples, prescreen)
    subproblems: List[SubproblemReport] = []
    holds = True
    for j, (seg_start, seg_end) in enumerate(zip(cuts[:-1], cuts[1:])):
        segment, source, target = triples[j]
        name = (f"blocks[{seg_start}:{seg_end}] -> "
                + ("Dout" if seg_end == n else f"S_{seg_end}"))
        if screened[j] is True:
            subproblems.append(SubproblemReport(
                name=name, holds=True, elapsed=screen_share,
                detail="batched box pre-screen"))
            continue
        res = _check_containment(segment, source, target, method=method,
                                 config=config)
        report = SubproblemReport.from_containment(name, res)
        report.elapsed += screen_share
        subproblems.append(report)
        if res.holds is not True:
            # A definite refutation must survive later inconclusive checks.
            if res.holds is False:
                holds = False
            elif holds is True:
                holds = None
    return _timed("prop5", started, True if holds is True else holds, subproblems,
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
        return _timed("prop6", started, False, subproblems, check.reason)

    safety_ok = bool(artifacts.notes.get("netabs_proves_safety", False))
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
        return _timed("prop6", started, False, subproblems,
                      "abstraction does not prove Dout containment")
    return _timed("prop6", started, True, subproblems,
                  "abstraction transfers to the new network")
