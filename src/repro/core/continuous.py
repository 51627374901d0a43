"""The continuous-verification orchestrator.

Given the proof artifacts of the old problem and an SVuDC or SVbTV change,
:class:`ContinuousVerifier` runs a cascade of reuse strategies -- cheapest
artifact first -- and falls back to incremental fixing and finally full
re-verification, reporting exactly what was reused, the verdict, and both
timing conventions (sequential and max-subproblem).

Strategy cascades (defaults, override per call):

* SVuDC: Proposition 3 (arithmetic) -> Proposition 1 (two-layer exact)
  -> Proposition 2 (layerwise rebuild with re-entry).
* SVbTV: Proposition 6 (syntactic network-abstraction check; combined with
  Propositions 1/3 when the domain also grew) -> Proposition 4 (parallel
  single-layer checks) -> Proposition 5 -> incremental fixing -> full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ArtifactError
from repro.api.config import VerifyConfig
from repro.domains.box import Box
from repro.exact.encoding import encoding_cache_stats
from repro.exact.verify import _check_containment
from repro.nn.network import Network
from repro.core.artifacts import ProofArtifacts
from repro.core.fixing import FIXING_STRATEGIES, FixingResult, incremental_fix
from repro.core.problem import SVbTV, SVuDC
from repro.core.propositions import (
    FULL,
    PROP1,
    PROP2,
    PROP3,
    PROP4,
    PROP5,
    PROP6,
    PROP6_PROP1,
    PROP6_PROP3,
    PROPOSITIONS,
    PropositionResult,
    SubproblemReport,
    _check_prop1,
    _check_prop2,
    _check_prop4,
    _check_prop5,
    check_prop3,
    check_prop6,
)

__all__ = ["CONTINUOUS_STRATEGIES", "ContinuousResult", "ContinuousVerifier"]

FULL_REVERIFICATION = "full re-verification"
#: Prefixes the fixing procedure's strategy when fixing settles a round.
FIXING_PREFIX = "fixing: "
#: Every strategy a :class:`ContinuousResult` can name: the winning
#: proposition, the fixing procedure's strategy, or the fallback; the wire
#: decodes no other.
CONTINUOUS_STRATEGIES = (PROPOSITIONS + (FULL_REVERIFICATION,)
                         + tuple(FIXING_PREFIX + s for s in FIXING_STRATEGIES))


def _cache_delta(snapshot: Dict[str, int]) -> Dict[str, int]:
    """Encoding-cache hits/misses accrued since ``snapshot``."""
    now = encoding_cache_stats()
    return {key: now[key] - snapshot.get(key, 0) for key in now}


@dataclass
class ContinuousResult:
    """Outcome of one continuous-verification run."""

    holds: Optional[bool]
    strategy: str
    attempts: List[PropositionResult] = field(default_factory=list)
    fixing: Optional[FixingResult] = None
    elapsed: float = 0.0
    #: max-subproblem time of the *successful* strategy (Table I metric)
    winning_max_subproblem_time: float = 0.0
    winning_time: float = 0.0
    #: ``{"hits": .., "misses": ..}`` delta of the exact-layer encoding
    #: cache over this run -- how much LP base assembly the loop reused
    #: instead of rebuilding (paper Sec. VI proof-reuse engineering).
    #: The counters are process-wide, so attribute the delta to this run
    #: only when verifier runs do not overlap in time.
    encoding_reuse: Dict[str, int] = field(default_factory=dict)
    #: Warm-start economics of the exact legs (:mod:`repro.certs`): leaves
    #: seeded from a stored certificate frontier and the LP solves the
    #: batched re-screen rendered unnecessary.  Zero unless the verifier
    #: was handed a certificate provider and the config enables reuse.
    nodes_reused: int = 0
    lp_solves_saved: int = 0

    def speedup_vs(self, original_time: float, parallel: bool = True) -> float:
        """Table I ratio: incremental time / original time (in percent)."""
        inc = self.winning_max_subproblem_time if parallel else self.winning_time
        if original_time <= 0:
            return float("nan")
        return 100.0 * inc / original_time


class ContinuousVerifier:
    """Reuses ``artifacts`` to settle modified verification problems."""

    def __init__(self, artifacts: ProofArtifacts,
                 method: Optional[str] = None, domain: Optional[str] = None,
                 node_limit: Optional[int] = None,
                 workers: Optional[int] = None,
                 config: Optional[VerifyConfig] = None,
                 certs=None):
        self.artifacts = artifacts
        #: Optional certificate provider (``cert_get``/``cert_put`` of JSON
        #: wire strings, :mod:`repro.certs`).  When set and the config's
        #: ``certs`` policy is not ``"off"``, the full re-verification
        #: fallback runs through the engine's certificate-aware threshold
        #: path, so repeated fallbacks across fine-tuning steps warm-start
        #: from the stored frontier instead of re-searching.
        self.certs = certs
        #: One :class:`VerifyConfig` drives every exact leg of the cascade
        #: (the engine path).  The loose keywords remain as per-knob
        #: overrides for compatibility; their defaults live in the config.
        self.config = (config or VerifyConfig()).with_overrides(
            method=method, domain=domain, node_limit=node_limit,
            workers=workers)

    # The historical loose attributes stay *live*: reads come from the
    # config and assignment folds back into it, so pre-existing callers
    # that mutate e.g. ``verifier.node_limit`` keep affecting every
    # subsequent exact leg instead of silently updating a dead mirror.
    @property
    def method(self) -> str:
        return self.config.method

    @method.setter
    def method(self, value: str) -> None:
        self.config = self.config.replace(method=value)

    @property
    def domain(self) -> str:
        return self.config.domain

    @domain.setter
    def domain(self, value: str) -> None:
        self.config = self.config.replace(domain=value)

    @property
    def node_limit(self) -> int:
        return self.config.node_limit

    @node_limit.setter
    def node_limit(self, value: int) -> None:
        self.config = self.config.replace(node_limit=value)

    @property
    def workers(self) -> int:
        """Worker-pool width handed to every exact branch-and-bound leg:
        how many of a frontier round's node LPs are in flight at once
        (:mod:`repro.exact.parallel_bab`); verdicts are worker-count
        independent by construction."""
        return self.config.workers

    @workers.setter
    def workers(self, value: int) -> None:
        self.config = self.config.replace(workers=value)

    # ------------------------------------------------------------------ SVuDC
    def verify_domain_change(self, problem: SVuDC,
                             strategies: Sequence[str] = (PROP3, PROP1, PROP2),
                             ) -> ContinuousResult:
        """Settle an SVuDC instance by artifact reuse."""
        snapshot = encoding_cache_stats()
        result = self._verify_domain_change(problem, strategies)
        result.encoding_reuse = _cache_delta(snapshot)
        return result

    def _verify_domain_change(self, problem: SVuDC,
                              strategies: Sequence[str]) -> ContinuousResult:
        started = time.perf_counter()
        attempts: List[PropositionResult] = []
        for strategy in strategies:
            result = self._run_svudc_strategy(strategy, problem.enlarged_din)
            attempts.append(result)
            if result.holds:
                return self._finish(started, result.proposition, attempts,
                                    winner=result)
        return self._fallback_full(problem.new_problem.network,
                                   problem.enlarged_din, started, attempts)

    def _run_svudc_strategy(self, strategy: str, enlarged: Box) -> PropositionResult:
        if strategy == PROP1:
            return _check_prop1(self.artifacts, enlarged, method=self.method,
                                config=self.config)
        if strategy == PROP2:
            return _check_prop2(self.artifacts, enlarged, domain=self.domain,
                                method=self.method, config=self.config)
        if strategy == PROP3:
            return check_prop3(self.artifacts, enlarged)
        raise ArtifactError(f"unknown SVuDC strategy {strategy!r}")

    # ------------------------------------------------------------------ SVbTV
    def verify_new_version(self, problem: SVbTV,
                           strategies: Sequence[str] = (PROP6, PROP4, PROP5),
                           prop5_alphas: Optional[Sequence[int]] = None,
                           with_fixing: bool = True) -> ContinuousResult:
        """Settle an SVbTV instance by artifact reuse.

        The exact layer underneath every strategy draws its encodings from
        the fingerprint-keyed cache: re-checking the same (sub)network over
        the same box -- across strategies, fixing, and repeated loop
        iterations where only phases/thresholds changed -- reuses the sparse
        LP base instead of rebuilding it; the achieved reuse is reported in
        :attr:`ContinuousResult.encoding_reuse`.
        """
        snapshot = encoding_cache_stats()
        result = self._verify_new_version(problem, strategies, prop5_alphas,
                                          with_fixing)
        result.encoding_reuse = _cache_delta(snapshot)
        return result

    def _verify_new_version(self, problem: SVbTV,
                            strategies: Sequence[str],
                            prop5_alphas: Optional[Sequence[int]],
                            with_fixing: bool) -> ContinuousResult:
        started = time.perf_counter()
        attempts: List[PropositionResult] = []
        new_network = problem.new_network
        enlarged = problem.enlarged_din
        prop4_result: Optional[PropositionResult] = None

        for strategy in strategies:
            if strategy == PROP6:
                if self.artifacts.network_abstraction is None:
                    continue
                result = self._prop6_composite(new_network, enlarged)
            elif strategy == PROP4:
                result = _check_prop4(self.artifacts, new_network,
                                      enlarged_din=enlarged,
                                      method=self.method, config=self.config)
                prop4_result = result
            elif strategy == PROP5:
                alphas = list(prop5_alphas) if prop5_alphas is not None else \
                    self._default_alphas(new_network)
                if not alphas:
                    continue
                result = _check_prop5(self.artifacts, new_network, alphas,
                                      enlarged_din=enlarged,
                                      method=self.method, config=self.config)
            else:
                raise ArtifactError(f"unknown SVbTV strategy {strategy!r}")
            attempts.append(result)
            if result.holds:
                return self._finish(started, result.proposition, attempts,
                                    winner=result)

        if with_fixing and prop4_result is not None:
            fix = incremental_fix(self.artifacts, new_network, prop4_result,
                                  enlarged_din=enlarged, domain=self.domain,
                                  method=self.method, config=self.config)
            if fix.holds is not None:
                elapsed = time.perf_counter() - started
                return ContinuousResult(
                    holds=fix.holds,
                    strategy=FIXING_PREFIX + fix.strategy,
                    attempts=attempts,
                    fixing=fix,
                    elapsed=elapsed,
                    winning_max_subproblem_time=fix.max_subproblem_time,
                    winning_time=fix.elapsed,
                )
        din = enlarged if enlarged is not None else self.artifacts.problem.din
        return self._fallback_full(new_network, din, started, attempts)

    def _prop6_composite(self, new_network: Network,
                         enlarged: Optional[Box]) -> PropositionResult:
        """Proposition 6, extended to domain enlargement per Section IV.B:
        first transfer the abstraction on the original Din, then cover Δin
        with Proposition 3 (reusing the old Lipschitz/output artifacts) or,
        failing that, Proposition 1 on the new network's head."""
        result = check_prop6(self.artifacts, new_network)
        if not result.holds or enlarged is None or \
                enlarged == self.artifacts.problem.din:
            return result
        tail = check_prop3(self.artifacts, enlarged)
        if not tail.holds:
            # Proposition 1 applied to the *new* network's two-layer head.
            new_artifacts = ProofArtifacts(
                problem=self.artifacts.problem,
                states=self.artifacts.states,
                lipschitz=self.artifacts.lipschitz,
                states_prove_safety=self.artifacts.states_prove_safety,
            )
            head_check = _check_prop1(new_artifacts, enlarged,
                                      method=self.method, config=self.config)
            # Soundness: prop1 on f' needs every S_i->S_{i+1} step of f' for
            # i >= 2, which prop6 alone does not give; require prop4's tail
            # checks for blocks 1..n.
            tail_checks = _check_prop4(self.artifacts, new_network,
                                       enlarged_din=None, method=self.method,
                                       config=self.config)
            combined_holds = bool(head_check.holds and tail_checks.holds)
            subproblems = (result.subproblems + head_check.subproblems
                           + tail_checks.subproblems)
            return PropositionResult(
                proposition=PROP6_PROP1,
                holds=combined_holds,
                subproblems=subproblems,
                elapsed=result.elapsed + head_check.elapsed + tail_checks.elapsed,
                detail="abstraction transfer + exact head check on Δin",
            )
        return PropositionResult(
            proposition=PROP6_PROP3,
            holds=True,
            subproblems=result.subproblems + tail.subproblems,
            elapsed=result.elapsed + tail.elapsed,
            detail="abstraction transfer + Lipschitz enlargement cover",
        )

    @staticmethod
    def _default_alphas(network: Network) -> List[int]:
        """Every second boundary: the 6-layer example of the paper picks
        ``α = (2, 4)``; generalised to ``2, 4, 6, …`` (block boundaries)."""
        return [a for a in range(2, network.num_blocks - 1, 2)]

    # ----------------------------------------------------------------- shared
    def _finish(self, started: float, strategy: str,
                attempts: List[PropositionResult],
                winner: PropositionResult) -> ContinuousResult:
        return ContinuousResult(
            holds=True,
            strategy=strategy,
            attempts=attempts,
            elapsed=time.perf_counter() - started,
            winning_max_subproblem_time=winner.max_subproblem_time,
            winning_time=winner.elapsed,
        )

    def _fallback_full(self, network: Network, din: Box, started: float,
                       attempts: List[PropositionResult]) -> ContinuousResult:
        nodes_reused = lp_solves_saved = 0
        if self.certs is not None and self.config.certs != "off":
            res, nodes_reused, lp_solves_saved = \
                self._full_with_certificates(network, din)
            detail = "full re-verification (certificate warm start)"
        else:
            res = _check_containment(
                network, din, self.artifacts.problem.dout, method="exact",
                config=self.config.replace(
                    node_limit=self.config.effective_full_node_limit))
            detail = "no reuse possible"
        report = SubproblemReport.from_containment(FULL_REVERIFICATION, res)
        fallback = PropositionResult(
            proposition=FULL, holds=res.holds, subproblems=[report],
            elapsed=res.elapsed, detail=detail,
        )
        attempts.append(fallback)
        return ContinuousResult(
            holds=res.holds,
            strategy=FULL_REVERIFICATION,
            attempts=attempts,
            elapsed=time.perf_counter() - started,
            winning_max_subproblem_time=res.elapsed,
            winning_time=res.elapsed,
            nodes_reused=nodes_reused,
            lp_solves_saved=lp_solves_saved,
        )

    def _full_with_certificates(self, network: Network, din: Box):
        """Full re-verification through the certificate-aware engine path.

        Output containment decomposes into one threshold proof per output
        bound (``max e_i f <= hi_i`` and ``max -e_i f <= -lo_i``); each is
        a :class:`~repro.api.specs.ThresholdSpec`, so the engine records a
        certificate on first fallback and warm-starts every later fallback
        whose network kept its structural fingerprint (weight-only
        fine-tuning).  Returns ``(ContainmentResult, nodes_reused,
        lp_solves_saved)`` summed over the bound proofs.
        """
        from repro.api.engine import VerificationEngine
        from repro.api.specs import ThresholdSpec
        from repro.exact.verify import ContainmentResult

        cfg = self.config.replace(
            node_limit=self.config.effective_full_node_limit)
        engine = VerificationEngine(cfg, certs=self.certs)
        dout = self.artifacts.problem.dout
        t0 = time.perf_counter()
        reused = saved = lp_total = node_total = 0
        holds: Optional[bool] = True
        counterexample = None
        violation = 0.0
        checks = []
        dim = dout.lower.size
        for i in range(dim):
            unit = np.zeros(dim)
            unit[i] = 1.0
            checks.append((unit, float(dout.upper[i])))
            checks.append((-unit, -float(dout.lower[i])))
        for c, threshold in checks:
            verdict = engine.verify(ThresholdSpec(
                network=network, input_box=din, objective=c,
                threshold=threshold))
            lp_total += verdict.result.lp_solves
            node_total += verdict.result.nodes
            reused += verdict.provenance.nodes_reused
            saved += verdict.provenance.lp_solves_saved
            if verdict.holds is not True:
                holds = verdict.holds
                if verdict.holds is False:
                    counterexample = verdict.result.witness
                    violation = float(verdict.result.incumbent - threshold)
                break
        res = ContainmentResult(
            holds=holds, method="exact", counterexample=counterexample,
            violation=violation, elapsed=time.perf_counter() - t0,
            lp_solves=lp_total, nodes=node_total,
            detail="certificate-warmed full re-verification")
        return res, reused, saved
