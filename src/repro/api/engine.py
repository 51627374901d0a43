"""The job-oriented facade: one engine over every verification entry point.

:class:`VerificationEngine` executes declarative Specs
(:mod:`repro.api.specs`) under one :class:`~repro.api.config.VerifyConfig`
and returns uniform :class:`~repro.api.verdict.Verdict` objects:

* ``engine.verify(spec)``   -- run one Spec;
* ``engine.submit(specs)``  -- run a bag of independent Specs, batched
  onto the shared worker pool of :mod:`repro.core.parallel` (results in
  submission order, verdicts identical to sequential execution);
* ``engine.baseline(problem)`` -- the from-scratch verification that
  seeds the continuous loop's proof artifacts.

Every run draws encodings from the fingerprint-keyed cache of PR 2
(unless the config's ``encoding_cache="private"``) and reports the cache
delta, wall time, and LP/node counts as :class:`Provenance`.  The engine
is the one entry point for every Spec; new code and future sharding/async
layers extend it, not N signatures.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ReproError
from repro.exact.encoding import encoding_cache_stats
from repro.api.config import VerifyConfig
from repro.api.specs import (
    ContainmentSpec,
    ContinuousLoopSpec,
    MaximizeSpec,
    OutputRangeSpec,
    PropositionSpec,
    Spec,
    ThresholdSpec,
)
from repro.api.verdict import (
    BaselineVerdict,
    ContainmentVerdict,
    ContinuousVerdict,
    FailedVerdict,
    MaximizeVerdict,
    PropositionVerdict,
    Provenance,
    RangeVerdict,
    ThresholdVerdict,
    Verdict,
)

__all__ = ["VerificationEngine", "verify", "submit"]

#: Per-proposition containment methods a spec without ``method`` runs
#: (other kinds run the config's): prop2 rebuilds layerwise and decides
#: each re-entry exactly; prop6's safety re-check is an abstract bound.
_PROP_METHOD_DEFAULTS: Dict[int, str] = {2: "exact", 6: "symbolic"}

#: Certificate keys whose last decoded certificate one engine remembers,
#: least recently used out (a decoded vehicle-head certificate is ~0.5 MB).
CERT_MEMO_SIZE = 8


class _Run:
    """Provenance bookkeeping around one spec execution."""

    def __init__(self):
        self.snapshot = encoding_cache_stats()
        self.started = time.perf_counter()

    def provenance(self, config: VerifyConfig, *, lp_solves: int = 0,
                   nodes: int = 0, rounds: int = 0, nodes_reused: int = 0,
                   lp_solves_saved: int = 0, cert_hit: bool = False):
        from repro.api.verdict import Provenance

        now = encoding_cache_stats()
        return Provenance(
            elapsed=time.perf_counter() - self.started,
            lp_solves=int(lp_solves),
            nodes=int(nodes),
            rounds=int(rounds),
            workers=config.workers,
            encoding_reuse={k: now[k] - self.snapshot.get(k, 0) for k in now},
            nodes_reused=int(nodes_reused),
            lp_solves_saved=int(lp_solves_saved),
            cert_hit=bool(cert_hit),
        )


class VerificationEngine:
    """Executes Specs under one shared :class:`VerifyConfig`.

    ``certs`` is an optional certificate provider for delta verification
    (:mod:`repro.certs`): any object with ``cert_get(key) -> str | None``
    and ``cert_put(key, cert_json)`` speaking *wire strings* -- in
    practice the serve-side :class:`~repro.serve.store.JobStore`.  The
    config's :attr:`~repro.api.config.VerifyConfig.certs` policy decides
    whether proved threshold solves record certificates and whether a
    stored one may warm-start a solve; with no provider the policy is
    inert and every solve runs from scratch.

    The engine remembers, per certificate key, the last wire string it
    decoded and the :class:`~repro.certs.Certificate` it decoded to (at
    most :data:`CERT_MEMO_SIZE` keys), so re-certifying against an
    unchanged stored string skips the parse.  Validation and the float64
    re-screen still run on every use.
    """

    # ``certs`` is the certificate provider; the config's ``certs`` field
    # is the policy on using it -- two concepts, one name.
    def __init__(self, config: Optional[VerifyConfig] = None, *,
                 certs=None):  # repro: disable=no-restated-defaults
        self.config = config or VerifyConfig()
        self.certs = certs
        self._cert_lock = threading.Lock()
        # cert key -> (cert_json, Certificate), least recently used first.
        # guarded-by: self._cert_lock
        self._cert_memo: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------ jobs
    def verify(self, spec: Spec, config: Optional[VerifyConfig] = None) -> Verdict:
        """Run one Spec and return its :class:`Verdict`."""
        cfg = config or self.config
        handler = self._HANDLERS.get(type(spec))
        if handler is None:
            raise ReproError(
                f"VerificationEngine cannot execute {type(spec).__name__}; "
                "supported Specs: "
                + ", ".join(sorted(c.__name__ for c in self._HANDLERS)))
        return handler(self, spec, cfg)

    def submit(self, specs: Iterable[Spec],
               config: Optional[VerifyConfig] = None, *,
               timeout: Optional[float] = None) -> List[Verdict]:
        """Run independent Specs as one batch on the shared pool.

        With ``workers > 1`` the spec evaluations overlap on the module
        pool of :mod:`repro.core.parallel` (nested frontier solves divert
        or degrade gracefully there).  Verdicts are identical to running
        each spec alone -- the frontier trajectory depends only on its
        fixed round width, never on granted concurrency -- but per-verdict
        ``encoding_reuse`` deltas overlap in time and are only meaningful
        summed over the batch.

        A spec whose execution *raises* yields a :class:`FailedVerdict`
        entry in its slot instead of losing the rest of the batch; the
        error class and message ride along.  ``timeout`` is a deadline in
        seconds over the whole batch -- specs not finished when it expires
        come back as ``FailedVerdict(error_type="TimeoutError")``
        (threads cannot be killed, so in-flight solver work is abandoned
        to the pool, not aborted).
        """
        cfg = config or self.config
        spec_list = list(specs)
        if not spec_list:
            return []
        width = min(cfg.workers, len(spec_list))
        if width <= 1 and timeout is None:
            return [self._verify_caught(spec, cfg) for spec in spec_list]
        # With a deadline even a width-1 batch goes through the pool, so
        # "not finished by the deadline -> FailedVerdict" holds regardless
        # of the worker count (an inline loop could only check *between*
        # specs and would block on an overrunning one).
        from repro.core.parallel import TIMED_OUT, run_parallel

        tasks = [(f"spec{i}", (lambda s=spec: self._verify_caught(s, cfg)))
                 for i, spec in enumerate(spec_list)]
        outcomes = run_parallel(tasks, workers=max(1, width),
                                timeout=timeout)
        return [self._timeout_verdict(spec, cfg) if value is TIMED_OUT
                else value
                for spec, (_, value, _) in zip(spec_list, outcomes)]

    def _verify_caught(self, spec: Spec, cfg: VerifyConfig) -> Verdict:
        """One spec execution with per-spec error capture (submit path)."""
        run = _Run()
        try:
            return self.verify(spec, cfg)
        except Exception as exc:  # noqa: BLE001 - the point is containment
            return FailedVerdict(
                spec_type=getattr(spec, "spec_type", "unknown"),
                holds=None,
                provenance=run.provenance(cfg),
                detail=f"{type(exc).__name__}: {exc}",
                error=str(exc),
                error_type=type(exc).__name__,
            )

    @staticmethod
    def _timeout_verdict(spec: Spec, cfg: VerifyConfig) -> FailedVerdict:
        return FailedVerdict(
            spec_type=getattr(spec, "spec_type", "unknown"),
            holds=None,
            provenance=Provenance(workers=cfg.workers),
            detail="submit deadline expired before this spec finished",
            error="submit deadline expired before this spec finished",
            error_type="TimeoutError",
        )

    # -------------------------------------------------------------- baseline
    def baseline(self, problem, *, states_domain: str = "inductive",
                 state_buffer: float = 0.02, rigor: str = "range",
                 lipschitz_ord: float = 2,
                 with_network_abstraction: bool = False,
                 netabs_groups: int = 2, netabs_margin: float = 0.0,
                 config: Optional[VerifyConfig] = None) -> BaselineVerdict:
        """From-scratch verification producing reusable proof artifacts
        under the config's *full* node budget.  ``states_domain`` is how
        the state abstractions are built (``"inductive"`` or a propagation
        domain), not the config's rebuild ``domain``."""
        from repro.core.verifier import _verify_from_scratch

        cfg = config or self.config
        run = _Run()
        outcome = _verify_from_scratch(
            problem, states_domain=states_domain, state_buffer=state_buffer,
            rigor=rigor, lipschitz_ord=lipschitz_ord,
            with_network_abstraction=with_network_abstraction,
            netabs_groups=netabs_groups, netabs_margin=netabs_margin,
            config=cfg)
        return BaselineVerdict(
            spec_type="baseline",
            holds=outcome.holds,
            provenance=run.provenance(cfg, lp_solves=outcome.lp_solves,
                                      nodes=outcome.nodes),
            detail=outcome.detail,
            result=outcome,
        )

    # -------------------------------------------------------------- handlers
    def _verify_containment(self, spec: ContainmentSpec,
                            cfg: VerifyConfig) -> ContainmentVerdict:
        from repro.exact.verify import _check_containment

        run = _Run()
        local = cfg.replace(method=spec.method or cfg.method)
        result = _check_containment(spec.network, spec.input_box,
                                    spec.target, config=local)
        return ContainmentVerdict(
            spec_type=spec.spec_type,
            holds=result.holds,
            provenance=run.provenance(cfg, lp_solves=result.lp_solves,
                                      nodes=result.nodes),
            detail=result.detail or result.method,
            result=result,
        )

    def _verify_output_range(self, spec: OutputRangeSpec,
                             cfg: VerifyConfig) -> RangeVerdict:
        from repro.exact.verify import _output_range_exact

        run = _Run()
        box, lp_solves, nodes = _output_range_exact(
            spec.network, spec.input_box, config=cfg)
        return RangeVerdict(
            spec_type=spec.spec_type,
            holds=None,
            provenance=run.provenance(cfg, lp_solves=lp_solves, nodes=nodes),
            detail=f"exact output range {box}",
            output_range=box,
        )

    def _verify_threshold(self, spec: ThresholdSpec,
                          cfg: VerifyConfig) -> ThresholdVerdict:
        from repro.exact.bab import BAB_REFUTED
        from repro.certs.reuse import _certify_threshold

        run = _Run()
        result = certificate = None
        cert_hit = False
        key = None
        lp_baseline = 0
        if self.certs is not None and cfg.certs != "off":
            from repro.certs import certificate_key

            key = certificate_key(spec.network, spec.input_box,
                                  spec.objective, spec.threshold, cfg)
        if key is not None and cfg.certs == "reuse":
            result, certificate, cert_hit, lp_baseline = \
                self._reuse_certificate(spec, cfg, key)
        if result is None:
            # Capture node-LP duals only when a store could record them.
            result, certificate = _certify_threshold(
                spec.network, spec.input_box, spec.objective, spec.threshold,
                config=cfg, collect_duals=key is not None)
        if key is not None and certificate is not None and \
                not (cert_hit and result.lp_solves == 0):
            # Record (REPLACE) the *latest* proved network's covering
            # frontier -- the closest warm-start baseline for the next
            # perturbation.  Certificates cross this boundary only as
            # wire strings (cert-discipline).  Skipped when a warm start
            # settled every leaf LP-free: the frontier and multipliers are
            # then exactly what the store already holds, so re-recording
            # would be pure churn.
            from repro.api.serialize import certificate_to_json
            from repro.certs import extract_certificate

            cert = extract_certificate(
                spec.network, spec.input_box, spec.objective,
                spec.threshold, result, certificate.leaves, config=cfg,
                lp_baseline=max(lp_baseline, result.lp_solves),
                duals=certificate.leaf_duals)
            self.certs.cert_put(key, certificate_to_json(cert))
        # Savings are measured against the certificate's recorded
        # from-scratch baseline (carried forward across re-records); the
        # solver's own counter (starts settled LP-free by the re-screen)
        # is the floor when no baseline is available.
        lp_saved = max(result.lp_solves_saved,
                       lp_baseline - result.lp_solves if cert_hit else 0, 0)
        holds: Optional[bool] = None
        if certificate is not None:
            holds = True
        elif result.status == BAB_REFUTED:
            holds = False
        return ThresholdVerdict(
            spec_type=spec.spec_type,
            holds=holds,
            provenance=run.provenance(cfg, lp_solves=result.lp_solves,
                                      nodes=result.nodes, rounds=result.rounds,
                                      nodes_reused=result.nodes_reused,
                                      lp_solves_saved=lp_saved,
                                      cert_hit=cert_hit),
            detail=f"status={result.status} upper_bound={result.upper_bound:.6g}",
            result=result,
            certificate=certificate,
        )

    def _reuse_certificate(self, spec: ThresholdSpec, cfg: VerifyConfig,
                           key: str):
        """Try one stored certificate: fetch, parse (unless remembered),
        validate, warm-start.

        Returns ``(result, certificate, True, lp_baseline)`` on a usable
        hit -- ``lp_baseline`` the stored from-scratch LP count savings
        are measured against -- and ``(None, None, False, 0)`` otherwise:
        a miss, a malformed payload, or a stale/incompatible artifact all
        land on the same from-scratch fallback (a certificate may cost a
        lookup, never a verdict).
        """
        cert_json = self.certs.cert_get(key)
        if cert_json is None:
            return None, None, False, 0
        from repro.certs import reverify_with_certificate, validate_certificate
        from repro.errors import CertificateError

        try:
            stored = self._decode_certificate(key, cert_json)
            validate_certificate(stored, spec.network, spec.objective,
                                 spec.threshold, cfg)
        except CertificateError:
            # Rejected (corrupt, stale fingerprint, non-covering leaves):
            # the verdict must come from a from-scratch solve.
            return None, None, False, 0
        result, certificate = reverify_with_certificate(
            spec.network, spec.input_box, spec.objective, spec.threshold,
            stored, config=cfg)
        return result, certificate, True, int(stored.lp_solves)

    def _decode_certificate(self, key: str, cert_json: str):
        """``load_certificate(cert_json)``, or the certificate this engine
        last decoded under ``key`` if that came from an equal string.

        Only a successful decode is remembered; a malformed string raises
        :class:`~repro.errors.CertificateError` on every lookup.  The
        returned object is shared and must be treated as read-only.
        """
        from repro.certs import load_certificate

        with self._cert_lock:
            entry = self._cert_memo.get(key)
            if entry is not None and entry[0] == cert_json:
                self._cert_memo.move_to_end(key)
                return entry[1]
        stored = load_certificate(cert_json)
        with self._cert_lock:
            self._cert_memo[key] = (cert_json, stored)
            self._cert_memo.move_to_end(key)
            while len(self._cert_memo) > CERT_MEMO_SIZE:
                self._cert_memo.popitem(last=False)
        return stored

    def _verify_maximize(self, spec: MaximizeSpec,
                         cfg: VerifyConfig) -> MaximizeVerdict:
        from repro.exact.bab import (
            BAB_OPTIMAL,
            BAB_PROVED,
            BAB_REFUTED,
            _maximize_output,
            _minimize_output,
        )

        run = _Run()
        solve = _minimize_output if spec.minimize else _maximize_output
        result = solve(spec.network, spec.input_box, spec.objective,
                       threshold=spec.threshold, config=cfg)
        holds: Optional[bool] = None
        if spec.threshold is not None:
            holds = {BAB_PROVED: True, BAB_REFUTED: False}.get(result.status)
            if holds is None and result.status == BAB_OPTIMAL:
                # Running to optimality settles the threshold question too
                # (same tol rule as the certificate path).  For minimize,
                # _minimize_output already negated bound and threshold back,
                # so the comparison flips.
                if spec.minimize:
                    holds = result.upper_bound >= spec.threshold - cfg.tol
                else:
                    holds = result.upper_bound <= spec.threshold + cfg.tol
        return MaximizeVerdict(
            spec_type=spec.spec_type,
            holds=holds,
            provenance=run.provenance(cfg, lp_solves=result.lp_solves,
                                      nodes=result.nodes, rounds=result.rounds),
            detail=f"status={result.status}",
            result=result,
        )

    def _verify_proposition(self, spec: PropositionSpec,
                            cfg: VerifyConfig) -> PropositionVerdict:
        from repro.core import propositions as props

        # The spec's own settings, else the kind's method default, else the
        # caller's; provenance keeps reporting the caller's ``cfg``.
        local = cfg.replace(
            method=spec.method or _PROP_METHOD_DEFAULTS.get(spec.kind,
                                                            cfg.method),
            domain=spec.domain or cfg.domain)
        run = _Run()
        if spec.kind == 1:
            result = props._check_prop1(spec.artifacts, spec.enlarged_din,
                                        config=local)
        elif spec.kind == 2:
            result = props._check_prop2(spec.artifacts, spec.enlarged_din,
                                        config=local)
        elif spec.kind == 3:
            result = props.check_prop3(spec.artifacts, spec.enlarged_din,
                                       ord=spec.ord)
        elif spec.kind == 4:
            result = props._check_prop4(
                spec.artifacts, spec.new_network,
                enlarged_din=spec.enlarged_din,
                stop_on_failure=spec.stop_on_failure, config=local)
        elif spec.kind == 5:
            result = props._check_prop5(
                spec.artifacts, spec.new_network, spec.alphas,
                enlarged_din=spec.enlarged_din, config=local)
        else:
            result = props.check_prop6(spec.artifacts, spec.new_network,
                                       recheck_safety=spec.recheck_safety,
                                       method=local.method)
        return PropositionVerdict(
            spec_type=spec.spec_type,
            holds=result.holds,
            provenance=run.provenance(
                cfg,
                lp_solves=sum(s.lp_solves for s in result.subproblems)),
            detail=result.detail,
            result=result,
        )

    def _verify_continuous(self, spec: ContinuousLoopSpec,
                           cfg: VerifyConfig) -> ContinuousVerdict:
        from repro.core.continuous import ContinuousVerifier
        from repro.core.problem import SVbTV, SVuDC

        run = _Run()
        verifier = ContinuousVerifier(spec.artifacts, config=cfg,
                                      certs=self.certs)
        if spec.new_network is None:
            problem = SVuDC(spec.artifacts.problem, spec.enlarged_din)
            if spec.strategies is not None:
                result = verifier.verify_domain_change(
                    problem, strategies=spec.strategies)
            else:
                result = verifier.verify_domain_change(problem)
        else:
            problem = SVbTV(spec.artifacts.problem, spec.new_network,
                            spec.enlarged_din)
            kwargs = {"prop5_alphas": spec.prop5_alphas,
                      "with_fixing": spec.with_fixing}
            if spec.strategies is not None:
                kwargs["strategies"] = spec.strategies
            result = verifier.verify_new_version(problem, **kwargs)
        lp_solves = sum(s.lp_solves for attempt in result.attempts
                        for s in attempt.subproblems)
        return ContinuousVerdict(
            spec_type=spec.spec_type,
            holds=result.holds,
            provenance=run.provenance(
                cfg, lp_solves=lp_solves,
                nodes_reused=result.nodes_reused,
                lp_solves_saved=result.lp_solves_saved,
                cert_hit=result.nodes_reused > 0),
            detail=result.strategy,
            result=result,
        )

    _HANDLERS = {
        ContainmentSpec: _verify_containment,
        OutputRangeSpec: _verify_output_range,
        ThresholdSpec: _verify_threshold,
        MaximizeSpec: _verify_maximize,
        PropositionSpec: _verify_proposition,
        ContinuousLoopSpec: _verify_continuous,
    }


# ------------------------------------------------------- module-level sugar
def verify(spec: Spec, config: Optional[VerifyConfig] = None) -> Verdict:
    """One-shot ``VerificationEngine(config).verify(spec)``."""
    return VerificationEngine(config).verify(spec)


def submit(specs: Sequence[Spec],
           config: Optional[VerifyConfig] = None) -> List[Verdict]:
    """One-shot ``VerificationEngine(config).submit(specs)``."""
    return VerificationEngine(config).submit(specs)
