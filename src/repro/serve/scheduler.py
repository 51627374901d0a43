"""The verification service: a scheduler over the job store + executors.

:class:`VerificationService` accepts Specs (objects or wire dicts),
fingerprints them against the verdict cache, queues misses in the
persistent :class:`~repro.serve.store.JobStore`, and drains the queue
with a pool of worker threads, each handing claimed jobs to the
configured executor (in-process engine or ``verify-spec`` subprocess),
always wrapped in a :class:`~repro.serve.resilience.SupervisedExecutor`
(circuit breaker per link, optional failover chain).

Scheduling is priority-then-FIFO (the store's ``claim_next`` order),
cancellation is immediate for queued jobs and best-effort for running
ones (the result is discarded and never cached), and per-job timeouts are
enforced by the executor (preemptively for subprocesses, post-hoc for
in-process runs).  A cache hit never touches an executor: the job is
recorded ``done`` at submission with the cached verdict, its provenance
re-marked ``cached: true`` so clients can see no new solve happened.

Fault tolerance (PR 6), driven by one :class:`~repro.api.config
.ServeConfig`:

* every executor failure is classified against the taxonomy in
  :mod:`repro.errors` and persisted per attempt in the store's
  ``attempts`` table;
* *transient* failures (crash, hang, malformed wire reply) are retried
  with exponential backoff + deterministic jitter until the per-job
  attempt budget runs out; *permanent* failures (bad specs, solver
  rejections) fail terminally on first sight;
* when every breaker in the executor chain is open, workers stop
  claiming, and a job caught mid-flight is parked *without* charging its
  attempt budget;
* a queue-depth limit rejects submissions with
  :class:`~repro.errors.QueueFullError` (HTTP 503 + ``Retry-After``);
* a client deadline travels submit -> store -> executor: expired jobs are
  failed at claim time instead of started, and the executor's timeout is
  clipped to the remaining deadline so work never outlives its use.

Certificate reuse (PR 9): when the service default config's ``certs``
policy is not ``"off"``, in-process executor links are handed the
service's own :class:`JobStore` as their certificate provider (wrapped in
:class:`_CertProvider` for hit/miss/stored counters).  A proved threshold
job records its covering frontier under its weight-tolerant certificate
key; re-verifying a perturbed network finds it and warm-starts.  Two
invariants guard the store's existing guarantees: a warm-started verdict
is **never** written to the verdict cache (its provenance depends on
store state, while the cache promises that matching job fingerprints
yield identical verdict documents), and the verdict *decision* is
re-derived in full by the solver either way, so cert state can never
change an answer.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import QueueFullError, ServeError
from repro.serve.executors import make_executor
from repro.serve.resilience import (
    ExecutorUnavailableError,
    SupervisedExecutor,
    classify_failure,
)
from repro.serve.store import (
    JOB_QUEUED,
    JOB_RUNNING,
    AttemptRecord,
    JobRecord,
    JobStore,
    job_fingerprint,
)

__all__ = ["VerificationService"]


class VerificationService:
    """Asynchronous verification: submit Specs now, collect Verdicts later.

    ``store`` is a :class:`JobStore` or a path for one (``":memory:"``
    for a transient service); ``executor`` an executor instance, a name
    (``"inprocess"`` / ``"subprocess"``), or a *sequence* of either --
    a failover chain, tried in order (e.g. ``("subprocess", "inprocess")``
    degrades gracefully when subprocess spawning breaks); ``workers`` the
    number of concurrent jobs; ``default_config`` the
    :class:`~repro.api.config.VerifyConfig` applied to submissions that
    do not bundle their own; ``serve_config`` the
    :class:`~repro.api.config.ServeConfig` resilience knobs (retry
    policy, circuit breakers, backpressure).
    """

    def __init__(self, store: Union[JobStore, str] = ":memory:",
                 executor: Union[str, object, Sequence] = "inprocess",
                 workers: int = 1,
                 default_config=None,
                 poll_interval: float = 0.05,
                 serve_config=None):
        if workers < 1:
            raise ServeError(f"workers must be positive, got {workers}")
        from repro.api.config import ServeConfig, VerifyConfig

        self.serve_config = serve_config or ServeConfig()
        self.retry_policy = self.serve_config.retry_policy()
        if isinstance(store, JobStore):
            self.store = store
        else:
            # The store's crash-loop ceiling must cover the retry budget,
            # or claim_next would give a job up before its last retry.
            self.store = JobStore(
                store,
                max_attempts=max(3, self.serve_config.retry_attempts))
        self.workers = int(workers)
        self.default_config = default_config or VerifyConfig()
        # Built after default_config: executor links pick up the cert
        # provider when the service-level policy enables reuse.
        self.executor = self._build_executor(executor)
        self.poll_interval = float(poll_interval)
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._threads: List[threading.Thread] = []
        self._cancel_lock = threading.Lock()
        self._cancel_requested: set = set()  # guarded-by: self._cancel_lock
        self._stats_lock = threading.Lock()
        self.executed_jobs = 0        # guarded-by: self._stats_lock
        self.cache_hits = 0           # guarded-by: self._stats_lock
        self.worker_errors = 0        # guarded-by: self._stats_lock
        self.retries = 0              # guarded-by: self._stats_lock
        self.rejected_jobs = 0        # guarded-by: self._stats_lock
        self.parked_unavailable = 0   # guarded-by: self._stats_lock
        self.cert_hits = 0            # guarded-by: self._stats_lock
        self.cert_misses = 0          # guarded-by: self._stats_lock
        self.cert_stored = 0          # guarded-by: self._stats_lock
        self.cert_reused = 0          # guarded-by: self._stats_lock
        # guarded-by: self._stats_lock
        self.failures_by_type: Dict[str, int] = {}

    def _build_executor(self, executor):
        """Resolve names/instances into one supervised failover chain.
        Executors that carry their own supervision (``supervised = True``,
        e.g. the coordinator's :class:`~repro.serve.remote.ShardRouter`
        with one breaker per shard) pass through unwrapped."""
        if isinstance(executor, SupervisedExecutor) or \
                getattr(executor, "supervised", False):
            return executor
        links = (list(executor) if isinstance(executor, (list, tuple))
                 else [executor])
        if not links:
            raise ServeError("executor chain must not be empty")

        def _link(spec):
            if spec == "subprocess":
                from repro.serve.executors import SubprocessExecutor

                return SubprocessExecutor(
                    kill_grace=self.serve_config.kill_grace)
            link = make_executor(spec)
            # In-process links get the service's own store as their
            # certificate provider (subprocess children have no handle
            # into this process and simply solve cold -- sound either
            # way).  Gated on the *service* policy: per-job configs can
            # tighten to "off" but cannot conjure a provider.
            if self.default_config.certs != "off" and \
                    getattr(link, "certs", "absent") is None:
                link.certs = _CertProvider(self)
            return link

        return SupervisedExecutor(
            [_link(link) for link in links],
            failure_threshold=self.serve_config.breaker_threshold,
            reset_timeout=self.serve_config.breaker_reset)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "VerificationService":
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return self
        self._stop.clear()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{i}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def close(self, wait: bool = True) -> None:
        """Stop the workers (in-flight jobs finish first) and close the
        store.  The store stays crash-consistent either way; ``close`` is
        the polite shutdown, a kill is the recovery test."""
        self._stop.set()
        self._wake.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []
        closer = getattr(self.executor, "close", None)
        if callable(closer):  # e.g. the ShardRouter's health checker
            closer()
        self.store.close()

    def __enter__(self) -> "VerificationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------- submission
    def submit(self, spec, config=None, priority: int = 0,
               timeout: Optional[float] = None,
               deadline: Optional[float] = None) -> JobRecord:
        """Accept one verification request; returns its job record.

        ``spec`` is a Spec object or its wire dict; ``config`` a
        VerifyConfig, its dict form, or ``None`` for the service default;
        ``timeout`` the per-attempt wall-clock budget; ``deadline`` the
        *total* client budget in seconds from now -- after it passes the
        job is failed instead of (re)started, and the executor timeout is
        clipped to the remaining deadline.
        An identical ``(spec, config)`` already answered by this store is
        served from the verdict cache instantly -- the returned record is
        already ``done`` with ``cache_hit`` set and the verdict's
        provenance marked ``cached``.  When the queue-depth limit is hit,
        raises :class:`~repro.errors.QueueFullError` (cache hits are
        exempt: they queue nothing).
        """
        from repro.api.config import VerifyConfig
        from repro.api.specs import Spec, spec_from_dict, spec_to_json

        if isinstance(spec, Spec):
            spec_obj = spec
        elif isinstance(spec, dict):
            spec_obj = spec_from_dict(spec)  # validates + normalises
        else:
            raise ServeError(
                f"submit needs a Spec or its wire dict, got "
                f"{type(spec).__name__}")
        if config is None:
            cfg = self.default_config
        elif isinstance(config, VerifyConfig):
            cfg = config
        elif isinstance(config, dict):
            cfg = VerifyConfig.from_dict(config)
        else:
            raise ServeError(
                f"submit needs a VerifyConfig or its dict form, got "
                f"{type(config).__name__}")
        for name, value in (("timeout", timeout), ("deadline", deadline)):
            if value is not None and \
                    not (value > 0 and math.isfinite(value)):
                # The executors disagree on a non-positive budget (instant
                # subprocess kill vs full solve discarded late), and an
                # inf cannot survive the strict-JSON record; reject at the
                # door.
                raise ServeError(
                    f"job {name} must be positive and finite, got "
                    f"{value!r}")

        from repro.api.serialize import config_to_json

        fingerprint = job_fingerprint(spec_obj, cfg)
        spec_json = spec_to_json(spec_obj, sort_keys=True)
        config_json = config_to_json(cfg)

        cached = self.store.cache_get(fingerprint)
        if cached is not None:
            with self._stats_lock:
                self.cache_hits += 1
            return self.store.submit(
                spec_json, config_json, fingerprint, priority=priority,
                timeout=timeout, verdict_json=_mark_cached(cached),
                cache_hit=True)
        limit = self.serve_config.queue_limit
        if limit is not None:
            depth = self.store.queue_depth()
            if depth >= limit:
                with self._stats_lock:
                    self.rejected_jobs += 1
                raise QueueFullError(
                    f"queue full ({depth} queued >= limit {limit}); "
                    "retry later",
                    retry_after=self.serve_config.retry_after)
        record = self.store.submit(
            spec_json, config_json, fingerprint, priority=priority,
            timeout=timeout,
            deadline=None if deadline is None else time.time() + deadline)
        self._wake.set()
        return record

    # -------------------------------------------------------------- queries
    def job(self, job_id: str) -> JobRecord:
        return self.store.get(job_id)

    def jobs(self, state: Optional[str] = None,
             limit: Optional[int] = None) -> List[JobRecord]:
        return self.store.list_jobs(state=state, limit=limit)

    def attempt_log(self, job_id: str) -> List[AttemptRecord]:
        """Every recorded execution attempt of one job, oldest first."""
        self.store.get(job_id)  # raises for unknown jobs
        return self.store.attempt_log(job_id)

    # ---------------------------------------------------- coordinator fleet
    def register_worker(self, url: str) -> Dict:
        """Register (or heartbeat) a worker shard -- coordinator mode
        only (the executor must be a shard router)."""
        add = getattr(self.executor, "add_worker", None)
        if not callable(add):
            raise ServeError(
                "this server is not a coordinator (start it with "
                "repro serve --coordinator to accept worker registration)")
        return add(url)

    def worker_states(self) -> List[Dict]:
        """Per-shard registry records -- coordinator mode only."""
        registry = getattr(self.executor, "registry", None)
        if registry is None:
            raise ServeError(
                "this server is not a coordinator (no worker registry)")
        return registry.states()

    def wait(self, job_id: str,
             timeout: Optional[float] = 60.0) -> JobRecord:
        """Block until the job reaches a terminal state; the store wakes
        the caller the moment it gets there."""
        record = self.store.wait_terminal(job_id, timeout)
        if not record.terminal:
            raise TimeoutError(
                f"job {job_id} still {record.state} after {timeout:g}s")
        return record

    def verdict(self, job_id: str):
        """The finished job's :class:`~repro.api.verdict.Verdict` object."""
        from repro.api.serialize import verdict_from_json

        record = self.store.get(job_id)
        if record.verdict_json is None:
            raise ServeError(
                f"job {job_id} has no verdict (state {record.state!r}"
                + (f", error {record.error!r}" if record.error else "") + ")")
        return verdict_from_json(record.verdict_json)

    def cancel(self, job_id: str) -> str:
        """Cancel a job; returns its state afterwards.  Queued jobs
        (including ones parked between retry attempts) are cancelled
        immediately; running jobs best-effort (the executor is not
        interrupted, but the result is discarded and never cached)."""
        # Two passes cover the retry race: a job read as ``running`` may
        # be requeued for backoff before the flag lands -- the second
        # pass then cancels it in the queue.
        for _ in range(2):
            state = self.store.cancel_queued(job_id)
            if state != JOB_RUNNING:
                return state
            with self._cancel_lock:
                self._cancel_requested.add(job_id)
            current = self.store.get(job_id).state
            if current == JOB_RUNNING:
                return JOB_RUNNING
            # The job left ``running`` between the state read and the
            # flag: the worker's own cleanup has then already run (or the
            # job is queued again for a retry), so drop the flag here and
            # handle the real state.
            self._clear_cancel(job_id)
            if current != JOB_QUEUED:
                return current
        return self.store.get(job_id).state

    def stats(self) -> Dict:
        counts = self.store.counts()
        with self._stats_lock:
            executed, cache_hits = self.executed_jobs, self.cache_hits
            worker_errors = self.worker_errors
            resilience = {
                "retries": self.retries,
                "rejected_jobs": self.rejected_jobs,
                "parked_unavailable": self.parked_unavailable,
                "failures_by_type": dict(self.failures_by_type),
            }
            certificates = {
                "policy": self.default_config.certs,
                "hits": self.cert_hits,
                "misses": self.cert_misses,
                "stored": self.cert_stored,
                "reused": self.cert_reused,
            }
        certificates["store"] = self.store.cert_stats()
        resilience["retry_policy"] = {
            "max_attempts": self.retry_policy.max_attempts,
            "base_delay": self.retry_policy.base_delay,
            "max_delay": self.retry_policy.max_delay,
        }
        resilience["queue_limit"] = self.serve_config.queue_limit
        resilience["executor"] = self.executor.stats()
        return {
            "jobs": counts,
            "queued": counts[JOB_QUEUED],
            "running": counts[JOB_RUNNING],
            "executed_jobs": executed,
            "cache_hits": cache_hits,
            "worker_errors": worker_errors,
            "verdict_cache": self.store.cache_stats(),
            "certificates": certificates,
            "recovered_jobs": self.store.recovered_jobs,
            "workers": self.workers,
            "executor": self.executor.name,
            "resilience": resilience,
        }

    # -------------------------------------------------------------- workers
    def _executor_shard(self) -> Optional[str]:
        """Which shard the calling thread's last execute call routed to
        (``None`` for non-routing executors)."""
        last = getattr(self.executor, "last_shard", None)
        return last() if callable(last) else None

    def _cancelled(self, job_id: str) -> bool:
        with self._cancel_lock:
            return job_id in self._cancel_requested

    def _clear_cancel(self, job_id: str) -> None:
        with self._cancel_lock:
            self._cancel_requested.discard(job_id)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            if not self.executor.available():
                # Every breaker is open: claiming would only burn attempt
                # budgets.  Sleep until the next half-open probe window.
                self._stop.wait(self.poll_interval)
                continue
            try:
                record = self.store.claim_next()
            except Exception:
                # A transient store error (sqlite busy, disk hiccup) must
                # not kill the worker -- a dead thread would silently
                # degrade the service while /healthz still reports ok.
                # Count it and back off (mid-shutdown: bow out quietly).
                if self._stop.is_set():
                    return
                with self._stats_lock:
                    self.worker_errors += 1
                self._stop.wait(self.poll_interval)
                continue
            if record is None:
                self._wake.wait(self.poll_interval)
                self._wake.clear()
                continue
            try:
                self._run_job(record)
            except Exception:
                # _run_job contains per-job errors itself; reaching here
                # means a *store transition* failed.  Same policy: count,
                # back off, keep the worker alive.
                if self._stop.is_set():
                    return
                with self._stats_lock:
                    self.worker_errors += 1
                self._stop.wait(self.poll_interval)

    def _run_job(self, record: JobRecord) -> None:
        job_id = record.job_id
        terminal = False
        try:
            if self._cancelled(job_id):
                self.store.mark_cancelled(job_id)
                terminal = True
                return
            # A duplicate of a job that *finished while this one queued*
            # is answered from the cache here instead of re-solving (the
            # submit-time check can only see verdicts that existed then;
            # concurrently-running duplicates still race — acceptable:
            # first writer wins the cache either way).
            cached = self.store.cache_get(record.fingerprint)
            if cached is not None:
                with self._stats_lock:
                    self.cache_hits += 1
                self.store.finish(job_id, _mark_cached(cached),
                                  cache_hit=True)
                terminal = True
                return
            started = time.time()
            timeout = record.timeout
            if record.deadline is not None:
                remaining = record.deadline - started
                if remaining <= 0:
                    # claim_next races the clock; re-check before working.
                    self.store.fail(job_id,
                                    "deadline exceeded before execution",
                                    error_type="JobDeadlineError")
                    terminal = True
                    return
                timeout = (remaining if timeout is None
                           else min(timeout, remaining))
            try:
                verdict_dict = self.executor.execute(
                    record.spec_json, record.config_json, timeout=timeout)
            except ExecutorUnavailableError:
                # Nothing ever ran this job (all breakers opened between
                # the availability check and the call): park it without
                # charging its attempt budget, aligned to the next
                # half-open probe window.
                delay = max(self.poll_interval,
                            min(self.serve_config.breaker_reset, 1.0))
                self.store.requeue(job_id, not_before=time.time() + delay,
                                   uncount=True)
                with self._stats_lock:
                    self.parked_unavailable += 1
                return
            except Exception as exc:  # noqa: BLE001 - classified below
                terminal = self._handle_failure(record, exc, started)
                return
            with self._stats_lock:
                self.executed_jobs += 1
            self.store.record_attempt(job_id, record.attempts, "ok",
                                      started_at=started,
                                      shard=self._executor_shard())
            verdict_json = json.dumps(verdict_dict, allow_nan=False,
                                      sort_keys=True)
            if self._cancelled(job_id):
                # Cancelled while running: discard, crucially never cache.
                self.store.mark_cancelled(job_id)
                terminal = True
                return
            self.store.finish(job_id, verdict_json)
            provenance = verdict_dict.get("provenance") or {}
            if provenance.get("cert_hit"):
                # A warm-started verdict's provenance (cert_hit, reuse
                # counters, lp_solves) depends on what the certificate
                # store happened to contain, while the verdict cache
                # promises that one fingerprint maps to one verdict
                # document.  The job is answered; only the cache write is
                # skipped -- the next identical submission re-solves (and
                # warm-starts again).
                with self._stats_lock:
                    self.cert_reused += 1
            else:
                self.store.cache_put(record.fingerprint, verdict_json)
            terminal = True
        finally:
            # Drop any cancel flag once the job is terminal.  A job
            # *parked* for a retry (or breaker cool-down) keeps its flag,
            # so the next claim cancels it immediately instead of
            # re-running it.
            if terminal:
                self._clear_cancel(job_id)

    def _handle_failure(self, record: JobRecord, exc: Exception,
                        started: float) -> bool:
        """Classify, persist, and route one failed attempt.  Returns True
        when the job went terminal (vs parked for a retry)."""
        job_id = record.job_id
        error_type, transient = classify_failure(exc)
        attempt = record.attempts  # the claim already bumped it
        self.store.record_attempt(job_id, attempt, error_type,
                                  error=str(exc), transient=transient,
                                  started_at=started,
                                  shard=self._executor_shard())
        with self._stats_lock:
            self.executed_jobs += 1
            self.failures_by_type[error_type] = \
                self.failures_by_type.get(error_type, 0) + 1
        if self._cancelled(job_id):
            self.store.mark_cancelled(job_id)
            return True
        if transient and self.retry_policy.should_retry(attempt, transient):
            delay = self.retry_policy.delay(job_id, attempt)
            if record.deadline is not None and \
                    time.time() + delay >= record.deadline:
                self.store.fail(
                    job_id,
                    f"{error_type}: {exc} (deadline leaves no room to "
                    "retry)",
                    error_type="JobDeadlineError")
                return True
            self.store.requeue(job_id, not_before=time.time() + delay)
            with self._stats_lock:
                self.retries += 1
            return False
        suffix = ("" if not transient
                  else f" (gave up after {attempt} attempts)")
        self.store.fail(job_id, f"{error_type}: {exc}{suffix}",
                        error_type=error_type)
        return True


class _CertProvider:
    """The engine-facing certificate provider for in-process executor
    links: the service's own :class:`~repro.serve.store.JobStore`,
    instrumented with the scheduler's hit/miss/stored counters.  Speaks
    wire strings only (``cert_json`` in and out), per cert-discipline."""

    def __init__(self, service: VerificationService):
        self._service = service

    def cert_get(self, cert_key: str):
        cert_json = self._service.store.cert_get(cert_key)
        with self._service._stats_lock:
            if cert_json is None:
                self._service.cert_misses += 1
            else:
                self._service.cert_hits += 1
        return cert_json

    def cert_put(self, cert_key: str, cert_json: str) -> None:
        self._service.store.cert_put(cert_key, cert_json)
        with self._service._stats_lock:
            self._service.cert_stored += 1


def _mark_cached(verdict_json: str) -> str:
    """Re-mark a cached verdict's provenance before replaying it."""
    data = json.loads(verdict_json)
    provenance = data.setdefault("provenance", {})
    provenance["cached"] = True
    return json.dumps(data, allow_nan=False, sort_keys=True)
