"""Fault tolerance for the serving layer: classification, retries,
circuit breakers, supervision, and deterministic fault injection.

The pieces compose bottom-up:

* :func:`classify_failure` maps any exception an executor raises onto the
  two-kind taxonomy of :mod:`repro.errors` -- ``(error_type, transient)``.
  The scheduler retries *only* transient failures; permanent ones fail the
  job on first sight.
* :class:`RetryPolicy` decides *whether* and *when* a failed attempt runs
  again: exponential backoff with deterministic jitter (a hash of
  ``(job_id, attempt)``, so two runs of the same workload produce the same
  schedule -- no wall-clock randomness to un-reproduce a chaos run).
* :class:`CircuitBreaker` tracks one executor's health: ``closed`` while
  healthy, ``open`` after K *consecutive* transient failures (permanent
  job failures say nothing about executor health and are not counted),
  ``half_open`` after a cool-down, admitting exactly one probe whose
  outcome closes or re-opens the circuit.
* :class:`SupervisedExecutor` wraps a failover chain of executors, one
  breaker each: a job tries the first executor whose breaker admits it;
  transient failures fall through to the next link (e.g. subprocess ->
  in-process graceful degradation), permanent failures propagate
  immediately.  When every breaker is open it raises
  :class:`ExecutorUnavailableError`, which the scheduler treats as "try
  again later" *without* charging the job's attempt budget.
* :class:`FaultInjectingExecutor` injects the faults the rest of this
  module exists to absorb -- crash, hang-past-timeout, truncated JSON,
  garbage stdout, nonzero exit, slow start -- from a seeded RNG or an
  explicit per-call script, so the chaos suite and ``bench_resilience.py``
  are deterministic and reproducible.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

import repro.errors as _errors
from repro.errors import (
    ExecutorCrashError,
    JobTimeoutError,
    MalformedWireError,
    PermanentJobError,
    RemoteProtocolError,
    RemoteUnreachableError,
    ReproError,
    ServeError,
    TransientExecutionError,
)

__all__ = [
    "classify_failure",
    "raise_reported_failure",
    "RetryPolicy",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "ExecutorUnavailableError",
    "SupervisedExecutor",
    "FaultInjectingExecutor",
    "FAULT_KINDS",
]


class ExecutorUnavailableError(TransientExecutionError):
    """Every executor in the chain has an open breaker; nothing even
    attempted the job.  The scheduler requeues without charging the
    job's attempt budget (the job was never executed)."""


# ------------------------------------------------------------ classification

#: Exception families that deterministically reproduce on retry: the *job*
#: is the problem, not the infrastructure.  ``ReproError`` covers every
#: solver-side failure (ShapeError, SolverError, UnsupportedLayerError, ...);
#: ValueError/TypeError/KeyError cover spec deserialization blowing up on
#: structurally-plausible junk.  The serving taxonomy classes are checked
#: first, so e.g. MalformedWireError (a ServeError, hence ReproError) stays
#: transient.
_PERMANENT_FAMILIES = (ReproError, ValueError, TypeError, KeyError)


def classify_failure(exc: BaseException) -> Tuple[str, bool]:
    """``(error_type, transient)`` for one execution failure.

    ``error_type`` is the taxonomy class name recorded in the attempts
    table and the job's ``error_type`` field; ``transient`` is the single
    bit the retry machinery keys off.  Unknown exception types default to
    *transient*: a spurious retry costs one re-solve, a spurious permanent
    verdict drops a job healthy infrastructure could have answered.
    """
    if isinstance(exc, JobTimeoutError):
        return "JobTimeoutError", True
    if isinstance(exc, ExecutorCrashError):
        return "ExecutorCrashError", True
    if isinstance(exc, MalformedWireError):
        return "MalformedWireError", True
    if isinstance(exc, RemoteUnreachableError):
        # Network-level failures (connection refused/reset, socket
        # timeouts) are the distributed twin of a crashed subprocess:
        # the infrastructure died, the job is fine.  Retry/backoff/
        # breakers apply unchanged.
        return "RemoteUnreachableError", True
    if isinstance(exc, RemoteProtocolError):
        return "RemoteProtocolError", True
    if isinstance(exc, ExecutorUnavailableError):
        return "ExecutorUnavailableError", True
    if isinstance(exc, TransientExecutionError):
        return type(exc).__name__, True
    if isinstance(exc, PermanentJobError):
        return type(exc).__name__, False
    if isinstance(exc, TimeoutError):  # pre-taxonomy executors
        return "JobTimeoutError", True
    if isinstance(exc, _PERMANENT_FAMILIES):
        return type(exc).__name__, False
    return type(exc).__name__, True


def raise_reported_failure(error_type: str, message: str) -> NoReturn:
    """Re-raise a failure an executor subprocess or remote shard reported
    by class name as that :mod:`repro.errors` or builtin class, so a bad
    spec stays permanent; any other name is an :class:`ExecutorCrashError`."""
    cls = None
    if isinstance(error_type, str):
        cls = getattr(_errors, error_type, None) \
            or getattr(builtins, error_type, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        raise cls(message)
    raise ExecutorCrashError(message)


# ------------------------------------------------------------- retry policy


@dataclass(frozen=True)
class RetryPolicy:
    """When a transiently-failed job runs again.

    ``max_attempts`` is the *total* execution budget (1 = never retry).
    The delay before attempt ``n+1`` is ``base_delay * multiplier**(n-1)``
    capped at ``max_delay``, then shrunk by up to ``jitter`` (a fraction
    in [0, 1]) using a deterministic hash of ``(job_id, n)`` -- identical
    runs schedule identically, while concurrent retries of different jobs
    still de-synchronise.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ServeError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ServeError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}/{self.max_delay}")
        if self.multiplier < 1:
            raise ServeError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not (0 <= self.jitter <= 1):
            raise ServeError(f"jitter must be in [0, 1], got {self.jitter}")

    def should_retry(self, attempt: int, transient: bool = True) -> bool:
        """May attempt number ``attempt`` (1-based, already failed) be
        followed by another?  Only for transient failures within budget."""
        return transient and attempt < self.max_attempts

    def delay(self, job_id: str, attempt: int) -> float:
        """Seconds to wait before re-running ``job_id`` after its
        ``attempt``-th failure (deterministic in both arguments)."""
        raw = self.base_delay * self.multiplier ** max(attempt - 1, 0)
        capped = min(raw, self.max_delay)
        digest = hashlib.sha256(
            f"{job_id}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
        return capped * (1.0 - self.jitter * fraction)


# ----------------------------------------------------------- circuit breaker

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-transient-failure circuit breaker (thread-safe).

    ``closed`` admits everything; after ``failure_threshold`` consecutive
    transient failures the circuit is ``open`` and admits nothing for
    ``reset_timeout`` seconds; then ``half_open`` admits exactly one probe
    at a time -- success closes the circuit, failure re-opens it (and
    restarts the cool-down).  ``clock`` is injectable so tests can drive
    state transitions without sleeping.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 30.0, clock=time.monotonic):
        if failure_threshold < 1:
            raise ServeError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout < 0:
            raise ServeError(
                f"reset_timeout must be >= 0, got {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED              # guarded-by: self._lock
        self._consecutive_failures = 0            # guarded-by: self._lock
        self._opened_at: Optional[float] = None   # guarded-by: self._lock
        self._probe_in_flight = False             # guarded-by: self._lock
        self.open_count = 0
        self.probe_count = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state_locked()

    def _effective_state_locked(self) -> str:
        # The _locked suffix is the contract: the caller holds self._lock
        # (checked by the lock-discipline lint rule).  ``open`` lazily
        # becomes ``half_open`` once the cool-down has elapsed; no
        # background timer thread needed.
        if self._state == BREAKER_OPEN and \
                self._clock() - self._opened_at >= self.reset_timeout:
            self._state = BREAKER_HALF_OPEN
            self._probe_in_flight = False
        return self._state

    def available(self) -> bool:
        """Would :meth:`allow` admit a call right now (without actually
        claiming the half-open probe slot)?"""
        with self._lock:
            state = self._effective_state_locked()
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN:
                return not self._probe_in_flight
            return False

    def allow(self) -> bool:
        """Admit one call.  In ``half_open`` this *claims* the single
        probe slot; the caller owes a ``record_success``/``record_failure``
        to release it."""
        with self._lock:
            state = self._effective_state_locked()
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                self.probe_count += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            self._state = BREAKER_CLOSED
            self._opened_at = None

    def record_failure(self, transient: bool = True) -> None:
        """A call failed.  Permanent (job-content) failures do not count:
        a bad spec says nothing about the executor's health."""
        if not transient:
            return
        with self._lock:
            state = self._effective_state_locked()
            self._consecutive_failures += 1
            if state == BREAKER_HALF_OPEN:
                # The probe failed: straight back to open, fresh cool-down.
                self._probe_in_flight = False
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self.open_count += 1
            elif state == BREAKER_CLOSED and \
                    self._consecutive_failures >= self.failure_threshold:
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self.open_count += 1

    def stats(self) -> Dict:
        with self._lock:
            return {
                "state": self._effective_state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
                "open_count": self.open_count,
                "probe_count": self.probe_count,
            }


# --------------------------------------------------------------- supervision


class SupervisedExecutor:
    """A failover chain of executors, one circuit breaker each.

    ``execute`` walks the chain in order: the first executor whose breaker
    admits the call runs the job.  On a *transient* failure the breaker is
    charged and the next link is tried with the same job (graceful
    degradation, e.g. ``subprocess -> inprocess``); a *permanent* failure
    propagates immediately -- no executor can fix a bad spec.  When no
    link admits the call, :class:`ExecutorUnavailableError` is raised so
    the scheduler can park the job without charging its attempt budget.
    """

    def __init__(self, executors: Sequence, failure_threshold: int = 5,
                 reset_timeout: float = 30.0, clock=time.monotonic):
        if not executors:
            raise ServeError("SupervisedExecutor needs >= 1 executor")
        self.chain = list(executors)
        self.breakers = [CircuitBreaker(failure_threshold, reset_timeout,
                                        clock=clock)
                         for _ in self.chain]
        self._lock = threading.Lock()
        self._successes = [0] * len(self.chain)  # guarded-by: self._lock
        self._failures = [0] * len(self.chain)   # guarded-by: self._lock
        self._failovers = 0                      # guarded-by: self._lock

    @property
    def name(self) -> str:
        # A single-link chain keeps the inner name so existing stats
        # consumers ("executor": "inprocess") are unchanged.
        names = [ex.name for ex in self.chain]
        return names[0] if len(names) == 1 else "->".join(names)

    def available(self) -> bool:
        """Does any link currently admit a job?  Polled by the scheduler
        *before* claiming, so breaker-open periods never burn attempts."""
        return any(breaker.available() for breaker in self.breakers)

    def execute(self, spec_json: str, config_json: str,
                timeout: Optional[float] = None) -> Dict:
        last_transient: Optional[Exception] = None
        admitted = False
        for index, (executor, breaker) in enumerate(
                zip(self.chain, self.breakers)):
            if not breaker.allow():
                continue
            if admitted:
                with self._lock:
                    self._failovers += 1
            admitted = True
            try:
                result = executor.execute(spec_json, config_json,
                                          timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - classified below
                _, transient = classify_failure(exc)
                breaker.record_failure(transient=transient)
                with self._lock:
                    self._failures[index] += 1
                if not transient:
                    raise  # the job is bad on every executor
                last_transient = exc
                continue
            breaker.record_success()
            with self._lock:
                self._successes[index] += 1
            return result
        if last_transient is not None:
            raise last_transient
        raise ExecutorUnavailableError(
            "no executor available: "
            + ", ".join(f"{ex.name}={br.state}"
                        for ex, br in zip(self.chain, self.breakers)))

    def stats(self) -> Dict:
        with self._lock:
            successes = list(self._successes)
            failures = list(self._failures)
            failovers = self._failovers
        return {
            "name": self.name,
            "available": self.available(),
            "failovers": failovers,
            "chain": [
                {
                    "name": executor.name,
                    "successes": successes[index],
                    "failures": failures[index],
                    "breaker": breaker.stats(),
                }
                for index, (executor, breaker) in enumerate(
                    zip(self.chain, self.breakers))
            ],
        }


# ------------------------------------------------------------ fault injection

FAULT_KINDS = ("crash", "hang", "truncated_json", "garbage_stdout",
               "nonzero_exit", "slow_start")


class FaultInjectingExecutor:
    """Wrap an executor and inject failures deterministically.

    Two scheduling modes:

    * ``faults=[...]`` -- an explicit per-call script (``None`` entries
      mean "no fault"; the list is consumed in call order, then the
      executor runs clean).  This is the unit-test mode: exact faults at
      exact calls.
    * ``fault_rate`` + ``seed`` -- each call draws from one seeded
      ``random.Random``; at most a ``fault_rate`` fraction of calls fault,
      with the kind drawn uniformly from ``kinds``.  Same seed, same call
      order => same fault sequence (single-worker runs are fully
      deterministic; multi-worker runs are reproducible per arrival
      order).

    ``hang``/``slow_start`` sleep for real (bounded by ``hang_time``), so
    timeout paths are exercised honestly; the wire faults re-create what
    :class:`~repro.serve.executors.SubprocessExecutor` raises when a child
    returns truncated or garbage output, including running the real solve
    first so the cost profile matches an actual late corruption.
    """

    def __init__(self, inner, fault_rate: float = 0.0, seed: int = 0,
                 kinds: Sequence[str] = FAULT_KINDS,
                 faults: Optional[Sequence[Optional[str]]] = None,
                 hang_time: float = 0.05):
        import random

        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ServeError(
                f"unknown fault kinds {sorted(unknown)}; "
                f"known: {FAULT_KINDS}")
        if not (0.0 <= fault_rate <= 1.0):
            raise ServeError(
                f"fault_rate must be in [0, 1], got {fault_rate}")
        if faults is not None:
            bad = {f for f in faults if f is not None} - set(FAULT_KINDS)
            if bad:
                raise ServeError(
                    f"unknown scripted faults {sorted(bad)}; "
                    f"known: {FAULT_KINDS}")
        self.inner = inner
        self.fault_rate = float(fault_rate)
        self.seed = int(seed)
        self.kinds = tuple(kinds)
        self.hang_time = float(hang_time)
        self._script: Optional[List[Optional[str]]] = (
            None if faults is None else list(faults))
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.calls = 0
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    @property
    def name(self) -> str:
        return (f"fault({self.inner.name}, rate={self.fault_rate:g}, "
                f"seed={self.seed})")

    def _next_fault(self) -> Optional[str]:
        with self._lock:
            self.calls += 1
            if self._script is not None:
                fault = self._script.pop(0) if self._script else None
            elif self.fault_rate > 0 and self._rng.random() < self.fault_rate:
                fault = self._rng.choice(self.kinds)
            else:
                fault = None
            if fault is not None:
                self.injected[fault] += 1
            return fault

    def execute(self, spec_json: str, config_json: str,
                timeout: Optional[float] = None) -> Dict:
        fault = self._next_fault()
        if fault is None:
            return self.inner.execute(spec_json, config_json,
                                      timeout=timeout)
        if fault == "crash":
            raise ExecutorCrashError(
                "injected fault: executor process died (signal 9) "
                "without a verdict document")
        if fault == "nonzero_exit":
            raise ExecutorCrashError(
                "injected fault: executor subprocess exited 7 without a "
                "verdict document: (no stderr)")
        if fault == "hang":
            # A wedged child: sleep up to the budget (bounded so a
            # no-timeout test cannot hang the suite), then report the
            # kill the real executor would have performed.
            budget = self.hang_time if timeout is None \
                else min(timeout, self.hang_time)
            time.sleep(budget)
            shown = timeout if timeout is not None else budget
            raise JobTimeoutError(
                f"injected fault: job exceeded its {shown:g}s budget "
                "(executor subprocess killed)")
        if fault == "slow_start":
            time.sleep(self.hang_time)
            return self.inner.execute(spec_json, config_json,
                                      timeout=timeout)
        # Wire corruption: run the real solve, then mangle its reply the
        # way a dying child mangles stdout.
        verdict_dict = self.inner.execute(spec_json, config_json,
                                          timeout=timeout)
        wire = json.dumps(verdict_dict, allow_nan=False, sort_keys=True)
        if fault == "truncated_json":
            corrupted = wire[:max(len(wire) // 2, 1)]
        else:  # garbage_stdout
            corrupted = "Segmentation fault (core dumped)\n" + wire[:16]
        try:
            json.loads(corrupted)
        except json.JSONDecodeError:
            pass
        raise MalformedWireError(
            "injected fault: executor replied with an unparseable verdict "
            f"document: {corrupted[:80]!r}")

    def stats(self) -> Dict:
        with self._lock:
            return {
                "name": self.name,
                "calls": self.calls,
                "fault_rate": self.fault_rate,
                "seed": self.seed,
                "injected": dict(self.injected),
            }
