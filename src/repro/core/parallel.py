"""Subproblem scheduling and the two time-accounting conventions.

The local checks of Propositions 4/5 are independent, so the paper runs
them in parallel and reports the *maximum* subproblem time (Table I,
footnote 3).  This module provides both conventions over any list of
:class:`~repro.core.propositions.SubproblemReport`:

* ``sequential_time`` -- the sum (a single-worker execution);
* ``parallel_time``   -- the max (unbounded workers);
* ``makespan(workers)`` -- LPT-scheduled makespan for a finite pool,
  interpolating between the two.

``run_parallel`` additionally executes callables on a real thread pool;
per-task wall times are measured inside the workers so the accounting stays
meaningful even when threads contend.  Calls share one lazily-created
module-level pool sized from ``os.cpu_count()`` -- spinning up fresh
threads per call costs more than many of the subproblems themselves -- with
a per-call semaphore enforcing the requested ``workers`` concurrency.
Re-entrant calls and requests wider than the machine fall back to a
private per-call pool so they are never starved or silently narrowed.
"""

from __future__ import annotations

import atexit
import heapq
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait as futures_wait
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.core.propositions import SubproblemReport

__all__ = ["sequential_time", "parallel_time", "makespan", "run_parallel",
           "available_width", "effective_workers", "reserved_width",
           "drain_shared_pool", "TIMED_OUT"]

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()
_POOL_THREAD_PREFIX = "repro-subproblem"
_POOL_SIZE = max(1, os.cpu_count() or 1)
#: Shared-pool width reserved by in-flight run_parallel calls.  Every call
#: reserves its full concurrent width up front, so the sum of reservations
#: never exceeds the pool and no admitted task can queue behind another
#: call's blocked tasks.
_RESERVED = 0  # guarded-by: _POOL_LOCK


def _shared_pool() -> ThreadPoolExecutor:
    """The module-level executor, created on first use."""
    global _POOL
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                _POOL = ThreadPoolExecutor(
                    max_workers=_POOL_SIZE,
                    thread_name_prefix=_POOL_THREAD_PREFIX)
    return _POOL


def drain_shared_pool() -> None:
    """Shut the shared pool down, *waiting* for every in-flight task.

    Long-lived services (:mod:`repro.serve`) make the module pool a
    process-lifetime resource, so this is registered with :mod:`atexit`:
    whatever work is still on the pool when the interpreter starts tearing
    down is drained deterministically *before* module globals are cleared,
    instead of racing teardown.  Safe to call any time -- the pool is
    lazily recreated by the next ``run_parallel``.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=True)


atexit.register(drain_shared_pool)


class _TimedOut:
    """Singleton sentinel: a task abandoned at a ``run_parallel`` deadline."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TIMED_OUT"


#: The value reported for tasks that missed a ``run_parallel`` deadline.
TIMED_OUT = _TimedOut()


def effective_workers(workers: int) -> int:
    """The concurrency the shared pool can grant ``workers`` without the
    private per-call fallback: 1 from inside a pool worker (nested calls
    divert anyway), else at most the machine width.  Per-round callers
    (the frontier search) clamp with this so a too-wide request does not
    spin up and tear down a private pool every round."""
    if workers <= 1:
        return 1
    if threading.current_thread().name.startswith(_POOL_THREAD_PREFIX):
        return 1
    return min(int(workers), _POOL_SIZE)


def reserved_width() -> int:
    """Shared-pool width currently reserved by in-flight ``run_parallel``
    calls.  Monitoring/regression hook: must read 0 whenever no call is in
    flight -- a nonzero idle value means a reservation leaked and the shared
    pool will be (silently) bypassed by every future full-width call."""
    with _POOL_LOCK:
        return _RESERVED


def available_width() -> int:
    """Shared-pool width a new ``run_parallel`` call could reserve *right
    now*.  A snapshot, not a promise -- another caller may take the width
    before you use it -- but per-round callers clamp with it so that, while
    someone else holds the pool, they degrade to inline execution instead
    of spinning up a private pool every round."""
    with _POOL_LOCK:
        return max(0, _POOL_SIZE - _RESERVED)


def sequential_time(subproblems: Sequence[SubproblemReport]) -> float:
    """Total single-worker time."""
    return float(sum(s.elapsed for s in subproblems))


def parallel_time(subproblems: Sequence[SubproblemReport]) -> float:
    """Unbounded-worker time: the slowest subproblem (Table I convention)."""
    if not subproblems:
        return 0.0
    return float(max(s.elapsed for s in subproblems))


def makespan(subproblems: Sequence[SubproblemReport], workers: int) -> float:
    """Longest-processing-time-first makespan on ``workers`` machines."""
    if workers <= 0:
        raise ReproError(f"workers must be positive, got {workers}")
    if not subproblems:
        return 0.0
    loads = [0.0] * min(workers, len(subproblems))
    heapq.heapify(loads)
    for t in sorted((s.elapsed for s in subproblems), reverse=True):
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + t)
    return float(max(loads))


def _gather(tasks: Sequence[Tuple[str, Callable[[], object]]],
            futures: List, deadline: Optional[float]
            ) -> List[Tuple[str, object, float]]:
    """Collect ``(name, value, elapsed)`` in submission order; past the
    deadline, unfinished (or never-submitted) tasks report ``TIMED_OUT``."""
    results = []
    for (name, _), future in zip(tasks, futures):
        if deadline is None:
            value, elapsed = future.result()
        else:
            try:
                value, elapsed = future.result(
                    timeout=max(0.0, deadline - time.monotonic()))
            except FuturesTimeoutError:
                # On 3.11+ concurrent.futures.TimeoutError *is* builtins
                # TimeoutError, so this clause also catches a task that
                # raised TimeoutError itself.  A finished future means
                # the exception came from the task: re-read its real
                # outcome (re-raising the task's error); only a genuinely
                # unfinished future is a deadline expiry.
                if future.done():
                    value, elapsed = future.result()
                else:
                    value, elapsed = TIMED_OUT, 0.0
        results.append((name, value, elapsed))
    for name, _ in tasks[len(futures):]:
        results.append((name, TIMED_OUT, 0.0))
    return results


def run_parallel(tasks: Sequence[Tuple[str, Callable[[], object]]],
                 workers: int = 4,
                 timeout: Optional[float] = None
                 ) -> List[Tuple[str, object, float]]:
    """Execute named thunks on a thread pool, timing each inside its worker.

    Returns ``[(name, result, elapsed), ...]`` in submission order.
    HiGHS releases the GIL inside a solve, so tasks made of large LPs
    overlap; tasks made of many sub-millisecond node LPs (the vehicle
    head's) measured about serial speed on two threads.

    ``timeout`` is a deadline (seconds) over the whole call: tasks that
    have not *finished* when it expires are reported with the
    :data:`TIMED_OUT` sentinel as their value (``elapsed`` 0.0) and the
    call returns promptly.  Threads cannot be killed, so in-flight work is
    abandoned, not aborted -- it completes in the background, and a
    shared-pool reservation is only returned once its threads are actually
    free (a background joiner handles that), so the width accounting stays
    exact.  Without a timeout the historical barrier semantics hold: the
    call returns only when every task is done.
    """
    global _RESERVED
    if workers <= 0:
        raise ReproError(f"workers must be positive, got {workers}")
    deadline = None if timeout is None else time.monotonic() + timeout

    def timed(thunk: Callable[[], object]) -> Tuple[object, float]:
        t0 = time.perf_counter()
        value = thunk()
        return value, time.perf_counter() - t0

    # This call occupies at most min(workers, len(tasks)) pool threads at
    # once (submission is gated below).  Reserve that width atomically with
    # the admission decision; a call the shared pool cannot host in full --
    # re-entrant from a pool task, wider than the machine, or arriving while
    # other calls hold the remaining width -- gets the old per-call pool, so
    # its tasks can never queue behind (and deadlock on) blocked strangers
    # or ancestors.  Private pools carry the same thread-name prefix so
    # arbitrarily deep nesting keeps diverting here.
    width = min(workers, len(tasks))
    nested = threading.current_thread().name.startswith(_POOL_THREAD_PREFIX)
    admitted = False
    if not nested and workers <= _POOL_SIZE:
        with _POOL_LOCK:
            if _RESERVED + width <= _POOL_SIZE:
                _RESERVED += width
                admitted = True
    if not admitted:
        pool = ThreadPoolExecutor(max_workers=workers,
                                  thread_name_prefix=_POOL_THREAD_PREFIX)
        futures = []
        try:
            for _, thunk in tasks:
                if deadline is not None and time.monotonic() >= deadline:
                    break  # the tail is reported TIMED_OUT, never submitted
                futures.append(pool.submit(timed, thunk))
            return _gather(tasks, futures, deadline)
        finally:
            # Submission included, so an interrupt mid-loop still hits the
            # historical `with` barrier.  Without a deadline that barrier
            # is unconditional; at a deadline, queued-but-unstarted tasks
            # are *cancelled* (they were just reported TIMED_OUT -- letting
            # them run anyway would burn CPU and block interpreter exit)
            # while already-running stragglers finish in the background
            # instead of blocking the caller.
            pool.shutdown(wait=deadline is None
                          or all(f.done() for f in futures),
                          cancel_futures=deadline is not None)

    # From here the reservation is held: *everything* below -- semaphore and
    # pool construction included -- runs under the finally that returns it,
    # so no exception path (worker raise, interrupt during submission, pool
    # failure) can leak width and starve future callers off the shared pool.
    futures = []
    try:
        # The semaphore gates *submission* (released by the worker on
        # completion), so queued tasks never occupy pool threads and the
        # reservation bound holds.
        gate = threading.BoundedSemaphore(workers)

        def gated(thunk: Callable[[], object]) -> Tuple[object, float]:
            try:
                return timed(thunk)
            finally:
                gate.release()

        pool = _shared_pool()
        for _, thunk in tasks:
            if deadline is None:
                gate.acquire()
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not gate.acquire(timeout=remaining):
                    break  # deadline hit mid-submission: the tail times out
            try:
                futures.append(pool.submit(gated, thunk))
            except BaseException:
                gate.release()  # submit failed: the slot was never taken
                raise
        return _gather(tasks, futures, deadline)
    finally:
        # Return the reservation only once this call's threads are actually
        # free (the per-call pool's shutdown barrier, reproduced on *every*
        # exit path including interrupts).  After a deadline with work
        # still in flight, a background joiner holds the width until the
        # abandoned tasks drain, so the accounting stays exact while the
        # caller returns promptly.
        if deadline is None or all(f.done() for f in futures):
            futures_wait(futures)
            with _POOL_LOCK:
                _RESERVED -= width
        else:
            # Submitted-but-unstarted futures were just reported
            # TIMED_OUT: cancel them (no-op for running ones) so they
            # cannot start late, burn CPU, and hold the reservation.
            for future in futures:
                future.cancel()

            def _return_width(pending=futures, held=width):
                global _RESERVED
                futures_wait(pending)
                with _POOL_LOCK:
                    _RESERVED -= held

            threading.Thread(target=_return_width,
                             name="repro-pool-joiner", daemon=True).start()
