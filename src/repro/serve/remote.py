"""Distributed serving: remote executors, consistent-hash shard routing,
and a health-checked worker registry.

The pieces extend the PR 6 resilience machinery across machine
boundaries; nothing here can change a verdict's *value* (the remote
worker runs the same engine on the same canonical wire strings), only
where and whether a job gets to produce one:

* :class:`RemoteExecutor` -- the same ``execute(spec_json, config_json,
  timeout)`` contract as :class:`~repro.serve.executors
  .SubprocessExecutor`, but the "child" is another machine running its
  own ``repro serve`` instance, spoken to over the existing HTTP wire
  protocol (``docs/wire_protocol.md``).  Transport failures surface as
  :class:`~repro.errors.RemoteUnreachableError` /
  :class:`~repro.errors.RemoteProtocolError` -- both *transient*, so the
  scheduler's retry/backoff/breaker cycle applies unchanged.
* :class:`HashRing` -- plain consistent hashing with virtual nodes:
  adding or removing one shard moves only ~1/N of the key space, so a
  fleet change never reshuffles every shard's verdict cache.
* :class:`WorkerRegistry` -- liveness bookkeeping per worker: heartbeats
  (worker-initiated ``POST /workers``) and health probes
  (coordinator-initiated ``GET /healthz``) both refresh a TTL; a worker
  whose TTL lapses -- or whose connection is refused mid-job -- is
  marked dead and its hash range flows to the next live shard.
* :class:`ShardRouter` -- the coordinator-side executor: routes each job
  by consistent hashing over the canonical ``(spec, config)`` wire
  strings (identical specs land on the same shard and hit its verdict
  cache), guarded by one :class:`~repro.serve.resilience.CircuitBreaker`
  per shard.  One call tries exactly one shard: a dead shard's failure
  propagates as a transient error, the scheduler requeues the job
  through the store's crash-recovery path (attempt accounting,
  ``not_before`` parking), and by the next claim the ring has rerouted.

Assembled by ``repro serve --coordinator --workers URL,URL,...`` (workers
join and heartbeat with ``repro serve --worker --coordinator-url URL``);
topology and failure semantics are documented in ``docs/distributed.md``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.errors import (
    JobTimeoutError,
    QueueFullError,
    RemoteProtocolError,
    RemoteUnreachableError,
    ServeError,
)
from repro.serve.client import ServeClient
from repro.serve.resilience import (
    CircuitBreaker,
    ExecutorUnavailableError,
    classify_failure,
    raise_reported_failure,
)

__all__ = [
    "HashRing",
    "WorkerRegistry",
    "RemoteExecutor",
    "ShardRouter",
    "routing_key",
    "REROUTE_POLICIES",
]

#: What happens to a hash range whose owner is dead: ``"reroute"`` sends
#: it to the next live shard on the ring (throughput survives, that
#: shard's verdict cache takes the misses); ``"strict"`` parks the jobs
#: until the owning shard returns (maximal cache locality, degraded
#: throughput during the outage).
REROUTE_POLICIES = ("reroute", "strict")


def routing_key(spec_json: str, config_json: str) -> str:
    """The consistent-hash key of one job: SHA-256 over the canonical
    wire strings the scheduler already produces (sorted-keys JSON), so
    identical ``(spec, config)`` pairs always route to the same shard
    and hit its verdict cache."""
    digest = hashlib.sha256()
    digest.update(spec_json.encode("utf-8"))
    digest.update(b"\x1f")
    digest.update(config_json.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------- hash ring


class HashRing:
    """Consistent hashing with virtual nodes (thread-safe).

    Each node is hashed onto the ring at ``replicas`` points; a key is
    owned by the first node point clockwise from the key's hash.
    :meth:`order` returns *all* nodes in preference order (owner first,
    then successors), so callers can express both reroute policies
    without the ring knowing about liveness.
    """

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._lock = threading.Lock()
        self._points: List[int] = []   # guarded-by: self._lock (sorted)
        self._owners: List[str] = []   # guarded-by: self._lock
        self._nodes: set = set()       # guarded-by: self._lock

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")

    def add(self, node: str) -> None:
        with self._lock:
            if node in self._nodes:
                return
            self._nodes.add(node)
            for replica in range(self.replicas):
                point = self._hash(f"{node}#{replica}")
                index = bisect.bisect(self._points, point)
                self._points.insert(index, point)
                self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        with self._lock:
            if node not in self._nodes:
                return
            self._nodes.discard(node)
            keep = [(p, o) for p, o in zip(self._points, self._owners)
                    if o != node]
            self._points = [p for p, _ in keep]
            self._owners = [o for _, o in keep]

    def nodes(self) -> List[str]:
        with self._lock:
            return sorted(self._nodes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def owner(self, key: str) -> Optional[str]:
        """The node owning ``key`` (``None`` on an empty ring)."""
        order = self.order(key)
        return order[0] if order else None

    def order(self, key: str) -> List[str]:
        """Every node in preference order for ``key``: the owner first,
        then each successor as it is met walking clockwise."""
        with self._lock:
            if not self._points:
                return []
            start = bisect.bisect(self._points, self._hash(key)) \
                % len(self._points)
            seen: List[str] = []
            for offset in range(len(self._points)):
                node = self._owners[(start + offset) % len(self._points)]
                if node not in seen:
                    seen.append(node)
                    if len(seen) == len(self._nodes):
                        break
            return seen


# ------------------------------------------------------------ worker registry


class WorkerRegistry:
    """Liveness bookkeeping for a fleet of workers (thread-safe).

    A worker is *live* while its TTL holds: ``last_seen`` (refreshed by a
    heartbeat, a successful health probe, or a successfully executed job)
    is less than ``worker_ttl`` seconds old.  Two paths mark it dead
    sooner than the TTL lapse: an explicit :meth:`mark_unreachable` (a
    connection refused/reset mid-job -- no reason to keep routing there
    for the rest of the TTL) or a failed probe after the TTL expired.
    A dead worker is never forgotten: the next heartbeat or successful
    probe revives it and the ring hands its range back.
    """

    def __init__(self, worker_ttl: float = 5.0, clock=time.monotonic):
        if worker_ttl <= 0:
            raise ServeError(f"worker_ttl must be positive, got {worker_ttl}")
        self.worker_ttl = float(worker_ttl)
        self._clock = clock
        self._lock = threading.Lock()
        self._workers: Dict[str, Dict] = {}  # guarded-by: self._lock

    @staticmethod
    def normalize(url: str) -> str:
        url = url if "//" in url else "http://" + url
        return url.rstrip("/")

    def add(self, url: str) -> str:
        """Register a worker (idempotent; re-adding is a heartbeat).
        Returns the normalized URL used as the shard id."""
        url = self.normalize(url)
        now = self._clock()
        with self._lock:
            state = self._workers.get(url)
            if state is None:
                self._workers[url] = {
                    "url": url, "registered_at": now, "last_seen": now,
                    "alive": True, "last_error": None,
                    "heartbeats": 0, "probe_failures": 0,
                    "jobs_ok": 0, "jobs_failed": 0, "deaths": 0,
                }
            else:
                state["last_seen"] = now
                state["alive"] = True
                state["heartbeats"] += 1
        return url

    def heartbeat(self, url: str) -> str:
        return self.add(url)

    def note_probe(self, url: str, ok: bool,
                   error: Optional[str] = None) -> None:
        """Record one coordinator-initiated health probe."""
        with self._lock:
            state = self._workers.get(self.normalize(url))
            if state is None:
                return
            now = self._clock()
            if ok:
                state["last_seen"] = now
                state["probe_failures"] = 0
                if not state["alive"]:
                    state["alive"] = True
                    state["last_error"] = None
            else:
                state["probe_failures"] += 1
                state["last_error"] = error
                if state["alive"] and \
                        now - state["last_seen"] >= self.worker_ttl:
                    state["alive"] = False
                    state["deaths"] += 1

    def note_success(self, url: str) -> None:
        """A job executed successfully: proof of life, TTL refreshed."""
        with self._lock:
            state = self._workers.get(self.normalize(url))
            if state is None:
                return
            state["last_seen"] = self._clock()
            state["alive"] = True
            state["jobs_ok"] += 1

    def note_failure(self, url: str) -> None:
        with self._lock:
            state = self._workers.get(self.normalize(url))
            if state is not None:
                state["jobs_failed"] += 1

    def mark_unreachable(self, url: str, error: str) -> None:
        """The transport to this worker just failed outright: mark it
        dead *now* so the ring reroutes immediately instead of burning
        the rest of the TTL on a machine that refuses connections."""
        with self._lock:
            state = self._workers.get(self.normalize(url))
            if state is None:
                return
            if state["alive"]:
                state["alive"] = False
                state["deaths"] += 1
            state["last_error"] = error

    def is_alive(self, url: str) -> bool:
        with self._lock:
            state = self._workers.get(self.normalize(url))
            if state is None or not state["alive"]:
                return False
            return self._clock() - state["last_seen"] < self.worker_ttl

    def urls(self) -> List[str]:
        with self._lock:
            return sorted(self._workers)

    def alive_urls(self) -> List[str]:
        return [url for url in self.urls() if self.is_alive(url)]

    def states(self) -> List[Dict]:
        """Public per-worker records (the ``GET /workers`` payload)."""
        now = self._clock()
        with self._lock:
            snapshot = [dict(state) for state in self._workers.values()]
        for state in snapshot:
            age = now - state["last_seen"]
            state["last_seen_age"] = age
            state["alive"] = bool(state["alive"]
                                  and age < self.worker_ttl)
            # Monotonic timestamps are meaningless off this machine.
            del state["last_seen"], state["registered_at"]
        return sorted(snapshot, key=lambda s: s["url"])


# ------------------------------------------------------------ remote executor


class RemoteExecutor:
    """Run jobs on another machine's ``repro serve`` over HTTP.

    Speaks the exact public wire protocol -- ``POST /jobs`` then poll
    ``GET /jobs/{id}`` -- so a "remote executor" needs nothing beyond a
    reachable ``repro serve`` instance.  Failure mapping:

    * transport failures (refused/reset/timeout, torn responses) raise
      :class:`RemoteUnreachableError` / :class:`RemoteProtocolError`
      with the shard's URL in the message -- transient;
    * a remote job that *failed* re-raises the remote's recorded
      ``error_type`` as the matching local class (taxonomy classes and
      builtins both resolve), so a permanently-bad spec stays permanent
      on the coordinator and is never retried across the fleet;
    * the worker shedding load (HTTP 503) counts as unreachable: the
      shard exists but cannot take the job now, which is exactly what
      backoff-and-retry is for.
    """

    def __init__(self, url: str, request_timeout: float = 10.0,
                 poll: float = 0.02, max_poll: float = 0.5,
                 wait_slack: float = 30.0):
        self.url = WorkerRegistry.normalize(url)
        self.client = ServeClient(self.url, timeout=request_timeout)
        self.poll = float(poll)
        self.max_poll = float(max_poll)
        #: Extra wall-clock allowed beyond the job's own timeout for
        #: remote queueing/scheduling before the coordinator gives up.
        self.wait_slack = float(wait_slack)

    @property
    def name(self) -> str:
        return f"remote({self.url})"

    def execute(self, spec_json: str, config_json: str,
                timeout: Optional[float] = None) -> Dict:
        document_spec = json.loads(spec_json)
        document_config = json.loads(config_json)
        try:
            record = self.client.submit(document_spec,
                                        config=document_config,
                                        timeout=timeout)
        except QueueFullError as exc:
            # The shard is alive but shedding load; to the coordinator
            # that is indistinguishable from "try again later".
            raise RemoteUnreachableError(
                f"shard {self.url} is shedding load: {exc}") from exc
        except (RemoteUnreachableError, RemoteProtocolError) as exc:
            raise type(exc)(f"shard {self.url}: {exc}") from exc
        job_id = record.get("job_id")
        if not isinstance(job_id, str):
            raise RemoteProtocolError(
                f"shard {self.url} acknowledged a submit without a "
                f"job_id: keys {sorted(record)[:8]}")
        wait_budget = (None if timeout is None
                       else timeout + self.wait_slack)
        try:
            final = self.client.wait(job_id, timeout=wait_budget,
                                     poll=self.poll, max_poll=self.max_poll)
        except ExecutorUnavailableError as exc:
            # The *client* ran out of transport retries mid-poll: to the
            # scheduler this must be a plain transient failure with
            # attempt accounting, NOT the park-without-charging path
            # ExecutorUnavailableError triggers -- the job may well have
            # run on the (now dead) shard.
            raise RemoteUnreachableError(
                f"shard {self.url} went away while job {job_id} was in "
                f"flight: {exc}") from exc
        except (RemoteUnreachableError, RemoteProtocolError) as exc:
            raise type(exc)(f"shard {self.url}: {exc}") from exc
        except TimeoutError:
            try:  # best effort: stop the overrun remote job too
                self.client.cancel(job_id)
            except (ServeError, OSError, ValueError):
                # The cancel is advisory: the shard may be unreachable
                # (that is *why* we timed out) or the job already gone.
                # The JobTimeoutError below carries the real failure.
                pass
            raise JobTimeoutError(
                f"job exceeded its {timeout:g}s budget on shard "
                f"{self.url} (remote job {job_id} cancelled "
                "best-effort)") from None
        state = final.get("state")
        if state == "done":
            verdict = final.get("verdict")
            if not isinstance(verdict, dict):
                raise RemoteProtocolError(
                    f"shard {self.url} marked job {job_id} done without "
                    "a verdict document")
            return verdict
        if state == "failed":
            # The shard's classification travels as the class name: a bad
            # spec stays permanent, a crashed remote executor stays
            # transient and retries (likely elsewhere).
            error_type = final.get("error_type") or "ExecutorCrashError"
            raise_reported_failure(
                error_type, f"shard {self.url} failed job {job_id}: "
                f"{error_type}: {final.get('error')}")
        raise RemoteProtocolError(
            f"shard {self.url} reports job {job_id} in unexpected "
            f"terminal state {state!r}")


# --------------------------------------------------------------- shard router


class ShardRouter:
    """The coordinator-side executor: consistent-hash routing over a
    health-checked fleet of :class:`RemoteExecutor` shards.

    Same ``execute(spec_json, config_json, timeout)`` contract as every
    other executor, marked ``supervised`` so the scheduler does not wrap
    it again -- supervision lives *per shard* here: one
    :class:`CircuitBreaker` each, liveness via the
    :class:`WorkerRegistry`, and an optional background health-check
    thread probing every worker's ``/healthz`` each
    ``heartbeat_interval`` seconds.

    One call tries exactly one shard -- the first candidate on the ring
    that is live and whose breaker admits the job (under the
    ``"strict"`` policy, only the owner itself).  A transport failure
    marks the shard dead, charges its breaker, and *propagates*: the
    scheduler then records the attempt and requeues through the store's
    existing crash-recovery path, and the next claim routes around the
    corpse.  Failing over silently inside one call would hide exactly
    the attempt accounting the chaos tests (and operators) rely on.
    """

    supervised = True  # carries its own breakers; never wrap again

    def __init__(self, worker_urls: Sequence[str] = (),
                 serve_config=None, clock=time.monotonic,
                 executor_factory=RemoteExecutor,
                 start_health_checker: bool = True):
        from repro.api.config import ServeConfig

        config = serve_config or ServeConfig()
        if config.reroute_policy not in REROUTE_POLICIES:
            raise ServeError(
                f"unknown reroute policy {config.reroute_policy!r}; "
                f"known: {REROUTE_POLICIES}")
        self.serve_config = config
        self.reroute_policy = config.reroute_policy
        self.registry = WorkerRegistry(worker_ttl=config.worker_ttl,
                                       clock=clock)
        self.ring = HashRing(replicas=config.ring_replicas)
        self.heartbeat_interval = config.heartbeat_interval
        self._executor_factory = executor_factory
        self._lock = threading.Lock()
        self._remotes: Dict[str, RemoteExecutor] = {}  # guarded-by: self._lock
        self._breakers: Dict[str, CircuitBreaker] = {}  # guarded-by: self._lock
        self._clock = clock
        self._local = threading.local()
        self.routed_jobs = 0    # guarded-by: self._lock
        self.rerouted_jobs = 0  # guarded-by: self._lock
        for url in worker_urls:
            self.add_worker(url)
        self._stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        if start_health_checker:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="repro-shard-health",
                daemon=True)
            self._health_thread.start()

    @property
    def name(self) -> str:
        return f"sharded({len(self.ring)} workers)"

    # ------------------------------------------------------------ membership
    def add_worker(self, url: str) -> Dict:
        """Register a worker (idempotent -- doubles as its heartbeat);
        returns the worker's registry record."""
        url = self.registry.add(url)
        with self._lock:
            if url not in self._remotes:
                self._remotes[url] = self._executor_factory(url)
                self._breakers[url] = CircuitBreaker(
                    self.serve_config.breaker_threshold,
                    self.serve_config.breaker_reset, clock=self._clock)
                self.ring.add(url)
        for state in self.registry.states():
            if state["url"] == url:
                return state
        raise ServeError(f"worker {url!r} vanished during registration")

    # ------------------------------------------------------- health checking
    def _health_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            for url in self.registry.urls():
                if self._stop.is_set():
                    return
                self._probe(url)

    def _probe(self, url: str) -> None:
        with self._lock:
            remote = self._remotes.get(url)
        if remote is None:
            return
        try:
            health = remote.client.health()
            self.registry.note_probe(url, ok=bool(health.get("ok")))
        except Exception as exc:  # noqa: BLE001 - any failure = not ok
            self.registry.note_probe(url, ok=False,
                                     error=f"{type(exc).__name__}: {exc}")

    def check_now(self) -> None:
        """Probe every worker once, synchronously (tests, CLI startup)."""
        for url in self.registry.urls():
            self._probe(url)

    def close(self) -> None:
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
            self._health_thread = None

    # -------------------------------------------------------------- executor
    def last_shard(self) -> Optional[str]:
        """The shard the calling thread's most recent job ran on (for
        the scheduler's per-attempt shard accounting)."""
        return getattr(self._local, "shard", None)

    def available(self) -> bool:
        """Does any live shard currently admit a job?  Polled by the
        scheduler before claiming, so a fully-dead fleet parks the queue
        instead of burning attempt budgets."""
        with self._lock:
            breakers = dict(self._breakers)
        return any(self.registry.is_alive(url) and breaker.available()
                   for url, breaker in breakers.items())

    def execute(self, spec_json: str, config_json: str,
                timeout: Optional[float] = None) -> Dict:
        key = routing_key(spec_json, config_json)
        order = self.ring.order(key)
        candidates = order if self.reroute_policy == "reroute" \
            else order[:1]
        self._local.shard = None
        for index, url in enumerate(candidates):
            if not self.registry.is_alive(url):
                continue
            with self._lock:
                breaker = self._breakers[url]
            if not breaker.allow():
                continue
            self._local.shard = url
            with self._lock:
                self.routed_jobs += 1
                if index > 0:
                    self.rerouted_jobs += 1
                # Snapshot the executor while still under the lock: a
                # concurrent remove/replace of the shard must not race
                # the dict read (the solve itself runs unlocked).
                remote = self._remotes[url]
            try:
                result = remote.execute(
                    spec_json, config_json, timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - classified below
                _, transient = classify_failure(exc)
                breaker.record_failure(transient=transient)
                self.registry.note_failure(url)
                if isinstance(exc, RemoteUnreachableError):
                    # Fast reroute: do not keep routing to a machine
                    # that refuses connections until its TTL lapses.
                    self.registry.mark_unreachable(url, str(exc))
                raise
            breaker.record_success()
            self.registry.note_success(url)
            return result
        with self._lock:
            breaker_states = {url: self._breakers[url].state
                              for url in order if url in self._breakers}
        detail = ", ".join(
            f"{url}={'live' if self.registry.is_alive(url) else 'dead'}/"
            f"{breaker_states.get(url, 'unregistered')}"
            for url in order) or "no workers registered"
        raise ExecutorUnavailableError(
            f"no live shard admits the job "
            f"(policy {self.reroute_policy!r}): {detail}")

    # ----------------------------------------------------------------- stats
    def stats(self) -> Dict:
        with self._lock:
            breakers = dict(self._breakers)
            routed, rerouted = self.routed_jobs, self.rerouted_jobs
        per_worker = {state["url"]: state for state in self.registry.states()}
        chain = []
        for url in sorted(breakers):
            state = per_worker.get(url, {})
            chain.append({
                "name": url,
                "alive": state.get("alive", False),
                "last_seen_age": state.get("last_seen_age"),
                "successes": state.get("jobs_ok", 0),
                "failures": state.get("jobs_failed", 0),
                "deaths": state.get("deaths", 0),
                "heartbeats": state.get("heartbeats", 0),
                "breaker": breakers[url].stats(),
            })
        return {
            "name": self.name,
            "available": self.available(),
            "routed_jobs": routed,
            "rerouted_jobs": rerouted,
            "ring": {
                "replicas": self.ring.replicas,
                "workers": len(self.ring),
                "alive_workers": len(self.registry.alive_urls()),
                "reroute_policy": self.reroute_policy,
                "heartbeat_interval": self.heartbeat_interval,
                "worker_ttl": self.registry.worker_ttl,
            },
            "chain": chain,
        }
