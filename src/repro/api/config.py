"""One configuration object for every verification entry point.

Before :mod:`repro.api`, each of the ~12 free functions hand-threaded its
own ``tol=`` / ``node_limit=`` / ``workers=`` keyword defaults, and adding
one engine knob meant touching a dozen signatures (PR 3 did exactly that
for ``workers=``).  :class:`VerifyConfig` is now the *single source* of
those defaults:

* the module-level ``DEFAULT_*`` constants below are the only place a
  default value is written down;
* a knob's keyword default anywhere else references these constants
  (the ``no-restated-defaults`` lint rule enforces it);
* the engine and all internal orchestration pass one frozen
  :class:`VerifyConfig` instead of loose kwargs.

This module is deliberately a leaf (stdlib + :mod:`repro.errors` only) so
the low-level solver modules can import the defaults without a cycle.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

from repro.errors import ReproError

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_NODE_LIMIT",
    "DEFAULT_FULL_NODE_LIMIT",
    "DEFAULT_MAX_BOXES",
    "DEFAULT_WORKERS",
    "DEFAULT_METHOD",
    "DEFAULT_DOMAIN",
    "DEFAULT_ENCODING_CACHE",
    "DEFAULT_CERT_POLICY",
    "METHODS",
    "DOMAINS",
    "ENCODING_CACHE_POLICIES",
    "CERT_POLICIES",
    "ServeConfig",
    "VerifyConfig",
]

#: Optimality / threshold tolerance of the exact branch-and-bound legs.
DEFAULT_TOL = 1e-6
#: Node budget for *local* exact checks (containment, propositions).
DEFAULT_NODE_LIMIT = 2000
#: Node budget for *global* solves (from-scratch verification, threshold
#: certificates, the continuous loop's full-re-verification fallback).
DEFAULT_FULL_NODE_LIMIT = 20000
#: Box budget of the split-refinement containment method.
DEFAULT_MAX_BOXES = 2000
#: Worker-pool width: how many of a branch-and-bound round's node LPs are
#: in flight at once (verdicts do not depend on the pool width).
DEFAULT_WORKERS = 1
#: Containment method (one of :data:`METHODS`).
DEFAULT_METHOD = "exact"
#: Abstract domain used for layerwise rebuilds (prop2, incremental fixing).
DEFAULT_DOMAIN = "symbolic"
#: Encoding-cache policy: ``"shared"`` draws from the process-wide
#: fingerprint-keyed cache (PR 2); ``"private"`` builds a fresh encoding
#: per solve, bypassing the cache (isolation for benchmarks/tests).
DEFAULT_ENCODING_CACHE = "shared"
#: Certificate policy: ``"off"`` ignores any certificate provider;
#: ``"record"`` stores certificates after proved threshold solves;
#: ``"reuse"`` additionally warm-starts from a stored certificate (and
#: implies recording).  Reused bounds are always re-validated in float64
#: before acceptance, so the policy can change cost but never a verdict.
DEFAULT_CERT_POLICY = "off"

#: Containment methods (``repro.exact.verify._check_containment``): a
#: one-shot symbolic-interval bound that may lose, abstraction with split
#: refinement, and complete branch and bound behind a symbolic screen.
METHODS = ("symbolic", "split", "exact")
#: Abstract domains for layerwise rebuilds.  Mirrors
#: repro.domains.propagate.PROPAGATORS (kept static so this module stays a
#: leaf; the registry test cross-checks the two).
DOMAINS = ("box", "symbolic", "zonotope", "deeppoly")
ENCODING_CACHE_POLICIES = ("shared", "private")
CERT_POLICIES = ("off", "record", "reuse")

_COUNT_FIELDS = ("node_limit", "full_node_limit", "max_boxes", "workers")


@dataclass(frozen=True)
class VerifyConfig:
    """Every knob of the verification engine, with the canonical defaults.

    Frozen so one instance can be shared across threads, the engine, and
    the fingerprint-keyed caches without defensive copying; derive variants
    with :meth:`replace`.
    """

    tol: float = DEFAULT_TOL
    node_limit: int = DEFAULT_NODE_LIMIT
    full_node_limit: int = DEFAULT_FULL_NODE_LIMIT
    max_boxes: int = DEFAULT_MAX_BOXES
    workers: int = DEFAULT_WORKERS
    method: str = DEFAULT_METHOD
    domain: str = DEFAULT_DOMAIN
    encoding_cache: str = DEFAULT_ENCODING_CACHE
    #: Certificate policy (``CERT_POLICIES``): whether proved threshold
    #: solves record reusable certificates and whether verification may
    #: warm-start from one.  Excluded from the certificate *key* so a
    #: record-mode solve's artifact is found by a reuse-mode lookup.
    certs: str = DEFAULT_CERT_POLICY

    def __post_init__(self):
        # Counts must be true integers: a float such as 1e400 (which JSON
        # decodes to inf) would otherwise pass the range checks and crash
        # the solver far from the bad input.
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            try:
                count = operator.index(value)
            except TypeError:
                count = None
            if count is None or isinstance(value, bool):
                raise ReproError(f"{name} must be an integer, got {value!r}")
            # NumPy integers become plain ints, so to_dict stays JSON-safe.
            object.__setattr__(self, name, count)
        if isinstance(self.tol, bool) or \
                not isinstance(self.tol, numbers.Real) or \
                not math.isfinite(self.tol):
            raise ReproError(f"tol must be a finite real, got {self.tol!r}")
        if not (self.tol > 0):
            raise ReproError(f"tol must be positive, got {self.tol}")
        if self.node_limit < 1:
            raise ReproError(f"node_limit must be >= 1, got {self.node_limit}")
        if self.full_node_limit < 1:
            raise ReproError(
                f"full_node_limit must be >= 1, got {self.full_node_limit}")
        if self.max_boxes < 1:
            raise ReproError(f"max_boxes must be >= 1, got {self.max_boxes}")
        if self.workers < 1:
            raise ReproError(f"workers must be positive, got {self.workers}")
        if self.method not in METHODS:
            raise ReproError(
                f"unknown method {self.method!r}; choose from {METHODS}")
        if self.domain not in DOMAINS:
            raise ReproError(
                f"unknown domain {self.domain!r}; choose from {DOMAINS}")
        if self.encoding_cache not in ENCODING_CACHE_POLICIES:
            raise ReproError(
                f"unknown encoding-cache policy {self.encoding_cache!r}; "
                f"choose from {ENCODING_CACHE_POLICIES}")
        if self.certs not in CERT_POLICIES:
            raise ReproError(
                f"unknown certificate policy {self.certs!r}; "
                f"choose from {CERT_POLICIES}")

    # ------------------------------------------------------------- derivation
    def replace(self, **overrides) -> "VerifyConfig":
        """A copy with ``overrides`` applied (validation re-runs)."""
        return replace(self, **overrides)

    def with_overrides(self, **maybe) -> "VerifyConfig":
        """Like :meth:`replace` but ``None`` values mean "keep mine" --
        the adapter between optional keyword knobs and the config."""
        overrides = {k: v for k, v in maybe.items() if v is not None}
        return self.replace(**overrides) if overrides else self

    @property
    def effective_full_node_limit(self) -> int:
        """Budget for global solves: never below the local budget."""
        return max(self.node_limit, self.full_node_limit)

    # ---------------------------------------------------------- solver bridge
    def bab_kwargs(self) -> Dict:
        """Keyword arguments for :class:`repro.exact.bab.BaBSolver`."""
        return {
            "tol": self.tol,
            "node_limit": self.node_limit,
            "workers": self.workers,
        }

    def encoding_for(self, network, input_box):
        """An encoding honouring :attr:`encoding_cache` (``None`` lets the
        solver draw from the shared cache itself)."""
        if self.encoding_cache == "shared":
            return None
        from repro.exact.encoding import NetworkEncoding

        return NetworkEncoding(network, input_box)

    # ------------------------------------------------------------------- JSON
    def to_dict(self) -> Dict:
        """JSON-safe mapping (inverse of :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict) -> "VerifyConfig":
        """Decode the mapping by the wire codec's config table (unknown
        keys and wrongly typed values are a
        :class:`~repro.errors.SerializationError`)."""
        from repro.api.serialize import CONFIG

        config: VerifyConfig = CONFIG.decode(data)
        return config


@dataclass(frozen=True)
class ServeConfig:
    """Every resilience knob of the serving layer, with canonical defaults.

    The serving twin of :class:`VerifyConfig`: one frozen object carrying
    retry, circuit-breaker, backpressure, and child-process policy, shared
    by :class:`~repro.serve.scheduler.VerificationService`, the CLI, and
    the chaos harness.  Solver behaviour lives in :class:`VerifyConfig`
    only; nothing here can change a verdict's *value* -- just whether and
    when a job gets to produce one.
    """

    #: Total execution budget per job (1 = never retry).  Only *transient*
    #: failures (crash, hang, malformed wire reply) are retried; permanent
    #: job failures terminate on the first attempt.
    retry_attempts: int = 3
    #: Backoff before attempt ``n+1``: ``base * multiplier**(n-1)``,
    #: capped at ``retry_max_delay``, shrunk by deterministic jitter.
    retry_base_delay: float = 0.05
    retry_max_delay: float = 5.0
    retry_multiplier: float = 2.0
    #: Jitter fraction in [0, 1]; deterministic per ``(job_id, attempt)``.
    retry_jitter: float = 0.5
    #: Circuit breaker: open after this many *consecutive* transient
    #: failures on one executor ...
    breaker_threshold: int = 5
    #: ... and stay open this many seconds before a half-open probe.
    breaker_reset: float = 5.0
    #: Queue-depth limit for backpressure (``None`` = unbounded).  Beyond
    #: it, submissions are rejected with
    #: :class:`~repro.errors.QueueFullError` / HTTP 503 + ``Retry-After``.
    queue_limit: Optional[int] = None
    #: Seconds clients are told to wait after a backpressure rejection.
    retry_after: float = 1.0
    #: Grace period between SIGTERM and SIGKILL when reaping a timed-out
    #: executor subprocess (and its process group).
    kill_grace: float = 2.0
    #: Distributed serving (coordinator mode): seconds between the
    #: coordinator's ``/healthz`` probes of each worker; also the cadence
    #: at which ``repro serve --worker`` heartbeats its coordinator.
    heartbeat_interval: float = 1.0
    #: Liveness TTL: a worker not seen (heartbeat, probe, or completed
    #: job) for this many seconds is marked dead and its hash range is
    #: rerouted.  Must exceed ``heartbeat_interval`` or every worker
    #: would flap dead between probes.
    worker_ttl: float = 5.0
    #: Virtual nodes per worker on the consistent-hash ring.  More
    #: replicas smooth the key distribution and shrink the slice moved
    #: per membership change toward the ideal 1/N.
    ring_replicas: int = 64
    #: What happens to a dead shard's hash range: ``"reroute"`` sends it
    #: to the next live shard on the ring; ``"strict"`` parks those jobs
    #: until the owner returns (maximal verdict-cache locality).
    reroute_policy: str = "reroute"

    def __post_init__(self):
        if self.retry_attempts < 1:
            raise ReproError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}")
        if self.retry_base_delay < 0 or \
                self.retry_max_delay < self.retry_base_delay:
            raise ReproError(
                "need 0 <= retry_base_delay <= retry_max_delay, got "
                f"{self.retry_base_delay}/{self.retry_max_delay}")
        if self.retry_multiplier < 1:
            raise ReproError(
                f"retry_multiplier must be >= 1, got {self.retry_multiplier}")
        if not (0 <= self.retry_jitter <= 1):
            raise ReproError(
                f"retry_jitter must be in [0, 1], got {self.retry_jitter}")
        if self.breaker_threshold < 1:
            raise ReproError(
                f"breaker_threshold must be >= 1, "
                f"got {self.breaker_threshold}")
        if self.breaker_reset < 0:
            raise ReproError(
                f"breaker_reset must be >= 0, got {self.breaker_reset}")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ReproError(
                f"queue_limit must be >= 1 or None, got {self.queue_limit}")
        if self.retry_after <= 0:
            raise ReproError(
                f"retry_after must be positive, got {self.retry_after}")
        if self.kill_grace < 0:
            raise ReproError(
                f"kill_grace must be >= 0, got {self.kill_grace}")
        if self.heartbeat_interval <= 0:
            raise ReproError(
                f"heartbeat_interval must be positive, "
                f"got {self.heartbeat_interval}")
        if self.worker_ttl <= self.heartbeat_interval:
            raise ReproError(
                f"worker_ttl ({self.worker_ttl}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}), or "
                "every worker flaps dead between probes")
        if self.ring_replicas < 1:
            raise ReproError(
                f"ring_replicas must be >= 1, got {self.ring_replicas}")
        if self.reroute_policy not in ("reroute", "strict"):
            raise ReproError(
                f"reroute_policy must be 'reroute' or 'strict', "
                f"got {self.reroute_policy!r}")

    def replace(self, **overrides) -> "ServeConfig":
        """A copy with ``overrides`` applied (validation re-runs)."""
        return replace(self, **overrides)

    def with_overrides(self, **maybe) -> "ServeConfig":
        """Like :meth:`replace` but ``None`` values mean "keep mine"."""
        overrides = {k: v for k, v in maybe.items() if v is not None}
        return self.replace(**overrides) if overrides else self

    def retry_policy(self):
        """The :class:`~repro.serve.resilience.RetryPolicy` these knobs
        describe."""
        from repro.serve.resilience import RetryPolicy

        return RetryPolicy(
            max_attempts=self.retry_attempts,
            base_delay=self.retry_base_delay,
            max_delay=self.retry_max_delay,
            multiplier=self.retry_multiplier,
            jitter=self.retry_jitter,
        )

    def to_dict(self) -> Dict:
        """JSON-safe mapping (inverse of :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict) -> "ServeConfig":
        """Build from a mapping, rejecting unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown ServeConfig keys {sorted(unknown)}; "
                f"known: {sorted(known)}")
        return cls(**data)

