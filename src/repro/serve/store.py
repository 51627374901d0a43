"""The persistent job store: SQLite-backed queue + verdict cache.

One row per job, carrying the full wire form of the request (Spec JSON +
VerifyConfig JSON, exactly what ``repro verify-spec`` consumes) and the
job's life cycle through the state machine::

    queued -> running -> done
                      -> failed
    queued ----------> cancelled      (running jobs cancel best-effort)

Everything is committed at each transition, so a crash at any point loses
no accepted job: jobs found ``running`` when the store is reopened were
in flight inside a dead process and are *requeued exactly once per crash*
(``recovered_jobs`` reports how many).  A claim bumps ``attempts``; jobs
repeatedly killed mid-run are failed at ``max_attempts`` instead of
crash-looping forever.

Resilience (PR 6) extends the row with scheduling state the retry
machinery needs: ``not_before`` (a backoff-requeued job is invisible to
``claim_next`` until then), ``deadline`` (absolute unix time after which
the answer is useless; expired jobs are failed at claim time instead of
started), and ``error_type`` (the taxonomy class of the terminal
failure).  Every *finished execution attempt* -- success or classified
failure -- is persisted in the ``attempts`` table, so the full failure
history of a job survives restarts and ships over the wire as its
``attempt_log``.

The verdict cache is a second table keyed by the canonical-JSON
fingerprint of ``(spec, config)`` (:func:`job_fingerprint`): resubmitting
an identical request is answered from the cache without touching a
solver.  Only ``done`` verdicts are ever cached -- failures, timeouts and
cancellations never poison it.

The certificate store (PR 9) is a third table keyed by the
*weight-tolerant* certificate key of :func:`repro.certs.certificate_key`
(structural network fingerprint + spec + config): a proved threshold
solve records its covering frontier here, and a later re-verification of
a perturbed network warm-starts from it.  Unlike the verdict cache,
entries are ``INSERT OR REPLACE`` -- the latest proved version's frontier
is the best warm start for the next one -- and a hit is *advisory*, not
an answer: the engine re-validates every certificate in float64 before
use, so stale entries cost time, never correctness.

The store is thread-safe (one connection, one lock) and deliberately
speaks *strings* (the wire forms), not Spec/Verdict objects, so the
scheduler can hand jobs to out-of-process executors without the store
ever importing solver code.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ServeError

__all__ = [
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "job_fingerprint",
    "AttemptRecord",
    "JobRecord",
    "JobStore",
]

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id       TEXT UNIQUE NOT NULL,
    fingerprint  TEXT NOT NULL,
    spec_json    TEXT NOT NULL,
    config_json  TEXT NOT NULL,
    state        TEXT NOT NULL,
    priority     INTEGER NOT NULL DEFAULT 0,
    timeout      REAL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    verdict_json TEXT,
    error        TEXT,
    cache_hit    INTEGER NOT NULL DEFAULT 0,
    not_before   REAL,
    deadline     REAL,
    error_type   TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_state
    ON jobs (state, priority DESC, seq ASC);
CREATE TABLE IF NOT EXISTS verdict_cache (
    fingerprint  TEXT PRIMARY KEY,
    verdict_json TEXT NOT NULL,
    created_at   REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS attempts (
    job_id       TEXT NOT NULL,
    attempt      INTEGER NOT NULL,
    started_at   REAL,
    finished_at  REAL NOT NULL,
    outcome      TEXT NOT NULL,
    transient    INTEGER NOT NULL DEFAULT 0,
    error        TEXT,
    shard        TEXT,
    PRIMARY KEY (job_id, attempt)
);
CREATE TABLE IF NOT EXISTS certificates (
    cert_key      TEXT PRIMARY KEY,
    cert_json     TEXT NOT NULL,
    structural_fp TEXT,
    created_at    REAL NOT NULL,
    updated_at    REAL NOT NULL,
    hits          INTEGER NOT NULL DEFAULT 0
);
"""

#: Columns added after PR 5; a pre-resilience ``--db`` is upgraded in
#: place on open (``CREATE IF NOT EXISTS`` ignores new columns on an
#: existing table, so each is ALTERed in individually).
_JOBS_MIGRATIONS = {
    "not_before": "ALTER TABLE jobs ADD COLUMN not_before REAL",
    "deadline": "ALTER TABLE jobs ADD COLUMN deadline REAL",
    "error_type": "ALTER TABLE jobs ADD COLUMN error_type TEXT",
}

#: Same in-place upgrade for the attempts table (``shard`` arrived with
#: the distributed-serving PR: which worker ran the attempt).
_ATTEMPTS_MIGRATIONS = {
    "shard": "ALTER TABLE attempts ADD COLUMN shard TEXT",
}

#: In-place upgrades for the certificates table.  The table itself is
#: created by ``_SCHEMA`` on databases that predate it (CREATE IF NOT
#: EXISTS); this dict exists so future columns follow the same
#: ALTER-in-individually pattern as jobs/attempts, and so crash recovery
#: on an old ``--db`` can never drop recorded certificates.
_CERTIFICATES_MIGRATIONS: Dict[str, str] = {}


#: Salt mixed into every job fingerprint.  The verdict cache can outlive
#: the code that filled it (a persistent ``--db`` across upgrades), so a
#: solver change that can alter any verdict value MUST bump this -- old
#: cache entries then simply miss and re-solve under the new code.
#: Version 2: a threshold verdict's certificate leaves travel as one
#: packed int8 phase matrix (certificate wire v5), so cached verdicts
#: holding per-leaf triples miss instead of failing to decode.
FINGERPRINT_VERSION = 2


def job_fingerprint(spec, config) -> str:
    """The canonical identity of one verification request.

    SHA-256 over the sorted-keys JSON of ``{"v": FINGERPRINT_VERSION,
    "config": ..., "spec": ...}`` -- exactly the value equality Specs
    already define (canonical JSON), extended with *every* solver knob.
    Matching fingerprints guarantee identical verdict values (within one
    ``FINGERPRINT_VERSION``); the converse is deliberately not promised:
    the hash is conservatively over-precise.  ``workers``, for one,
    provably cannot change a verdict -- it only sets how many of a
    search round's node LPs are in flight -- yet it is hashed like every
    other knob: no knob is exempted, because a spurious cache miss merely
    re-solves, while a spurious hit would be unsound.
    """
    from repro.api.specs import Spec, spec_from_dict, spec_to_dict

    if not isinstance(spec, Spec):
        # Normalise a raw wire dict through the Spec layer so cosmetic
        # differences (ints for floats, list shapes) cannot produce a
        # second fingerprint for the same request value.
        spec = spec_from_dict(spec)
    canonical = json.dumps(
        {"v": FINGERPRINT_VERSION, "config": config.to_dict(),
         "spec": spec_to_dict(spec)},
        sort_keys=True, allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class JobRecord:
    """One job row, as plain values (wire strings, not solver objects)."""

    job_id: str
    fingerprint: str
    spec_json: str
    config_json: str
    state: str
    priority: int
    timeout: Optional[float]
    attempts: int
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    verdict_json: Optional[str]
    error: Optional[str]
    cache_hit: bool
    not_before: Optional[float] = None
    deadline: Optional[float] = None
    error_type: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_public_dict(self, include_verdict: bool = True) -> Dict:
        """The HTTP/CLI JSON shape of this job (documented in
        ``docs/wire_protocol.md``)."""
        data: Dict = {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "priority": self.priority,
            "timeout": self.timeout,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "error_type": self.error_type,
            "not_before": self.not_before,
            "deadline": self.deadline,
        }
        if include_verdict:
            from repro.api.serialize import _json_loads

            data["verdict"] = (None if self.verdict_json is None
                               else _json_loads(self.verdict_json,
                                                "stored verdict"))
        return data


@dataclass
class AttemptRecord:
    """One finished execution attempt of one job (success or classified
    failure), as persisted in the ``attempts`` table."""

    job_id: str
    attempt: int
    started_at: Optional[float]
    finished_at: float
    outcome: str  # "ok" or the taxonomy error-type name
    transient: bool
    error: Optional[str]
    shard: Optional[str] = None  # which worker ran it (coordinator mode)

    def to_public_dict(self) -> Dict:
        return {
            "attempt": self.attempt,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "outcome": self.outcome,
            "transient": self.transient,
            "error": self.error,
            "shard": self.shard,
        }


_ROW_COLUMNS = ("job_id, fingerprint, spec_json, config_json, state, "
                "priority, timeout, attempts, submitted_at, started_at, "
                "finished_at, verdict_json, error, cache_hit, not_before, "
                "deadline, error_type")


def _record(row) -> JobRecord:
    return JobRecord(
        job_id=row[0], fingerprint=row[1], spec_json=row[2],
        config_json=row[3], state=row[4], priority=int(row[5]),
        timeout=row[6], attempts=int(row[7]), submitted_at=row[8],
        started_at=row[9], finished_at=row[10], verdict_json=row[11],
        error=row[12], cache_hit=bool(row[13]), not_before=row[14],
        deadline=row[15], error_type=row[16],
    )


class JobStore:
    """SQLite-backed persistent job queue + verdict cache (thread-safe)."""

    def __init__(self, path: str = ":memory:", max_attempts: int = 3):
        if max_attempts < 1:
            raise ServeError(f"max_attempts must be >= 1, got {max_attempts}")
        self.path = path
        self.max_attempts = max_attempts
        self._lock = threading.RLock()
        #: Notified (holding ``_lock``) at every move into a terminal
        #: state, so :meth:`wait_terminal` wakes as soon as a job ends.
        self._terminal = threading.Condition(self._lock)
        # guarded-by: self._lock
        self._conn = sqlite3.connect(path, check_same_thread=False)
        with self._lock:
            self._conn.executescript(_SCHEMA)
            for table, migrations in (
                    ("jobs", _JOBS_MIGRATIONS),
                    ("attempts", _ATTEMPTS_MIGRATIONS),
                    ("certificates", _CERTIFICATES_MIGRATIONS)):
                existing = {row[1] for row in self._conn.execute(
                    f"PRAGMA table_info({table})")}
                for column, statement in migrations.items():
                    if column not in existing:
                        self._conn.execute(statement)
            self._conn.commit()
        #: Jobs found mid-``running`` on open (a previous process died
        #: with them in flight) and requeued -- exactly once per crash.
        self.recovered_jobs = self._recover()

    # ------------------------------------------------------------- lifecycle
    def _recover(self) -> int:
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, started_at = NULL, "
                "not_before = NULL WHERE state = ?",
                (JOB_QUEUED, JOB_RUNNING))
            self._conn.commit()
            return cursor.rowcount

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------- submission
    def submit(self, spec_json: str, config_json: str, fingerprint: str,
               priority: int = 0, timeout: Optional[float] = None,
               verdict_json: Optional[str] = None,
               cache_hit: bool = False,
               deadline: Optional[float] = None) -> JobRecord:
        """Accept one job.  With ``verdict_json`` the job is recorded
        already-``done`` (the scheduler's cache-hit path: the answer is
        known before any executor runs).  ``deadline`` is *absolute* unix
        time; an expired job is failed at claim time, never started."""
        now = time.time()
        state = JOB_DONE if verdict_json is not None else JOB_QUEUED
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO jobs (job_id, fingerprint, spec_json, "
                "config_json, state, priority, timeout, submitted_at, "
                "finished_at, verdict_json, cache_hit, deadline) "
                "VALUES ('', ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (fingerprint, spec_json, config_json, state, int(priority),
                 timeout, now,
                 now if verdict_json is not None else None,
                 verdict_json, int(cache_hit), deadline))
            seq = cursor.lastrowid
            job_id = f"job-{seq:08d}"
            self._conn.execute(
                "UPDATE jobs SET job_id = ? WHERE seq = ?", (job_id, seq))
            self._conn.commit()
            if verdict_json is not None:
                self._terminal.notify_all()
        return self.get(job_id)

    # ------------------------------------------------------------- queries
    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_ROW_COLUMNS} FROM jobs WHERE job_id = ?",
                (job_id,)).fetchone()
        if row is None:
            raise ServeError(f"unknown job {job_id!r}")
        return _record(row)

    def list_jobs(self, state: Optional[str] = None,
                  limit: Optional[int] = None) -> List[JobRecord]:
        if state is not None and state not in JOB_STATES:
            raise ServeError(
                f"unknown job state {state!r}; known: {JOB_STATES}")
        query = f"SELECT {_ROW_COLUMNS} FROM jobs"
        params: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            params = (state,)
        query += " ORDER BY seq ASC"
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [_record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """``{state: number of jobs}`` over every known state."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state").fetchall()
        counts = {state: 0 for state in JOB_STATES}
        counts.update({state: int(n) for state, n in rows})
        return counts

    def queue_depth(self) -> int:
        """Number of ``queued`` jobs (the backpressure signal; jobs parked
        for backoff still occupy queue space)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = ?",
                (JOB_QUEUED,)).fetchone()
        return int(row[0])

    # ----------------------------------------------------------- scheduling
    def claim_next(self) -> Optional[JobRecord]:
        """Atomically pop the next runnable job: highest priority first,
        FIFO within a priority.  Backoff-parked jobs (``not_before`` in
        the future) are invisible; jobs whose ``deadline`` already passed
        are failed here instead of handed out (work must never start
        after its answer became useless); jobs already claimed
        ``max_attempts`` times (crash-looped) are failed instead of
        handed out again."""
        while True:
            now = time.time()
            with self._lock:
                # Expire deadline-passed queued jobs first, regardless of
                # backoff parking: a parked job's deadline can lapse too.
                expired = self._conn.execute(
                    "UPDATE jobs SET state = ?, finished_at = ?, "
                    "error = ?, error_type = ? "
                    "WHERE state = ? AND deadline IS NOT NULL "
                    "AND deadline <= ?",
                    (JOB_FAILED, now,
                     "deadline exceeded before execution",
                     "JobDeadlineError", JOB_QUEUED, now))
                if expired.rowcount:
                    self._conn.commit()
                    self._terminal.notify_all()
                row = self._conn.execute(
                    f"SELECT {_ROW_COLUMNS} FROM jobs WHERE state = ? "
                    "AND (not_before IS NULL OR not_before <= ?) "
                    "ORDER BY priority DESC, seq ASC LIMIT 1",
                    (JOB_QUEUED, now)).fetchone()
                if row is None:
                    return None
                record = _record(row)
                if record.attempts >= self.max_attempts:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, finished_at = ?, "
                        "error = ?, error_type = ? WHERE job_id = ?",
                        (JOB_FAILED, time.time(),
                         f"gave up after {record.attempts} crashed attempts",
                         "ExecutorCrashError", record.job_id))
                    self._conn.commit()
                    self._terminal.notify_all()
                    continue
                self._conn.execute(
                    "UPDATE jobs SET state = ?, started_at = ?, "
                    "not_before = NULL, attempts = attempts + 1 "
                    "WHERE job_id = ?",
                    (JOB_RUNNING, time.time(), record.job_id))
                self._conn.commit()
            return self.get(record.job_id)

    def next_eligible_at(self) -> Optional[float]:
        """The earliest ``not_before`` among parked queued jobs (``None``
        when nothing is parked): lets the scheduler sleep precisely."""
        with self._lock:
            row = self._conn.execute(
                "SELECT MIN(not_before) FROM jobs "
                "WHERE state = ? AND not_before IS NOT NULL",
                (JOB_QUEUED,)).fetchone()
        return None if row is None or row[0] is None else float(row[0])

    def requeue(self, job_id: str, not_before: Optional[float] = None,
                uncount: bool = False) -> None:
        """Move a ``running`` job back to ``queued`` -- the retry path.
        ``not_before`` parks it until that absolute time (backoff);
        ``uncount`` refunds the claim's attempt bump (used when no
        executor ever ran the job, e.g. every breaker was open)."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, started_at = NULL, "
                "not_before = ?, attempts = MAX(attempts - ?, 0) "
                "WHERE job_id = ? AND state = ?",
                (JOB_QUEUED, not_before, int(bool(uncount)),
                 job_id, JOB_RUNNING))
            self._conn.commit()
        if cursor.rowcount != 1:
            raise ServeError(
                f"job {job_id!r} is not {JOB_RUNNING!r} (cannot requeue)")

    # ------------------------------------------------------------- attempts
    def record_attempt(self, job_id: str, attempt: int, outcome: str,
                       error: Optional[str] = None, transient: bool = False,
                       started_at: Optional[float] = None,
                       shard: Optional[str] = None) -> None:
        """Persist one finished execution attempt (``outcome`` is ``"ok"``
        or the taxonomy error-type name; ``shard`` the worker URL that ran
        it, when routed by a coordinator).  ``INSERT OR REPLACE``: a crash
        between the executor returning and this write loses at worst one
        log row, never a job."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO attempts (job_id, attempt, "
                "started_at, finished_at, outcome, transient, error, shard) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (job_id, int(attempt), started_at, time.time(), outcome,
                 int(bool(transient)), error, shard))
            self._conn.commit()

    def attempt_log(self, job_id: str) -> List[AttemptRecord]:
        """Every recorded attempt of one job, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, attempt, started_at, finished_at, outcome, "
                "transient, error, shard FROM attempts WHERE job_id = ? "
                "ORDER BY attempt ASC", (job_id,)).fetchall()
        return [AttemptRecord(job_id=row[0], attempt=int(row[1]),
                              started_at=row[2], finished_at=row[3],
                              outcome=row[4], transient=bool(row[5]),
                              error=row[6], shard=row[7])
                for row in rows]

    def _transition(self, job_id: str, from_state: str, to_state: str,
                    verdict_json: Optional[str] = None,
                    error: Optional[str] = None,
                    cache_hit: bool = False,
                    error_type: Optional[str] = None) -> None:
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, "
                "verdict_json = ?, error = ?, error_type = ?, "
                "cache_hit = MAX(cache_hit, ?) "
                "WHERE job_id = ? AND state = ?",
                (to_state, time.time(), verdict_json, error, error_type,
                 int(cache_hit), job_id, from_state))
            self._conn.commit()
            if cursor.rowcount == 1 and to_state in TERMINAL_STATES:
                self._terminal.notify_all()
        if cursor.rowcount != 1:
            raise ServeError(
                f"job {job_id!r} is not {from_state!r} "
                f"(cannot move to {to_state!r})")

    def finish(self, job_id: str, verdict_json: str,
               cache_hit: bool = False) -> None:
        """Record a done verdict; ``cache_hit`` marks a job answered from
        the verdict cache at claim time (submit-time hits are recorded
        already-done by :meth:`submit`)."""
        self._transition(job_id, JOB_RUNNING, JOB_DONE,
                         verdict_json=verdict_json, cache_hit=cache_hit)

    def fail(self, job_id: str, error: str,
             error_type: Optional[str] = None) -> None:
        self._transition(job_id, JOB_RUNNING, JOB_FAILED, error=error,
                         error_type=error_type)

    def mark_cancelled(self, job_id: str) -> None:
        """A *running* job whose result was discarded post-cancellation."""
        self._transition(job_id, JOB_RUNNING, JOB_CANCELLED,
                         error="cancelled while running; result discarded")

    def cancel_queued(self, job_id: str) -> str:
        """Cancel a job if it is still queued; returns the job's state
        afterwards (``running``/terminal states are left untouched -- the
        scheduler handles best-effort cancellation of running jobs)."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ? "
                "WHERE job_id = ? AND state = ?",
                (JOB_CANCELLED, time.time(), "cancelled while queued",
                 job_id, JOB_QUEUED))
            self._conn.commit()
            if cursor.rowcount == 1:
                self._terminal.notify_all()
                return JOB_CANCELLED
        return self.get(job_id).state

    def wait_terminal(self, job_id: str,
                      timeout: Optional[float] = None) -> JobRecord:
        """The job's record once it is terminal, or its latest record when
        ``timeout`` seconds pass first.  Every terminal transition of this
        store notifies the waiters while holding the lock the job is
        re-read under, so no completion is missed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._terminal:
            while True:
                record = self.get(job_id)
                if record.terminal:
                    return record
                remaining = None if deadline is None else \
                    deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return record
                self._terminal.wait(remaining)

    # -------------------------------------------------------- verdict cache
    def cache_get(self, fingerprint: str) -> Optional[str]:
        """The cached verdict JSON for a fingerprint (bumping the hit
        counter), or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT verdict_json FROM verdict_cache WHERE fingerprint = ?",
                (fingerprint,)).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE verdict_cache SET hits = hits + 1 "
                "WHERE fingerprint = ?", (fingerprint,))
            self._conn.commit()
        return row[0]

    def cache_put(self, fingerprint: str, verdict_json: str) -> None:
        """Record a *successful* verdict (first writer wins; identical
        fingerprints produce identical verdict values by construction)."""
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO verdict_cache "
                "(fingerprint, verdict_json, created_at) VALUES (?, ?, ?)",
                (fingerprint, verdict_json, time.time()))
            self._conn.commit()

    def cache_stats(self) -> Dict[str, int]:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(hits), 0) "
                "FROM verdict_cache").fetchone()
        return {"entries": int(row[0]), "hits": int(row[1])}

    # --------------------------------------------------- certificate store
    def cert_get(self, cert_key: str) -> Optional[str]:
        """The stored certificate wire string for a key (bumping the hit
        counter), or ``None``.  The payload is *advisory*: callers must
        re-validate it against the network at hand before any reuse."""
        with self._lock:
            row = self._conn.execute(
                "SELECT cert_json FROM certificates WHERE cert_key = ?",
                (cert_key,)).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE certificates SET hits = hits + 1 "
                "WHERE cert_key = ?", (cert_key,))
            self._conn.commit()
        return row[0]

    def cert_put(self, cert_key: str, cert_json: str,
                 structural_fp: Optional[str] = None) -> None:
        """Record a proved solve's certificate.  ``INSERT OR REPLACE``
        (unlike the verdict cache's first-writer-wins): the latest proved
        network version's frontier is the warm-start baseline for the
        next one."""
        now = time.time()
        with self._lock:
            row = self._conn.execute(
                "SELECT created_at FROM certificates WHERE cert_key = ?",
                (cert_key,)).fetchone()
            created_at = row[0] if row is not None else now
            self._conn.execute(
                "INSERT OR REPLACE INTO certificates (cert_key, cert_json, "
                "structural_fp, created_at, updated_at, hits) "
                "VALUES (?, ?, ?, ?, ?, "
                "COALESCE((SELECT hits FROM certificates "
                "WHERE cert_key = ?), 0))",
                (cert_key, cert_json, structural_fp, created_at, now,
                 cert_key))
            self._conn.commit()

    def cert_stats(self) -> Dict[str, int]:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(hits), 0) "
                "FROM certificates").fetchone()
        return {"entries": int(row[0]), "hits": int(row[1])}
