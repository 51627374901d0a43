"""Stdlib HTTP front end for the verification service.

A thin JSON/REST skin over :class:`~repro.serve.scheduler
.VerificationService` on ``http.server.ThreadingHTTPServer`` (one thread
per connection; the actual solving happens on the service's own worker
pool, so slow solves never block the listener):

====== =================== ==============================================
Method Path                Meaning
====== =================== ==============================================
POST   ``/jobs``           submit ``{"spec": ..., "config"?, "priority"?,
                           "timeout"?, "deadline"?}``; 201 + the job
                           record; 503 + ``Retry-After`` when the queue
                           is full
GET    ``/jobs/{id}``      one job record (verdict included when done,
                           ``attempt_log`` always)
GET    ``/jobs``           all records (``?state=queued`` filters;
                           verdicts elided for brevity)
DELETE ``/jobs/{id}``      cancel; 200 + resulting state
GET    ``/healthz``        liveness + queue counts + breaker states +
                           certificate-store counters (+ per-shard
                           liveness in coordinator mode)
GET    ``/stats``          full scheduler/store/cache/certificate/
                           resilience stats
POST   ``/workers``        register/heartbeat a worker shard
                           (coordinator mode; body ``{"url": ...}``)
GET    ``/workers``        the shard registry (coordinator mode)
====== =================== ==============================================

Error responses carry a structured JSON payload: ``{"error": <message>,
"error_type": <taxonomy class name>}`` (plus ``retry_after`` seconds on
503).  The exact request/response schemas are specified in
``docs/wire_protocol.md``.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    QueueFullError,
    ReproError,
    SerializationError,
    ServeError,
)

__all__ = ["ServeAPIServer", "serve_http"]

class ServeAPIServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`VerificationService`.

    ``port=0`` binds an ephemeral port (read ``server_address`` back).
    The server only *routes*; it owns neither the service's workers nor
    its store -- callers start/close the service themselves.
    """

    daemon_threads = True

    def __init__(self, service, host: str = "127.0.0.1", port: int = 8717):
        super().__init__((host, port), _Handler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve_http(service, host: str = "127.0.0.1",
               port: int = 8717) -> ServeAPIServer:
    """Bind (but do not start) the HTTP server for ``service``."""
    return ServeAPIServer(service, host=host, port=port)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: Seconds one socket read or write may block.  A client that declares
    #: more body than it sends, or goes quiet mid-request, loses its
    #: connection instead of holding a handler thread for as long as it
    #: keeps the socket open.
    timeout = 30.0

    # ------------------------------------------------------------ plumbing
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # route logging to the caller's logger, not stderr

    @property
    def service(self):
        return self.server.service

    def _send_json(self, status: int, payload: Dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str,
               error_type: Optional[str] = None,
               extra: Optional[Dict] = None,
               headers: Optional[Dict[str, str]] = None) -> None:
        # A rejected request may have an unread body; on a keep-alive
        # connection those bytes would be parsed as the next request
        # line, so error responses always close the connection.
        self.close_connection = True
        payload: Dict = {"error": message}
        if error_type is not None:
            payload["error_type"] = error_type
        if extra:
            payload.update(extra)
        self._send_json(status, payload, headers=headers)

    def _content_length(self) -> int:
        from repro.api import serialize

        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise ServeError(
                f"Content-Length must be a decimal byte count, got "
                f"{declared[:32]!r}")
        # Checked before any byte is read, so an oversize body never is;
        # compared as text first: int() refuses very long digit strings.
        cap = serialize.MAX_DOCUMENT_BYTES
        if len(declared.lstrip("0")) > len(str(cap)) or int(declared) > cap:
            raise ServeError(f"request body over {cap} bytes")
        return int(declared)

    def _read_body(self) -> Dict:
        from repro.api.serialize import _json_loads

        length = self._content_length()
        if length <= 0:
            raise ServeError("request body required")
        data = _json_loads(self.rfile.read(length), "request body")
        if not isinstance(data, dict):
            raise ServeError("request body must be a JSON object")
        return data

    def _route(self) -> Tuple[str, Optional[str], Dict]:
        parts = urlsplit(self.path)
        segments = [s for s in parts.path.split("/") if s]
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        if not segments:
            return "", None, query
        if len(segments) == 1:
            return segments[0], None, query
        if len(segments) == 2 and segments[0] == "jobs":
            return "jobs", segments[1], query
        return "/".join(segments), None, query

    # ------------------------------------------------------------ endpoints
    def do_GET(self) -> None:  # noqa: N802 - stdlib contract
        head, job_id, query = self._route()
        if head == "healthz":
            stats = self.service.stats()
            executor_stats = stats["resilience"]["executor"]
            payload = {
                "ok": True,
                "workers": stats["workers"],
                "executor": stats["executor"],
                "executor_available": executor_stats.get("available", True),
                "breakers": {
                    link["name"]: link["breaker"]["state"]
                    for link in executor_stats.get("chain", [])
                },
                "jobs": stats["jobs"],
                "certificates": stats["certificates"],
            }
            if "ring" in executor_stats:  # coordinator: per-shard state
                payload["ring"] = executor_stats["ring"]
                payload["shards"] = {
                    link["name"]: {
                        "alive": link.get("alive", False),
                        "breaker": link["breaker"]["state"],
                    }
                    for link in executor_stats.get("chain", [])
                }
            self._send_json(200, payload)
        elif head == "stats":
            self._send_json(200, self.service.stats())
        elif head == "workers":
            try:
                states = self.service.worker_states()
            except ServeError as exc:
                self._error(404, str(exc))  # not a coordinator
                return
            self._send_json(200, {"workers": states})
        elif head == "jobs" and job_id is not None:
            try:
                record = self.service.job(job_id)
            except ServeError as exc:
                self._error(404, str(exc))  # only "unknown job" raises here
                return
            payload = record.to_public_dict()
            payload["attempt_log"] = [
                attempt.to_public_dict()
                for attempt in self.service.attempt_log(job_id)]
            self._send_json(200, payload)
        elif head == "jobs":
            try:
                limit = query.get("limit")
                records = self.service.jobs(
                    state=query.get("state"),
                    limit=None if limit is None else int(limit))
            except (ServeError, ValueError) as exc:
                self._error(400, str(exc))  # malformed state/limit filter
                return
            self._send_json(200, {
                "jobs": [r.to_public_dict(include_verdict=False)
                         for r in records]})
        else:
            self._error(404, f"unknown path {self.path!r}")

    @staticmethod
    def _job_fields(body: Dict) -> Tuple[int, Optional[float],
                                         Optional[float]]:
        """Validate the scheduling fields (reject junk at the door: a bad
        timeout must fail the submit, not the job hours later)."""
        priority = body.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServeError(
                f"priority must be a JSON integer, got {priority!r}")
        budgets = {}
        for name in ("timeout", "deadline"):
            value = body.get(name)
            if value is not None:
                # Finiteness matters beyond taste: 1e999 parses to inf,
                # which would poison the stored record (strict JSON cannot
                # re-emit it) and mean different things to the two
                # executors.
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool) or value <= 0 \
                        or not math.isfinite(value):
                    raise ServeError(
                        f"{name} must be a positive finite JSON number, "
                        f"got {value!r}")
                value = float(value)
            budgets[name] = value
        return priority, budgets["timeout"], budgets["deadline"]

    def do_POST(self) -> None:  # noqa: N802 - stdlib contract
        head, job_id, _ = self._route()
        if head == "workers" and job_id is None:
            self._register_worker()
            return
        if head != "jobs" or job_id is not None:
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            body = self._read_body()
            if "spec" not in body:
                raise ServeError('a job document needs a "spec" key '
                                 '(see docs/wire_protocol.md)')
            unknown = set(body) - {"spec", "config", "priority", "timeout",
                                   "deadline"}
            if unknown:
                raise ServeError(f"unknown job keys {sorted(unknown)}")
            priority, timeout, deadline = self._job_fields(body)
            record = self.service.submit(
                body["spec"],
                config=body.get("config"),
                priority=priority,
                timeout=timeout,
                deadline=deadline)
        except QueueFullError as exc:
            # Backpressure, not a client mistake: 503 + Retry-After tells
            # a well-behaved client exactly when to come back.
            self._error(503, str(exc), error_type="QueueFullError",
                        extra={"retry_after": exc.retry_after},
                        headers={"Retry-After":
                                 f"{max(exc.retry_after, 0):g}"})
            return
        except ReproError as exc:
            # The wire codec turns every malformed document -- wrong
            # shapes and kinds included -- into a SerializationError.
            self._error(400, f"{type(exc).__name__}: {exc}")
            return
        self._send_json(201, record.to_public_dict())

    def _register_worker(self) -> None:
        """``POST /workers`` -- register (or heartbeat) a worker shard.
        Idempotent by design: a worker's periodic re-registration *is*
        its heartbeat, refreshing the coordinator's liveness TTL."""
        try:
            body = self._read_body()
            url = body.get("url")
            if not isinstance(url, str) or not url:
                raise ServeError(
                    'worker registration needs a "url" string '
                    '(the worker\'s own repro serve endpoint)')
            state = self.service.register_worker(url)
        except (ServeError, SerializationError) as exc:
            # Either a malformed document or "not a coordinator".
            self._error(400, str(exc))
            return
        self._send_json(200, {"worker": state})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib contract
        head, job_id, _ = self._route()
        if head != "jobs" or job_id is None:
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            state = self.service.cancel(job_id)
        except ServeError as exc:
            self._error(404, str(exc))
            return
        self._send_json(200, {"job_id": job_id, "state": state})
