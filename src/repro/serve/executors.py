"""Executors: how one claimed job becomes one verdict wire dict.

Both executors speak the wire forms only (Spec JSON in, Verdict JSON
out), so the scheduler never needs to know where the solve happened:

* :class:`InProcessExecutor` -- deserializes and runs the job on the
  :class:`~repro.api.engine.VerificationEngine` inside the worker thread.
  LP solving releases the GIL, so several in-process workers genuinely
  overlap; per-job timeouts are *post-hoc* (threads cannot be killed --
  an overrunning job is failed and its late verdict discarded).
* :class:`SubprocessExecutor` -- ships the job to a fresh
  ``python -m repro verify-spec - --wire`` child over stdin/stdout: the
  exact JSON protocol a remote executor on another machine would speak,
  with real preemption (timeout kills the child) and full memory/fault
  isolation at the cost of interpreter startup per job.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import (
    ExecutorCrashError,
    JobTimeoutError,
    MalformedWireError,
    SerializationError,
    ServeError,
)
from repro.serve.resilience import raise_reported_failure

__all__ = ["InProcessExecutor", "SubprocessExecutor", "make_executor"]


class InProcessExecutor:
    """Run jobs on the engine inside the calling (worker) thread.

    ``certs`` (settable, default ``None``) is handed to the engine as its
    certificate provider -- any object with ``cert_get(key)`` /
    ``cert_put(key, cert_json)``, in practice the scheduler's own
    :class:`~repro.serve.store.JobStore`.  Only meaningful when the job
    config's ``certs`` policy is not ``"off"``.
    """

    name = "inprocess"

    def __init__(self, certs=None):
        self.certs = certs

    def execute(self, spec_json: str, config_json: str,
                timeout: Optional[float] = None) -> Dict:
        from repro.api.engine import VerificationEngine
        from repro.api.serialize import config_from_json, verdict_to_dict
        from repro.api.specs import spec_from_json

        spec = spec_from_json(spec_json)
        config = config_from_json(config_json)
        started = time.monotonic()
        verdict = VerificationEngine(config, certs=self.certs).verify(spec)
        if timeout is not None and time.monotonic() - started > timeout:
            # In-process work cannot be preempted; enforce the budget by
            # discarding the late result (never cached, job fails).
            raise JobTimeoutError(
                f"job exceeded its {timeout:g}s budget (in-process "
                "execution cannot be preempted; late verdict discarded)")
        return verdict_to_dict(verdict)


class SubprocessExecutor:
    """Run jobs in a fresh interpreter over the verify-spec wire form.

    The child is spawned in its own session (= its own process group), so
    a timed-out job is reaped *with its descendants*: first SIGTERM to the
    group, then -- after ``kill_grace`` seconds -- SIGKILL.  Without the
    group kill, a wedged HiGHS solve forked below the child would survive
    as an orphan eating a core forever.

    Certificate reuse does not cross the process boundary: the ``certs``
    policy travels in the config wire form, but the child has no provider
    handle, so it solves from scratch (sound, just never warm-started).
    """

    name = "subprocess"

    def __init__(self, python: Optional[str] = None,
                 kill_grace: float = 2.0):
        self.python = python or sys.executable
        if kill_grace < 0:
            raise ServeError(f"kill_grace must be >= 0, got {kill_grace}")
        self.kill_grace = float(kill_grace)

    def _child_env(self) -> Dict[str, str]:
        # The child must import the same repro tree as this process,
        # wherever the server was launched from.
        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = os.environ.copy()
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (src_dir + os.pathsep + existing
                                 if existing else src_dir)
        return env

    def execute(self, spec_json: str, config_json: str,
                timeout: Optional[float] = None) -> Dict:
        bundle = json.dumps({"spec": json.loads(spec_json),
                             "config": json.loads(config_json)},
                            allow_nan=False)
        proc = subprocess.Popen(
            [self.python, "-m", "repro", "verify-spec", "-", "--wire"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=self._child_env(),
            start_new_session=True)
        try:
            out, err = proc.communicate(bundle, timeout=timeout)
        except subprocess.TimeoutExpired:
            self._reap(proc)
            raise JobTimeoutError(
                f"job exceeded its {timeout:g}s budget "
                "(executor subprocess killed)") from None
        # Exit codes are the *verdict*, not health: what came back is a
        # verdict, a job's ``{"error_type", "error"}`` (re-raised as its
        # own class), or nothing -- a crash, diagnosed by the stderr.
        from repro.api.serialize import _json_loads

        try:
            verdict = _json_loads(out, "executor subprocess output")
        except SerializationError:
            diagnosis = err.strip()[-500:] or "(no stderr)"
            if not out.strip():
                # Nothing came back at all: the child crashed (uncaught
                # exception, OOM kill, signal) before writing a verdict.
                raise ExecutorCrashError(
                    f"executor subprocess exited {proc.returncode} without "
                    f"a verdict document: {diagnosis}") from None
            # Something came back but it is not a verdict document:
            # truncated/garbage stdout from a child that died mid-write.
            raise MalformedWireError(
                f"executor subprocess exited {proc.returncode} with an "
                f"unparseable verdict document "
                f"(stdout starts {out.strip()[:120]!r}): {diagnosis}"
            ) from None
        if not isinstance(verdict, dict):
            raise MalformedWireError(
                "executor subprocess replied with JSON that is not a "
                f"verdict document: {type(verdict).__name__}")
        if verdict.keys() == {"error_type", "error"}:
            raise_reported_failure(
                verdict["error_type"],
                f"{verdict['error_type']}: {verdict['error']}")
        return verdict

    def _reap(self, proc: subprocess.Popen) -> None:
        """Terminate a timed-out child and its whole process group:
        SIGTERM first (a chance to exit cleanly), SIGKILL to the group
        after ``kill_grace`` seconds, then reap the zombie."""
        def _signal_group(sig) -> None:
            if not hasattr(os, "killpg"):
                return  # no process groups on this platform
            try:
                # The child is its own session leader, so its pid is the
                # process-group id; signalling the group catches any
                # grandchildren a wedged solve may have forked.
                os.killpg(proc.pid, sig)
            except (ProcessLookupError, PermissionError, OSError):
                pass  # already gone, or a platform without process groups

        proc.terminate()
        _signal_group(signal.SIGTERM)
        try:
            proc.communicate(timeout=self.kill_grace)
        except subprocess.TimeoutExpired:
            # It ignored SIGTERM (wedged in native code): no more grace.
            proc.kill()
            _signal_group(signal.SIGKILL)
            proc.communicate()


ExecutorLike = Union[InProcessExecutor, SubprocessExecutor]

_EXECUTORS = {
    InProcessExecutor.name: InProcessExecutor,
    SubprocessExecutor.name: SubprocessExecutor,
}


def make_executor(executor: Union[str, ExecutorLike]) -> ExecutorLike:
    """Resolve an executor name (or pass an instance through).
    ``"remote:URL"`` builds a :class:`~repro.serve.remote.RemoteExecutor`
    shipping jobs to another machine's ``repro serve``."""
    if isinstance(executor, str):
        if executor.startswith("remote:"):
            from repro.serve.remote import RemoteExecutor

            url = executor[len("remote:"):]
            if not url:
                raise ServeError(
                    "remote executor needs a URL: remote:http://host:port")
            return RemoteExecutor(url)
        if executor not in _EXECUTORS:
            raise ServeError(
                f"unknown executor {executor!r}; "
                f"known: {sorted(_EXECUTORS)} or remote:URL")
        return _EXECUTORS[executor]()
    if not hasattr(executor, "execute"):
        raise ServeError(
            f"not an executor: {type(executor).__name__} "
            "(needs an .execute(spec_json, config_json, timeout) method)")
    return executor
