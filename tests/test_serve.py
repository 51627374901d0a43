"""The asynchronous verification service: job store, scheduler, verdict
cache, crash recovery, HTTP front end, executors, and the CLI twins."""

import json
import threading
import time

import numpy as np
import pytest

from repro.api import (
    ContainmentSpec,
    MaximizeSpec,
    ThresholdSpec,
    VerificationEngine,
    VerifyConfig,
    canonical_verdict_json,
    config_to_json,
    spec_to_dict,
    spec_to_json,
    verdict_decision_json,
    verdict_from_dict,
)
from repro.cli import main as cli_main
from repro.domains import Box
from repro.errors import ServeError
from repro.serve import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobStore,
    ServeClient,
    SubprocessExecutor,
    VerificationService,
    job_fingerprint,
    serve_http,
)


@pytest.fixture
def maximize_spec(fig2, enlarged_box2):
    return MaximizeSpec(network=fig2, input_box=enlarged_box2,
                        objective=np.array([1.0]))


@pytest.fixture
def no_lipschitz_spec(fig2, enlarged_box2):
    """Deserializes fine, then fails permanently: Proposition 3 needs a
    Lipschitz artifact these artifacts do not have."""
    from repro.api import PropositionSpec
    from repro.core import ProofArtifacts, VerificationProblem

    problem = VerificationProblem(fig2, enlarged_box2,
                                  Box(np.full(1, -100.0), np.full(1, 100.0)))
    return PropositionSpec(kind=3, artifacts=ProofArtifacts(problem=problem),
                           enlarged_din=enlarged_box2.inflate(0.1))


@pytest.fixture
def bad_spec(fig2):
    """Deserializes fine but raises at solve time (dim mismatch)."""
    return ContainmentSpec(network=fig2,
                           input_box=Box(-np.ones(5), np.ones(5)),
                           target=Box(-np.ones(1), np.ones(1)))


def _wire(spec):
    return spec_to_json(spec, sort_keys=True)


_CONFIG_JSON = config_to_json(VerifyConfig())


def _queue_job(store, spec, priority=0, timeout=None, config=_CONFIG_JSON):
    return store.submit(_wire(spec), config,
                        job_fingerprint(spec, VerifyConfig()),
                        priority=priority, timeout=timeout)


class TestJobFingerprint:
    def test_same_request_same_fingerprint(self, maximize_spec):
        config = VerifyConfig()
        assert job_fingerprint(maximize_spec, config) == \
            job_fingerprint(maximize_spec, config)
        # The wire dict fingerprints identically to the Spec object.
        assert job_fingerprint(spec_to_dict(maximize_spec), config) == \
            job_fingerprint(maximize_spec, config)

    def test_config_changes_fingerprint(self, maximize_spec):
        assert job_fingerprint(maximize_spec, VerifyConfig()) != \
            job_fingerprint(maximize_spec, VerifyConfig(workers=2))

    def test_spec_changes_fingerprint(self, maximize_spec, fig2,
                                      unit_box2):
        other = MaximizeSpec(network=fig2, input_box=unit_box2,
                             objective=np.array([1.0]))
        assert job_fingerprint(maximize_spec, VerifyConfig()) != \
            job_fingerprint(other, VerifyConfig())


class TestJobStore:
    def test_submit_get_roundtrip(self, maximize_spec):
        with JobStore() as store:
            record = _queue_job(store, maximize_spec, priority=5,
                                timeout=30.0)
            assert record.state == JOB_QUEUED
            assert record.priority == 5
            assert record.timeout == 30.0
            assert record.attempts == 0
            clone = store.get(record.job_id)
            assert clone == record

    def test_unknown_job_raises(self):
        with JobStore() as store:
            with pytest.raises(ServeError, match="unknown job"):
                store.get("job-99999999")

    def test_claim_priority_then_fifo(self, maximize_spec):
        with JobStore() as store:
            low1 = _queue_job(store, maximize_spec, priority=0)
            high = _queue_job(store, maximize_spec, priority=9)
            low2 = _queue_job(store, maximize_spec, priority=0)
            order = [store.claim_next().job_id for _ in range(3)]
            assert order == [high.job_id, low1.job_id, low2.job_id]
            assert store.claim_next() is None

    def test_claim_marks_running_and_attempts(self, maximize_spec):
        with JobStore() as store:
            record = _queue_job(store, maximize_spec)
            claimed = store.claim_next()
            assert claimed.job_id == record.job_id
            assert claimed.state == JOB_RUNNING
            assert claimed.attempts == 1
            assert claimed.started_at is not None

    def test_finish_and_fail_transitions(self, maximize_spec):
        with JobStore() as store:
            a = _queue_job(store, maximize_spec)
            b = _queue_job(store, maximize_spec)
            store.claim_next()
            store.claim_next()
            store.finish(a.job_id, '{"verdict": "maximize"}')
            store.fail(b.job_id, "boom")
            assert store.get(a.job_id).state == JOB_DONE
            assert store.get(a.job_id).verdict_json == \
                '{"verdict": "maximize"}'
            failed = store.get(b.job_id)
            assert failed.state == JOB_FAILED
            assert failed.error == "boom"
            counts = store.counts()
            assert counts[JOB_DONE] == 1 and counts[JOB_FAILED] == 1

    def test_invalid_transition_raises(self, maximize_spec):
        with JobStore() as store:
            record = _queue_job(store, maximize_spec)
            with pytest.raises(ServeError, match="not 'running'"):
                store.finish(record.job_id, "{}")

    def test_cancel_queued_only(self, maximize_spec):
        with JobStore() as store:
            record = _queue_job(store, maximize_spec)
            assert store.cancel_queued(record.job_id) == JOB_CANCELLED
            # Terminal states are left untouched.
            assert store.cancel_queued(record.job_id) == JOB_CANCELLED
            running = _queue_job(store, maximize_spec)
            store.claim_next()
            assert store.cancel_queued(running.job_id) == JOB_RUNNING

    def test_list_jobs_filter_validates(self, maximize_spec):
        with JobStore() as store:
            _queue_job(store, maximize_spec)
            assert len(store.list_jobs(state=JOB_QUEUED)) == 1
            assert store.list_jobs(state=JOB_DONE) == []
            with pytest.raises(ServeError, match="unknown job state"):
                store.list_jobs(state="paused")

    def test_verdict_cache(self):
        with JobStore() as store:
            assert store.cache_get("fp") is None
            store.cache_put("fp", '{"verdict": "x"}')
            assert store.cache_get("fp") == '{"verdict": "x"}'
            store.cache_put("fp", '{"verdict": "y"}')  # first writer wins
            assert store.cache_get("fp") == '{"verdict": "x"}'
            assert store.cache_stats() == {"entries": 1, "hits": 2}

    def test_every_terminal_path_wakes_its_waiters(self, maximize_spec):
        """Cancel, claim-time expiry, finish and fail each notify the
        waiters: with more threads than cores and fast switching, none
        sleeps to its timeout (a lost wakeup would)."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobStore() as store:
                jobs = [_queue_job(store, maximize_spec) for _ in range(12)]
                jobs.append(store.submit(
                    _wire(maximize_spec), _CONFIG_JSON, "late",
                    deadline=time.time() - 1.0))
                waited = {}

                def waiter(job_id):
                    start = time.monotonic()
                    record = store.wait_terminal(job_id, timeout=20.0)
                    waited[job_id] = (record.state, time.monotonic() - start)

                threads = [threading.Thread(target=waiter, args=(job.job_id,))
                           for job in jobs]
                for thread in threads:
                    thread.start()
                time.sleep(0.05)
                for job in jobs[:3]:
                    store.cancel_queued(job.job_id)
                for n, claimed in enumerate(iter(store.claim_next, None)):
                    if n % 2:
                        store.fail(claimed.job_id, "boom")
                    else:
                        store.finish(claimed.job_id, '{"verdict": "x"}')
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert waited[jobs[-1].job_id][0] == JOB_FAILED  # expired at claim
        assert sorted(state for state, _ in waited.values()) == sorted(
            [JOB_CANCELLED] * 3 + [JOB_DONE] * 5 + [JOB_FAILED] * 5)
        assert max(elapsed for _, elapsed in waited.values()) < 10.0

    def test_crash_loop_gives_up_at_max_attempts(self, tmp_path,
                                                 maximize_spec):
        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path, max_attempts=2) as store:
            record = _queue_job(store, maximize_spec)
        for _ in range(2):  # two crashes mid-running
            with JobStore(path, max_attempts=2) as store:
                assert store.claim_next().job_id == record.job_id
        with JobStore(path, max_attempts=2) as store:
            assert store.claim_next() is None
            failed = store.get(record.job_id)
            assert failed.state == JOB_FAILED
            assert "gave up" in failed.error


class TestCrashRecovery:
    """Satellite: kill a store mid-``running``, reopen, requeue once."""

    def test_running_jobs_requeued_exactly_once(self, tmp_path,
                                                maximize_spec):
        path = str(tmp_path / "jobs.sqlite")
        store = JobStore(path)
        running = _queue_job(store, maximize_spec)
        untouched = _queue_job(store, maximize_spec)
        assert store.claim_next().job_id == running.job_id
        store.close()  # simulated crash: the running job was in flight

        reopened = JobStore(path)
        assert reopened.recovered_jobs == 1
        recovered = reopened.get(running.job_id)
        assert recovered.state == JOB_QUEUED
        assert recovered.started_at is None
        assert recovered.attempts == 1  # the crashed claim stays counted
        assert reopened.get(untouched.job_id).state == JOB_QUEUED
        reopened.close()

        # A second clean reopen finds nothing to recover: exactly once.
        again = JobStore(path)
        assert again.recovered_jobs == 0
        assert again.get(running.job_id).state == JOB_QUEUED
        again.close()

    def test_crash_leaves_verdict_cache_unpoisoned(self, tmp_path,
                                                   maximize_spec):
        path = str(tmp_path / "jobs.sqlite")
        store = JobStore(path)
        record = _queue_job(store, maximize_spec)
        store.claim_next()
        store.close()  # crash before any verdict existed

        reopened = JobStore(path)
        assert reopened.cache_stats()["entries"] == 0
        assert reopened.cache_get(record.fingerprint) is None
        reopened.close()

    def test_terminal_jobs_survive_restart(self, tmp_path, maximize_spec):
        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path) as store:
            record = _queue_job(store, maximize_spec)
            store.claim_next()
            store.finish(record.job_id, '{"verdict": "maximize"}')
            store.cache_put(record.fingerprint, '{"verdict": "maximize"}')
        with JobStore(path) as store:
            assert store.recovered_jobs == 0
            clone = store.get(record.job_id)
            assert clone.state == JOB_DONE
            assert clone.verdict_json == '{"verdict": "maximize"}'
            assert store.cache_get(record.fingerprint) is not None


class TestVerificationService:
    def test_served_verdict_matches_direct_engine(self, maximize_spec):
        direct = VerificationEngine(VerifyConfig()).verify(maximize_spec)
        with VerificationService(workers=2) as service:
            job = service.submit(maximize_spec)
            record = service.wait(job.job_id, timeout=30)
            assert record.state == JOB_DONE
            served = service.verdict(job.job_id)
        assert canonical_verdict_json(served) == \
            canonical_verdict_json(direct)
        assert served.provenance.cached is False

    def test_resubmission_hits_verdict_cache(self, maximize_spec):
        with VerificationService(workers=1) as service:
            first = service.submit(maximize_spec)
            service.wait(first.job_id, timeout=30)
            executed_before = service.stats()["executed_jobs"]
            second = service.submit(maximize_spec)
            # Answered at submission: already done, no executor involved.
            assert second.state == JOB_DONE
            assert second.cache_hit is True
            verdict = service.verdict(second.job_id)
            assert verdict.provenance.cached is True
            assert service.stats()["executed_jobs"] == executed_before
            assert canonical_verdict_json(verdict) == \
                canonical_verdict_json(service.verdict(first.job_id))

    def test_cache_respects_config_identity(self, maximize_spec):
        with VerificationService(workers=1) as service:
            first = service.submit(maximize_spec)
            service.wait(first.job_id, timeout=30)
            other = service.submit(maximize_spec,
                                   config=VerifyConfig(workers=2))
            assert other.cache_hit is False

    def test_failed_spec_reported_not_cached(self, bad_spec):
        with VerificationService(workers=1) as service:
            job = service.submit(bad_spec)
            record = service.wait(job.job_id, timeout=30)
            assert record.state == JOB_FAILED
            assert "ShapeError" in record.error
            assert service.store.cache_stats()["entries"] == 0
            with pytest.raises(ServeError, match="no verdict"):
                service.verdict(job.job_id)

    def test_wait_returns_as_soon_as_a_long_job_finishes(self,
                                                         maximize_spec):
        """The store wakes waiters at the terminal transition: no polling
        lag, even for a job that runs well past a second."""
        from repro.serve import InProcessExecutor

        class SlowExecutor(InProcessExecutor):
            def execute(self, spec_json, config_json, timeout=None):
                time.sleep(1.5)
                return super().execute(spec_json, config_json, timeout)

        with VerificationService(executor=SlowExecutor()) as service:
            record = service.wait(service.submit(maximize_spec).job_id,
                                  timeout=30)
            returned = time.time()
        assert record.state == JOB_DONE
        assert record.finished_at - record.started_at >= 1.5
        assert returned - record.finished_at < 0.1

    def test_submit_validates_inputs(self, maximize_spec):
        with VerificationService() as service:
            with pytest.raises(ServeError, match="Spec or its wire dict"):
                service.submit("not-a-spec")
            with pytest.raises(ServeError, match="VerifyConfig"):
                service.submit(maximize_spec, config="fast please")

    def test_cancel_queued_job_never_runs(self, maximize_spec):
        service = VerificationService(workers=1)  # not started
        job = service.submit(maximize_spec)
        assert service.cancel(job.job_id) == JOB_CANCELLED
        service.start()
        time.sleep(0.2)
        record = service.job(job.job_id)
        assert record.state == JOB_CANCELLED
        assert service.stats()["executed_jobs"] == 0
        service.close()

    def test_priority_orders_execution(self, fig2, enlarged_box2):
        specs = [MaximizeSpec(network=fig2, input_box=enlarged_box2,
                              objective=np.array([float(k)]))
                 for k in (1, 2, 3)]
        service = VerificationService(workers=1)  # queue first, run later
        low = service.submit(specs[0], priority=0)
        mid = service.submit(specs[1], priority=1)
        high = service.submit(specs[2], priority=2)
        service.start()
        records = [service.wait(job.job_id, timeout=30)
                   for job in (low, mid, high)]
        service.close()
        finished = {r.job_id: r.finished_at for r in records}
        assert finished[high.job_id] <= finished[mid.job_id] \
            <= finished[low.job_id]

    def test_in_process_timeout_fails_job(self, maximize_spec):
        with VerificationService(workers=1) as service:
            # The smallest positive budget: any real solve exceeds 1 ns.
            job = service.submit(maximize_spec, timeout=1e-9)
            record = service.wait(job.job_id, timeout=30)
            assert record.state == JOB_FAILED
            assert "TimeoutError" in record.error
            # Timed-out work must never poison the verdict cache.
            assert service.store.cache_stats()["entries"] == 0

    def test_non_positive_timeout_rejected_at_submit(self, maximize_spec):
        with VerificationService(workers=1) as service:
            with pytest.raises(ServeError, match="positive"):
                service.submit(maximize_spec, timeout=0.0)
            with pytest.raises(ServeError, match="positive"):
                service.submit(maximize_spec, timeout=-5.0)
            with pytest.raises(ServeError, match="finite"):
                service.submit(maximize_spec, timeout=float("inf"))

    def test_queued_duplicate_resolved_from_cache_at_claim(self,
                                                           maximize_spec):
        """Two identical jobs queued before either runs: the second must
        be answered from the cache at claim time, not re-solved."""
        service = VerificationService(workers=1)  # queue first, run later
        first = service.submit(maximize_spec)
        second = service.submit(maximize_spec)
        assert second.cache_hit is False  # no verdict existed at submit
        with service:
            a = service.wait(first.job_id, timeout=30)
            b = service.wait(second.job_id, timeout=30)
            assert a.state == JOB_DONE and b.state == JOB_DONE
            assert service.stats()["executed_jobs"] == 1  # one real solve
            assert a.cache_hit is False
            assert b.cache_hit is True  # claim-time hits are recorded too
            va, vb = (service.verdict(first.job_id),
                      service.verdict(second.job_id))
            assert vb.provenance.cached is True
            assert canonical_verdict_json(va) == canonical_verdict_json(vb)

    def test_transient_store_error_does_not_kill_workers(self,
                                                         maximize_spec):
        """A sqlite hiccup in claim_next must be absorbed (counted in
        stats), not terminate the only worker thread."""
        import sqlite3

        service = VerificationService(workers=1)
        real_claim = service.store.claim_next
        failures = {"left": 2}

        def flaky_claim():
            if failures["left"] > 0:
                failures["left"] -= 1
                raise sqlite3.OperationalError("database is locked")
            return real_claim()

        service.store.claim_next = flaky_claim
        with service:
            job = service.submit(maximize_spec)
            record = service.wait(job.job_id, timeout=30)
            assert record.state == JOB_DONE
            assert service.stats()["worker_errors"] >= 1

    def test_restart_mid_queue_loses_no_jobs(self, tmp_path, fig2,
                                             enlarged_box2):
        path = str(tmp_path / "jobs.sqlite")
        specs = [MaximizeSpec(network=fig2, input_box=enlarged_box2,
                              objective=np.array([float(k)]))
                 for k in (1, 2, 3)]
        first = VerificationService(store=path, workers=1)  # never started
        ids = [first.submit(spec).job_id for spec in specs]
        first.close()

        with VerificationService(store=path, workers=2) as second:
            for job_id in ids:
                record = second.wait(job_id, timeout=60)
                assert record.state == JOB_DONE
                assert second.verdict(job_id).result.status == "optimal"


class TestRestartMidRetry:
    """Satellite (PR 6): a store restart in the middle of a retry cycle
    must preserve the attempt budget and history, and still requeue an
    in-flight attempt exactly once."""

    def test_backoff_parked_job_survives_restart(self, tmp_path,
                                                 maximize_spec):
        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path) as store:
            record = _queue_job(store, maximize_spec)
            claimed = store.claim_next()
            assert claimed.attempts == 1
            store.record_attempt(record.job_id, 1, "ExecutorCrashError",
                                 error="boom", transient=True)
            store.requeue(record.job_id, not_before=time.time() + 30.0)

        with JobStore(path) as reopened:
            # The job was *queued* (parked), not running: nothing to
            # recover, and the backoff parking + attempt count survive.
            assert reopened.recovered_jobs == 0
            parked = reopened.get(record.job_id)
            assert parked.state == JOB_QUEUED
            assert parked.attempts == 1
            assert parked.not_before is not None
            assert reopened.claim_next() is None  # still parked
            log = reopened.attempt_log(record.job_id)
            assert [(a.attempt, a.outcome) for a in log] == \
                [(1, "ExecutorCrashError")]

    def test_crash_during_retry_attempt_requeues_once(self, tmp_path,
                                                      maximize_spec):
        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path) as store:
            record = _queue_job(store, maximize_spec)
            store.claim_next()
            store.record_attempt(record.job_id, 1, "JobTimeoutError",
                                 error="slow", transient=True)
            store.requeue(record.job_id)  # retry, immediately eligible
            claimed = store.claim_next()
            assert claimed.attempts == 2
            # crash here: the process dies mid-attempt-2

        with JobStore(path) as reopened:
            assert reopened.recovered_jobs == 1
            recovered = reopened.get(record.job_id)
            assert recovered.state == JOB_QUEUED
            assert recovered.attempts == 2  # the crashed claim stays paid
            assert recovered.not_before is None
        with JobStore(path) as again:
            assert again.recovered_jobs == 0  # exactly once per crash

    def test_uncounted_requeue_refunds_the_attempt(self, maximize_spec):
        """Breaker-open parking must not charge the job's budget."""
        with JobStore() as store:
            record = _queue_job(store, maximize_spec)
            assert store.claim_next().attempts == 1
            store.requeue(record.job_id, not_before=time.time() - 1.0,
                          uncount=True)
            assert store.get(record.job_id).attempts == 0
            assert store.claim_next().attempts == 1  # same budget as new

    def test_service_resumes_retry_cycle_after_restart(self, tmp_path,
                                                       maximize_spec):
        """End-to-end: fail transiently, kill the service before the
        retry runs, restart with a healthy executor -- the job completes
        with its full cross-restart attempt history."""
        from repro.api import ServeConfig
        from repro.serve import FaultInjectingExecutor, InProcessExecutor

        path = str(tmp_path / "jobs.sqlite")
        slow_retry = ServeConfig(retry_base_delay=5.0, retry_max_delay=5.0)
        injector = FaultInjectingExecutor(InProcessExecutor(),
                                          faults=["crash"] * 10)
        with VerificationService(store=path, executor=injector,
                                 serve_config=slow_retry,
                                 poll_interval=0.01) as first:
            job_id = first.submit(maximize_spec).job_id
            deadline = time.monotonic() + 30
            while not first.attempt_log(job_id):  # attempt 1 has failed
                assert time.monotonic() < deadline
                time.sleep(0.01)
        # The retry was parked ~5s out; the restart must not need to wait
        # for it (recovery clears nothing here -- the job is queued) but a
        # healthy service should pick it up as soon as it is eligible.
        with VerificationService(store=path, poll_interval=0.01) as second:
            parked = second.job(job_id)
            assert parked.state == JOB_QUEUED
            assert parked.attempts == 1
            # Make it immediately eligible instead of sleeping 5s.
            with second.store._lock:
                second.store._conn.execute(
                    "UPDATE jobs SET not_before = NULL WHERE job_id = ?",
                    (job_id,))
                second.store._conn.commit()
            second._wake.set()
            record = second.wait(job_id, timeout=30)
            assert record.state == JOB_DONE
            log = second.attempt_log(job_id)
            assert [a.outcome for a in log] == ["ExecutorCrashError", "ok"]


class TestHTTPAndClient:
    @pytest.fixture
    def server(self):
        service = VerificationService(workers=2).start()
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_http_submit_matches_direct_engine(self, server, maximize_spec):
        direct = VerificationEngine(VerifyConfig()).verify(maximize_spec)
        client = ServeClient(server.url)
        job = client.submit(maximize_spec)
        assert job["state"] in (JOB_QUEUED, JOB_RUNNING, JOB_DONE)
        record = client.wait(job["job_id"], timeout=30)
        assert record["state"] == JOB_DONE
        assert canonical_verdict_json(client.verdict(job["job_id"])) == \
            canonical_verdict_json(direct)

    def test_http_cache_hit_round_trip(self, server, maximize_spec):
        client = ServeClient(server.url)
        first = client.submit(maximize_spec)
        client.wait(first["job_id"], timeout=30)
        second = client.submit(maximize_spec)
        assert second["state"] == JOB_DONE
        assert second["cache_hit"] is True
        assert second["verdict"]["provenance"]["cached"] is True

    def test_http_list_health_stats(self, server, maximize_spec):
        client = ServeClient(server.url)
        job = client.submit(maximize_spec)
        client.wait(job["job_id"], timeout=30)
        listed = client.jobs()
        assert any(r["job_id"] == job["job_id"] for r in listed)
        assert "verdict" not in listed[0]  # list view elides payloads
        assert client.jobs(state=JOB_DONE)
        health = client.health()
        assert health["ok"] is True and health["workers"] == 2
        stats = client.stats()
        assert stats["executor"] == "inprocess"
        assert stats["jobs"][JOB_DONE] >= 1

    def test_http_cancel_and_errors(self, server, maximize_spec):
        client = ServeClient(server.url)
        with pytest.raises(ServeError, match="unknown job"):
            client.job("job-99999999")
        with pytest.raises(ServeError, match='"spec"'):
            client._request("POST", "/jobs", {"priority": 1})
        with pytest.raises(ServeError, match="unknown spec type"):
            client._request("POST", "/jobs", {"spec": {"type": "nope"}})
        with pytest.raises(ServeError, match="unknown path"):
            client._request("GET", "/teapot")
        job = client.submit(maximize_spec)
        result = client.cancel(job["job_id"])
        assert result["state"] in (JOB_CANCELLED, JOB_RUNNING, JOB_DONE)

    def test_http_rejects_junk_scheduling_fields(self, server,
                                                 maximize_spec):
        """Bad priority/timeout types must come back as a 400 JSON error
        at submission, not crash the handler or fail the job later."""
        client = ServeClient(server.url)
        spec_doc = spec_to_dict(maximize_spec)
        with pytest.raises(ServeError, match="priority must be"):
            client._request("POST", "/jobs",
                            {"spec": spec_doc, "priority": "high"})
        with pytest.raises(ServeError, match="timeout must be"):
            client._request("POST", "/jobs",
                            {"spec": spec_doc, "timeout": "soon"})
        with pytest.raises(ServeError, match="timeout must be"):
            client._request("POST", "/jobs",
                            {"spec": spec_doc, "timeout": True})
        with pytest.raises(ServeError, match="timeout must be"):
            client._request("POST", "/jobs",
                            {"spec": spec_doc, "timeout": -1})

    def _raw_post(self, server, body: bytes, path: str = "/jobs"):
        import http.client

        target = ServeClient(server.url)
        conn = http.client.HTTPConnection(target.host, target.port)
        try:
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_http_rejects_nonfinite_timeout_and_json_tokens(
            self, server, maximize_spec):
        # The stdlib client refuses to *emit* these, so ship raw bytes:
        # a hand-rolled peer absolutely can send them.
        spec_json = json.dumps(spec_to_dict(maximize_spec))
        # 1e999 parses to inf without tripping parse_constant: it must be
        # stopped by the finiteness validation, or the stored record
        # could never be re-encoded as strict JSON again.
        status, payload = self._raw_post(
            server, f'{{"spec": {spec_json}, "timeout": 1e999}}'.encode())
        assert status == 400
        assert "timeout must be" in payload["error"]
        for token in ("Infinity", "-Infinity", "NaN"):
            status, payload = self._raw_post(
                server, f'{{"spec": {spec_json}, "timeout": {token}}}'.encode())
            assert status == 400
            assert "non-standard JSON token" in payload["error"]
            # Inside the spec too: one reader for every wire document.
            nan_spec = spec_json.replace('"threshold": null',
                                         f'"threshold": {token}')
            assert nan_spec != spec_json
            status, payload = self._raw_post(
                server, f'{{"spec": {nan_spec}}}'.encode())
            assert status == 400
            assert "non-standard JSON token" in payload["error"]
        assert ServeClient(server.url).jobs() == []

    @pytest.mark.parametrize("body", [b"{", b'{"url": NaN}', b"[]"])
    def test_http_worker_registration_rejects_bad_body_with_400(
            self, server, body):
        status, payload = self._raw_post(server, body, path="/workers")
        assert status == 400
        assert "request body" in payload["error"]
        assert ServeClient(server.url).health()["ok"] is True

    @pytest.mark.parametrize("value", [True, False])
    def test_http_rejects_retired_prescreen_with_400(
            self, server, no_lipschitz_spec, value):
        # Props 4/5 always screen; a document that still picks is refused.
        spec = {**spec_to_dict(no_lipschitz_spec), "prescreen": value}
        status, payload = self._raw_post(
            server, json.dumps({"spec": spec}).encode())
        assert status == 400
        assert "SerializationError: unknown proposition spec keys " \
            "['prescreen']" in payload["error"]
        assert ServeClient(server.url).jobs() == []

    def test_http_refuses_oversize_body_unread(self, server, maximize_spec,
                                               monkeypatch):
        from repro.api import serialize

        body = json.dumps({"spec": spec_to_dict(maximize_spec)}).encode()
        monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", len(body) - 1)
        status, payload = self._raw_post(server, body)
        assert status == 400
        assert payload["error"] == \
            f"ServeError: request body over {len(body) - 1} bytes"
        monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", len(body))
        status, _ = self._raw_post(server, body)
        assert status == 201

    @pytest.mark.parametrize("key", ["interval_prune", "node_tighten"])
    def test_http_rejects_removed_search_switch_with_400(
            self, server, maximize_spec, key):
        body = json.dumps({"spec": spec_to_dict(maximize_spec),
                           "config": {key: False}})
        status, payload = self._raw_post(server, body.encode())
        assert status == 400
        assert "unknown VerifyConfig keys" in payload["error"]
        assert key in payload["error"]

    @pytest.mark.parametrize("method", ["auto", "bogus", ["exact"], 7])
    def test_http_rejects_bad_spec_method_with_400(
            self, server, fig2, enlarged_box2, method):
        # Rejected at submission: none of these can ever execute.
        spec = spec_to_dict(ContainmentSpec(
            network=fig2, input_box=enlarged_box2,
            target=Box(np.zeros(1), np.full(1, 6.5))))
        status, payload = self._raw_post(
            server, json.dumps({"spec": {**spec, "method": method}}).encode())
        assert status == 400
        assert "SerializationError: method must be null or one of" in \
            payload["error"]
        assert ServeClient(server.url).jobs() == []

    @pytest.mark.parametrize("arrays", [[], 5, {"weight": "x"}])
    def test_http_rejects_malformed_layer_arrays_with_400(
            self, server, maximize_spec, arrays):
        # A layer whose "arrays" is not an object of arrays used to raise
        # a bare AttributeError in the decoder, which dropped the
        # connection instead of answering.
        spec = spec_to_dict(maximize_spec)
        spec["network"]["layers"][0]["arrays"] = arrays
        status, payload = self._raw_post(
            server, json.dumps({"spec": spec}).encode())
        assert status == 400
        assert payload["error"].startswith("SerializationError: ")
        assert ServeClient(server.url).jobs() == []

    def test_http_rejects_auto_config_method_with_400(
            self, server, maximize_spec):
        body = json.dumps({"spec": spec_to_dict(maximize_spec),
                           "config": {"method": "auto"}})
        status, payload = self._raw_post(server, body.encode())
        assert status == 400
        assert "unknown method 'auto'" in payload["error"]
        assert ServeClient(server.url).jobs() == []

    @pytest.mark.parametrize("strategies", ['"prop4"', '[4]'])
    def test_http_rejects_non_list_strategies_with_400(
            self, server, fig2, enlarged_box2, strategies):
        from repro.api import ContinuousLoopSpec
        from repro.core import ProofArtifacts, VerificationProblem

        spec = ContinuousLoopSpec(
            artifacts=ProofArtifacts(problem=VerificationProblem(
                fig2, enlarged_box2, Box(-50 * np.ones(1), 50 * np.ones(1)))),
            new_network=fig2, strategies=("prop4",))
        body = json.dumps({"spec": spec_to_dict(spec)}).replace(
            '["prop4"]', strategies)
        status, payload = self._raw_post(server, body.encode())
        assert status == 400
        assert "strategies must be a JSON list of strings" in payload["error"]

    def test_http_rejects_deeply_nested_body_with_400(self, server):
        """JSON nested past the parser's depth must come back as a 400
        JSON error, not kill the handler thread and drop the connection."""
        depth = 100000
        for body in ("[" * depth + "]" * depth,
                     '{"spec": ' + "[" * depth + "]" * depth + "}"):
            status, payload = self._raw_post(server, body.encode())
            assert status == 400
            assert "nested too deeply" in payload["error"]
        assert ServeClient(server.url).health()["ok"] is True

    def test_http_bad_state_filter_is_400_not_404(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            ServeClient(server.url).host, ServeClient(server.url).port)
        try:
            conn.request("GET", "/jobs?state=bogus")
            response = conn.getresponse()
            assert response.status == 400
            assert "unknown job state" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_http_rejects_malformed_arrays_with_400(self, server,
                                                    maximize_spec):
        """A structurally-plausible spec whose arrays are ragged must be
        a 400, not a crashed handler / dropped connection."""
        client = ServeClient(server.url)
        spec_doc = spec_to_dict(maximize_spec)
        spec_doc["input_box"] = {"lower": [[0.0, 1.0], [2.0]],
                                 "upper": [1.0, 1.0]}
        with pytest.raises(ServeError):
            client._request("POST", "/jobs", {"spec": spec_doc})
        assert client.health()["ok"] is True  # the server survived

    def test_http_error_responses_close_the_connection(self, server):
        """An error before the body is read would desync a keep-alive
        connection (leftover bytes parsed as the next request line)."""
        import http.client

        target = ServeClient(server.url)
        conn = http.client.HTTPConnection(target.host, target.port)
        try:
            # Declare a body far over the cap; the server must reject it
            # without reading and tell the client the connection is done.
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(10 ** 12))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    @pytest.mark.parametrize("path", ["/jobs", "/workers"])
    @pytest.mark.parametrize("declared", ["abc", "-5", "1e3", "²",
                                          "9" * 5000], ids=[
        "letters", "negative", "exponent", "superscript", "5000-digits"])
    def test_http_bad_content_length_is_400(self, server, path, declared):
        """A Content-Length that is not a decimal byte count is a 400
        naming the header, not a leaked ``int()`` error or a crashed
        handler."""
        import http.client

        target = ServeClient(server.url)
        conn = http.client.HTTPConnection(target.host, target.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", path)
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", declared.encode("utf-8"))
            conn.endheaders()
            response = conn.getresponse()
            error = json.loads(response.read())["error"]
            assert response.status == 400
            assert "ValueError" not in error
            assert "Content-Length" in error or "over" in error
        finally:
            conn.close()
        assert target.health()["ok"] is True

    def test_http_truncated_body_closes_the_connection(self, server,
                                                       monkeypatch):
        """A body shorter than its Content-Length costs the server one
        socket timeout, then the connection; the handler thread does not
        wait for as long as the client holds the socket."""
        import socket

        from repro.serve.http import _Handler

        # The handler bounds every socket wait itself; the test only
        # shortens that bound.
        assert 0 < vars(_Handler)["timeout"] <= 60
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        target = ServeClient(server.url)
        with socket.create_connection((target.host, target.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 12\r\n\r\n{}")
            started = time.monotonic()
            assert sock.recv(4096) == b""  # closed without an answer
            assert time.monotonic() - started < 5
        assert target.health()["ok"] is True

    def test_http_jobs_limit_filter(self, server, fig2, enlarged_box2):
        client = ServeClient(server.url)
        for k in (1, 2, 3):
            client.submit(MaximizeSpec(network=fig2,
                                       input_box=enlarged_box2,
                                       objective=np.array([float(k)])))
        assert len(client.jobs(limit=2)) == 2
        with pytest.raises(ServeError):
            client._request("GET", "/jobs?limit=soon")


class TestSubprocessExecutor:
    def test_ships_job_over_verify_spec_wire(self, maximize_spec):
        direct = VerificationEngine(VerifyConfig()).verify(maximize_spec)
        executor = SubprocessExecutor()
        verdict_doc = executor.execute(_wire(maximize_spec), _CONFIG_JSON,
                                       timeout=300)
        served = verdict_from_dict(verdict_doc)
        assert canonical_verdict_json(served) == \
            canonical_verdict_json(direct)

    def test_timeout_kills_the_child(self, maximize_spec):
        executor = SubprocessExecutor()
        with pytest.raises(TimeoutError, match="killed"):
            executor.execute(_wire(maximize_spec), _CONFIG_JSON,
                             timeout=0.05)

    def test_failed_child_surfaces_real_error(self, bad_spec):
        """A child whose job raises also exits 1 (the 'verdict fails'
        code); the executor re-raises the child's own error class, not
        'unparseable output' or a crash."""
        from repro.errors import ShapeError
        from repro.serve.resilience import classify_failure

        executor = SubprocessExecutor()
        with pytest.raises(ShapeError, match="ShapeError") as info:
            executor.execute(_wire(bad_spec), _CONFIG_JSON, timeout=300)
        assert classify_failure(info.value) == ("ShapeError", False)

    def test_permanent_error_fails_once_under_either_executor(
            self, no_lipschitz_spec):
        from repro.api import ServeConfig

        outcomes = {}
        for executor in ("inprocess", "subprocess"):
            with VerificationService(
                    executor=executor,
                    serve_config=ServeConfig(retry_attempts=3)) as service:
                record = service.wait(
                    service.submit(no_lipschitz_spec).job_id, timeout=300)
            outcomes[executor] = (record.state, record.attempts,
                                  record.error_type)
        assert outcomes["inprocess"] == outcomes["subprocess"] == (
            JOB_FAILED, 1, "ArtifactError")

    def test_empty_child_output_stays_transient(self, tmp_path,
                                                maximize_spec):
        # A child that dies before writing any document is a crash.
        from repro.serve.resilience import classify_failure

        silent = tmp_path / "silent"
        silent.write_text("#!/bin/sh\nexit 3\n")
        silent.chmod(0o755)
        executor = SubprocessExecutor(python=str(silent))
        with pytest.raises(ServeError, match="without a verdict") as info:
            executor.execute(_wire(maximize_spec), _CONFIG_JSON, timeout=60)
        assert classify_failure(info.value) == ("ExecutorCrashError", True)


class TestServeCLI:
    @pytest.fixture
    def server(self):
        service = VerificationService(workers=1).start()
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_submit_wait_matches_verify_spec_wire(self, server, tmp_path,
                                                  maximize_spec, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"spec": spec_to_dict(maximize_spec)}))
        assert cli_main(["verify-spec", str(path), "--wire"]) == 0
        direct_doc = json.loads(capsys.readouterr().out)
        assert cli_main(["submit", str(path), "--url", server.url,
                         "--wait", "--json"]) == 0
        served_doc = json.loads(capsys.readouterr().out)
        assert canonical_verdict_json(verdict_from_dict(served_doc)) == \
            canonical_verdict_json(verdict_from_dict(direct_doc))

    def test_submit_status_cancel_round_trip(self, server, tmp_path,
                                             maximize_spec, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"spec": spec_to_dict(maximize_spec)}))
        assert cli_main(["submit", str(path), "--url", server.url,
                         "--json"]) == 0
        job_id = json.loads(capsys.readouterr().out)["job_id"]
        assert cli_main(["status", job_id, "--url", server.url,
                         "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["job_id"] == job_id
        assert cli_main(["status", "--url", server.url, "--json"]) == 0
        overview = json.loads(capsys.readouterr().out)
        assert any(r["job_id"] == job_id for r in overview["jobs"])
        # cancel exits 0 only when the job was still cancellable
        code = cli_main(["cancel", job_id, "--url", server.url])
        assert code in (0, 1)

    def test_submit_exit_code_matches_verify_spec_semantics(self):
        from repro.cli import _verdict_exit_code

        # Value queries: range always computed; maximize only at optimal.
        assert _verdict_exit_code({"verdict": "range", "holds": None}) == 0
        assert _verdict_exit_code({"verdict": "maximize", "holds": None,
                                   "result": {"status": "optimal"}}) == 0
        # A node-limited maximize has no optimum: inconclusive, exit 2.
        assert _verdict_exit_code({"verdict": "maximize", "holds": None,
                                   "result": {"status": "node_limit"}}) == 2
        assert _verdict_exit_code({"verdict": "containment",
                                   "holds": True}) == 0
        assert _verdict_exit_code({"verdict": "containment",
                                   "holds": False}) == 1
        assert _verdict_exit_code({"verdict": "failed", "holds": None}) == 3

    def test_auto_method_rejected_on_the_command_line(
            self, tmp_path, maximize_spec, capsys):
        from repro.errors import ReproError

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"spec": spec_to_dict(maximize_spec)}))
        with pytest.raises(SystemExit) as info:
            cli_main(["verify-spec", str(path), "--method", "auto"])
        assert info.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err
        path.write_text(json.dumps({"spec": spec_to_dict(maximize_spec),
                                    "config": {"method": "auto"}}))
        with pytest.raises(ReproError, match="unknown method 'auto'"):
            cli_main(["verify-spec", str(path)])

    def test_verify_spec_reads_stdin(self, maximize_spec, capsys,
                                     monkeypatch):
        import io

        document = json.dumps({"spec": spec_to_dict(maximize_spec)})
        monkeypatch.setattr("sys.stdin", io.StringIO(document))
        assert cli_main(["verify-spec", "-", "--wire"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "maximize"


# The serve-side schema as it stood before the certificates table (and the
# resilience columns), verbatim: what a long-lived ``--db`` from an old
# deployment actually contains when new code opens it.
_PRE_CERT_SCHEMA = """
CREATE TABLE jobs (
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
    cache_hit    INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE verdict_cache (
    fingerprint  TEXT PRIMARY KEY,
    verdict_json TEXT NOT NULL,
    created_at   REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE attempts (
    job_id       TEXT NOT NULL,
    attempt      INTEGER NOT NULL,
    started_at   REAL,
    finished_at  REAL NOT NULL,
    outcome      TEXT NOT NULL,
    transient    INTEGER NOT NULL DEFAULT 0,
    error        TEXT,
    PRIMARY KEY (job_id, attempt)
);
"""


class TestCertificateStore:
    """PR 9: the certificates table rides the JobStore migration path."""

    def test_old_db_gains_certificates_table(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "old.db")
        conn = sqlite3.connect(path)
        conn.executescript(_PRE_CERT_SCHEMA)
        conn.commit()
        conn.close()
        with JobStore(path) as store:
            assert store.cert_get("missing") is None
            store.cert_put("k1", '{"cert": 1}', structural_fp="fp")
            assert store.cert_get("k1") == '{"cert": 1}'
            assert store.cert_stats() == {"entries": 1, "hits": 1}

    def test_crash_recovery_keeps_certificates(self, tmp_path,
                                               maximize_spec):
        path = str(tmp_path / "jobs.sqlite")
        store = JobStore(path)
        _queue_job(store, maximize_spec)
        store.claim_next()
        store.cert_put("k1", '{"cert": 1}')
        store.close()  # crash with the job mid-running

        with JobStore(path) as reopened:
            assert reopened.recovered_jobs == 1
            assert reopened.cert_get("k1") == '{"cert": 1}'
            assert reopened.cert_stats()["entries"] == 1

    def test_put_replaces_latest_and_hits_accumulate(self):
        with JobStore() as store:
            store.cert_put("k", '{"v": 1}')
            assert store.cert_get("k") == '{"v": 1}'
            store.cert_put("k", '{"v": 2}')
            assert store.cert_get("k") == '{"v": 2}'
            assert store.cert_stats() == {"entries": 1, "hits": 2}


class TestCertificatesOverHTTP:
    """End-to-end: cert hit/miss/stored/reused counters over the wire."""

    @pytest.fixture
    def server(self):
        service = VerificationService(
            workers=2,
            default_config=VerifyConfig(certs="reuse")).start()
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_stats_and_healthz_count_cert_traffic(self, server, fig2):
        client = ServeClient(server.url)
        box = Box(-np.ones(2), np.ones(2))
        c = np.array([1.0])
        cfg = VerifyConfig(certs="reuse")
        opt = VerificationEngine(VerifyConfig()).verify(
            MaximizeSpec(network=fig2, input_box=box,
                         objective=c)).result.upper_bound
        spec = ThresholdSpec(network=fig2, input_box=box, objective=c,
                             threshold=opt + 1.0)
        job = client.submit(spec, config=cfg)
        client.wait(job["job_id"], timeout=30)
        stats = client.stats()
        certs = stats["certificates"]
        assert certs["policy"] == "reuse"
        assert certs["misses"] >= 1
        assert certs["stored"] >= 1
        assert certs["store"]["entries"] == 1

        perturbed = fig2.perturb(0.002, rng=np.random.default_rng(3))
        warm_spec = ThresholdSpec(network=perturbed, input_box=box,
                                  objective=c, threshold=opt + 1.0)
        job2 = client.submit(warm_spec, config=cfg)
        record = client.wait(job2["job_id"], timeout=30)
        assert record["state"] == JOB_DONE
        warm = client.verdict(job2["job_id"])
        cold = VerificationEngine(VerifyConfig()).verify(warm_spec)
        assert verdict_decision_json(warm) == verdict_decision_json(cold)
        assert warm.provenance.cert_hit is True

        stats = client.stats()
        assert stats["certificates"]["hits"] >= 1
        assert stats["certificates"]["reused"] >= 1
        # Warm-started verdicts stay out of the verdict cache: their
        # provenance depends on certificate state, not request identity.
        assert stats["verdict_cache"]["entries"] == 1
        health = client.health()
        assert health["certificates"]["policy"] == "reuse"
