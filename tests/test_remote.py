"""Distributed serving: consistent-hash routing, worker liveness, the
remote executor, the shard-routing coordinator, and the kill-a-worker
end-to-end path (verdicts must stay byte-identical to direct solves)."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    MaximizeSpec,
    VerificationEngine,
    VerifyConfig,
    canonical_verdict_json,
    config_to_json,
    spec_to_json,
    verdict_from_dict,
)
from repro.api.config import ServeConfig
from repro.domains import Box
from repro.errors import (
    RemoteProtocolError,
    RemoteUnreachableError,
    ServeError,
)
from repro.serve import (
    HashRing,
    RemoteExecutor,
    ServeClient,
    ShardRouter,
    VerificationService,
    WorkerRegistry,
    routing_key,
    serve_http,
)
from repro.serve.resilience import ExecutorUnavailableError, classify_failure

_CONFIG_JSON = config_to_json(VerifyConfig())


def _spec(scale=1.0, fig2=None):
    from repro.nn import fig2_network

    return MaximizeSpec(network=fig2 or fig2_network(),
                        input_box=Box(-np.ones(2), np.array([1.1, 1.1])),
                        objective=np.array([float(scale)]))


def _wire(spec):
    return spec_to_json(spec, sort_keys=True)


# ------------------------------------------------------------- routing key


class TestRoutingKey:
    def test_deterministic(self, fig2):
        spec_json = _wire(_spec(fig2=fig2))
        assert routing_key(spec_json, _CONFIG_JSON) == \
            routing_key(spec_json, _CONFIG_JSON)

    def test_spec_and_config_both_matter(self, fig2):
        a = _wire(_spec(1.0, fig2))
        b = _wire(_spec(2.0, fig2))
        other_config = config_to_json(VerifyConfig(workers=2))
        assert routing_key(a, _CONFIG_JSON) != routing_key(b, _CONFIG_JSON)
        assert routing_key(a, _CONFIG_JSON) != routing_key(a, other_config)

    def test_separator_prevents_boundary_collisions(self):
        # "ab"+"c" must not hash like "a"+"bc".
        assert routing_key("ab", "c") != routing_key("a", "bc")


# --------------------------------------------------------------- hash ring


class TestHashRing:
    def test_empty_ring(self):
        ring = HashRing()
        assert ring.owner("anything") is None
        assert ring.order("anything") == []
        assert len(ring) == 0

    def test_single_node_owns_everything(self):
        ring = HashRing()
        ring.add("http://a:1")
        assert all(ring.owner(f"key{i}") == "http://a:1"
                   for i in range(50))

    def test_owner_is_stable(self):
        ring = HashRing()
        for node in ("http://a:1", "http://b:2", "http://c:3"):
            ring.add(node)
        owners = {f"key{i}": ring.owner(f"key{i}") for i in range(200)}
        assert owners == {k: ring.owner(k) for k in owners}

    def test_order_starts_at_owner_and_covers_all_nodes(self):
        ring = HashRing()
        nodes = ["http://a:1", "http://b:2", "http://c:3"]
        for node in nodes:
            ring.add(node)
        for i in range(50):
            order = ring.order(f"key{i}")
            assert order[0] == ring.owner(f"key{i}")
            assert sorted(order) == sorted(nodes)

    def test_remove_moves_only_the_removed_nodes_keys(self):
        ring = HashRing()
        nodes = ["http://a:1", "http://b:2", "http://c:3"]
        for node in nodes:
            ring.add(node)
        keys = [f"key{i}" for i in range(1000)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("http://b:2")
        after = {k: ring.owner(k) for k in keys}
        moved = [k for k in keys if before[k] != after[k]]
        # Every moved key used to belong to the removed node; every key
        # that stayed kept its exact owner.
        assert all(before[k] == "http://b:2" for k in moved)
        assert all(after[k] == before[k]
                   for k in keys if before[k] != "http://b:2")
        # And the removed node owned ~1/3 of the space (loose bounds:
        # 64 virtual nodes leave some imbalance).
        assert 0.15 < len(moved) / len(keys) < 0.55

    def test_add_moves_only_a_slice_to_the_new_node(self):
        ring = HashRing()
        for node in ("http://a:1", "http://b:2"):
            ring.add(node)
        keys = [f"key{i}" for i in range(1000)]
        before = {k: ring.owner(k) for k in keys}
        ring.add("http://c:3")
        after = {k: ring.owner(k) for k in keys}
        moved = [k for k in keys if before[k] != after[k]]
        assert all(after[k] == "http://c:3" for k in moved)
        assert 0.15 < len(moved) / len(keys) < 0.55

    def test_readding_a_node_restores_the_exact_mapping(self):
        ring = HashRing()
        for node in ("http://a:1", "http://b:2", "http://c:3"):
            ring.add(node)
        keys = [f"key{i}" for i in range(300)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("http://b:2")
        ring.add("http://b:2")
        assert before == {k: ring.owner(k) for k in keys}

    def test_add_is_idempotent(self):
        ring = HashRing(replicas=8)
        ring.add("http://a:1")
        ring.add("http://a:1")
        assert len(ring._points) == 8

    def test_replicas_validated(self):
        with pytest.raises(ServeError):
            HashRing(replicas=0)


# --------------------------------------------------------- worker registry


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestWorkerRegistry:
    def test_normalize(self):
        assert WorkerRegistry.normalize("host:8717") == "http://host:8717"
        assert WorkerRegistry.normalize("http://host:8717/") == \
            "http://host:8717"

    def test_add_makes_alive_until_ttl_lapses(self):
        clock = _FakeClock()
        registry = WorkerRegistry(worker_ttl=5.0, clock=clock)
        url = registry.add("http://a:1")
        assert registry.is_alive(url)
        clock.advance(4.9)
        assert registry.is_alive(url)
        clock.advance(0.2)
        assert not registry.is_alive(url)

    def test_heartbeat_refreshes_ttl(self):
        clock = _FakeClock()
        registry = WorkerRegistry(worker_ttl=5.0, clock=clock)
        registry.add("http://a:1")
        clock.advance(4.0)
        registry.heartbeat("http://a:1")
        clock.advance(4.0)
        assert registry.is_alive("http://a:1")

    def test_failed_probe_after_ttl_marks_dead(self):
        clock = _FakeClock()
        registry = WorkerRegistry(worker_ttl=5.0, clock=clock)
        registry.add("http://a:1")
        clock.advance(1.0)
        registry.note_probe("http://a:1", ok=False, error="boom")
        # TTL not yet lapsed: one bad probe is not a death sentence.
        assert registry.is_alive("http://a:1")
        clock.advance(5.0)
        registry.note_probe("http://a:1", ok=False, error="boom")
        state = registry.states()[0]
        assert not state["alive"]
        assert state["deaths"] == 1
        assert state["last_error"] == "boom"

    def test_successful_probe_revives_a_dead_worker(self):
        clock = _FakeClock()
        registry = WorkerRegistry(worker_ttl=5.0, clock=clock)
        registry.add("http://a:1")
        registry.mark_unreachable("http://a:1", "refused")
        assert not registry.is_alive("http://a:1")
        registry.note_probe("http://a:1", ok=True)
        assert registry.is_alive("http://a:1")

    def test_mark_unreachable_kills_immediately(self):
        clock = _FakeClock()
        registry = WorkerRegistry(worker_ttl=500.0, clock=clock)
        registry.add("http://a:1")
        registry.mark_unreachable("http://a:1", "connection refused")
        assert not registry.is_alive("http://a:1")
        assert registry.states()[0]["deaths"] == 1

    def test_job_success_is_proof_of_life(self):
        clock = _FakeClock()
        registry = WorkerRegistry(worker_ttl=5.0, clock=clock)
        registry.add("http://a:1")
        clock.advance(4.0)
        registry.note_success("http://a:1")
        clock.advance(4.0)
        assert registry.is_alive("http://a:1")
        assert registry.states()[0]["jobs_ok"] == 1

    def test_states_carries_age_not_monotonic_stamps(self):
        clock = _FakeClock()
        registry = WorkerRegistry(worker_ttl=5.0, clock=clock)
        registry.add("http://a:1")
        clock.advance(2.5)
        state = registry.states()[0]
        assert state["last_seen_age"] == pytest.approx(2.5)
        assert "last_seen" not in state and "registered_at" not in state

    def test_unknown_urls_are_ignored(self):
        registry = WorkerRegistry()
        registry.note_probe("http://ghost:1", ok=True)
        registry.note_success("http://ghost:1")
        registry.mark_unreachable("http://ghost:1", "x")
        assert registry.states() == []


# ------------------------------------------- remote executor (live server)


@pytest.fixture
def worker_server():
    """One in-thread worker: a real VerificationService behind HTTP."""
    service = VerificationService(store=":memory:", executor="inprocess",
                                  workers=2)
    server = serve_http(service, port=0)
    service.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


class TestRemoteExecutor:
    def test_verdict_byte_identical_to_direct_solve(self, worker_server,
                                                    fig2):
        spec = _spec(fig2=fig2)
        executor = RemoteExecutor(worker_server.url)
        out = executor.execute(_wire(spec), _CONFIG_JSON, timeout=60)
        direct = VerificationEngine(VerifyConfig()).verify(spec)
        assert canonical_verdict_json(verdict_from_dict(out)) == \
            canonical_verdict_json(direct)

    def test_remote_permanent_failure_stays_permanent(self, worker_server,
                                                      fig2):
        from repro.api import ContainmentSpec

        bad = ContainmentSpec(network=fig2,
                              input_box=Box(-np.ones(5), np.ones(5)),
                              target=Box(-np.ones(1), np.ones(1)))
        executor = RemoteExecutor(worker_server.url)
        with pytest.raises(Exception) as excinfo:
            executor.execute(_wire(bad), _CONFIG_JSON, timeout=60)
        _, transient = classify_failure(excinfo.value)
        assert not transient, (
            "a permanently-bad spec must not be retried across the fleet")

    def test_unreachable_endpoint_raises_transient(self):
        executor = RemoteExecutor("http://127.0.0.1:1", request_timeout=0.5)
        with pytest.raises(RemoteUnreachableError) as excinfo:
            executor.execute(_wire(_spec()), _CONFIG_JSON, timeout=5)
        _, transient = classify_failure(excinfo.value)
        assert transient
        assert "127.0.0.1:1" in str(excinfo.value)

    def test_load_shedding_maps_to_unreachable(self):
        # Queue limit 1 on a service that is never started: the first
        # submit fills the queue, the executor's own submit gets the 503.
        service = VerificationService(
            store=":memory:", executor="inprocess", workers=1,
            serve_config=ServeConfig(queue_limit=1))
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            ServeClient(server.url).submit(_spec())
            executor = RemoteExecutor(server.url)
            with pytest.raises(RemoteUnreachableError, match="shedding"):
                executor.execute(_wire(_spec(2.0)), _CONFIG_JSON, timeout=5)
        finally:
            server.shutdown()
            server.server_close()
            service.close()


# ----------------------------------------------------- client wait hygiene


class TestServeClientWait:
    def test_wait_survives_transient_blips_then_gives_up(self):
        # A server that vanishes mid-poll: bounded transport retries, then
        # ExecutorUnavailableError with the last failure's context.
        service = VerificationService(store=":memory:",
                                      executor="inprocess", workers=1)
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        record = ServeClient(server.url).submit(_spec())  # stays queued
        client = ServeClient(server.url, timeout=0.5)
        server.shutdown()
        server.server_close()
        service.close()
        with pytest.raises(ExecutorUnavailableError,
                           match="consecutive transport failures"):
            client.wait(record["job_id"], timeout=30, poll=0.01,
                        max_poll=0.02, transport_retries=3)

    def test_wait_honours_deadline_on_transport_errors(self):
        client = ServeClient("http://127.0.0.1:1", timeout=0.2)
        started = time.monotonic()
        with pytest.raises((TimeoutError, ExecutorUnavailableError)):
            client.wait("job-x", timeout=0.5, poll=0.01,
                        transport_retries=10 ** 6)
        assert time.monotonic() - started < 10.0

    def test_wait_rejects_stateless_records(self):
        class _Stateless(ServeClient):
            def job(self, job_id):
                return {"foreign": "payload"}

        client = _Stateless("http://127.0.0.1:1")
        with pytest.raises(RemoteProtocolError, match="without a job state"):
            client.wait("job-x", timeout=1)


# ------------------------------------------------- shard router (no HTTP)


class _FakeRemote:
    """Scriptable RemoteExecutor stand-in (per-URL behaviour)."""

    behaviours = {}

    def __init__(self, url):
        self.url = url
        self.name = f"remote({url})"
        self.calls = 0

    def execute(self, spec_json, config_json, timeout=None):
        self.calls += 1
        behaviour = self.behaviours.get(self.url)
        if behaviour is not None:
            raise behaviour
        return {"verdict": "ok", "shard": self.url}


@pytest.fixture
def fake_router():
    _FakeRemote.behaviours = {}
    clock = _FakeClock()
    router = ShardRouter(
        ["http://a:1", "http://b:2", "http://c:3"],
        serve_config=ServeConfig(breaker_threshold=2, breaker_reset=5.0),
        clock=clock, executor_factory=_FakeRemote,
        start_health_checker=False)
    router.clock = clock
    yield router
    router.close()


class TestShardRouter:
    def test_same_key_routes_to_same_shard(self, fake_router):
        spec_json = _wire(_spec())
        first = fake_router.execute(spec_json, _CONFIG_JSON)
        for _ in range(3):
            again = fake_router.execute(spec_json, _CONFIG_JSON)
            assert again["shard"] == first["shard"]
            assert fake_router.last_shard() == first["shard"]

    def test_dead_shard_reroutes_to_ring_successor(self, fake_router):
        spec_json = _wire(_spec())
        owner = fake_router.execute(spec_json, _CONFIG_JSON)["shard"]
        expected = fake_router.ring.order(
            routing_key(spec_json, _CONFIG_JSON))
        fake_router.registry.mark_unreachable(owner, "killed")
        rerouted = fake_router.execute(spec_json, _CONFIG_JSON)["shard"]
        assert rerouted == expected[1]
        assert fake_router.rerouted_jobs == 1

    def test_strict_policy_parks_instead_of_rerouting(self):
        _FakeRemote.behaviours = {}
        router = ShardRouter(
            ["http://a:1", "http://b:2"],
            serve_config=ServeConfig(reroute_policy="strict"),
            clock=_FakeClock(), executor_factory=_FakeRemote,
            start_health_checker=False)
        try:
            spec_json = _wire(_spec())
            owner = router.execute(spec_json, _CONFIG_JSON)["shard"]
            router.registry.mark_unreachable(owner, "killed")
            with pytest.raises(ExecutorUnavailableError):
                router.execute(spec_json, _CONFIG_JSON)
        finally:
            router.close()

    def test_transport_failure_marks_dead_and_propagates(self, fake_router):
        spec_json = _wire(_spec())
        key = routing_key(spec_json, _CONFIG_JSON)
        owner = fake_router.ring.owner(key)
        _FakeRemote.behaviours[owner] = RemoteUnreachableError("refused")
        with pytest.raises(RemoteUnreachableError):
            fake_router.execute(spec_json, _CONFIG_JSON)
        # The failure is visible (attempt accounting upstream), the shard
        # is dead for fast reroute, and the next call lands elsewhere.
        assert not fake_router.registry.is_alive(owner)
        assert fake_router.last_shard() == owner
        rerouted = fake_router.execute(spec_json, _CONFIG_JSON)["shard"]
        assert rerouted != owner

    def test_permanent_failure_propagates_without_killing_shard(
            self, fake_router):
        spec_json = _wire(_spec())
        owner = fake_router.ring.owner(routing_key(spec_json, _CONFIG_JSON))
        _FakeRemote.behaviours[owner] = ValueError("bad spec")
        with pytest.raises(ValueError):
            fake_router.execute(spec_json, _CONFIG_JSON)
        assert fake_router.registry.is_alive(owner)

    def test_breaker_opens_after_repeated_transient_failures(
            self, fake_router):
        spec_json = _wire(_spec())
        owner = fake_router.ring.owner(routing_key(spec_json, _CONFIG_JSON))
        _FakeRemote.behaviours[owner] = RemoteUnreachableError("refused")
        with pytest.raises(RemoteUnreachableError):
            fake_router.execute(spec_json, _CONFIG_JSON)
        stats = fake_router.stats()
        breaker = next(link["breaker"] for link in stats["chain"]
                       if link["name"] == owner)
        assert breaker["consecutive_failures"] == 1

    def test_empty_fleet_is_unavailable(self):
        router = ShardRouter([], executor_factory=_FakeRemote,
                             start_health_checker=False)
        try:
            assert not router.available()
            with pytest.raises(ExecutorUnavailableError,
                               match="no workers registered"):
                router.execute(_wire(_spec()), _CONFIG_JSON)
        finally:
            router.close()

    def test_fully_dead_fleet_is_unavailable(self, fake_router):
        for url in fake_router.registry.urls():
            fake_router.registry.mark_unreachable(url, "killed")
        assert not fake_router.available()
        with pytest.raises(ExecutorUnavailableError):
            fake_router.execute(_wire(_spec()), _CONFIG_JSON)

    def test_add_worker_is_idempotent_heartbeat(self, fake_router):
        before = len(fake_router.ring)
        state = fake_router.add_worker("http://a:1")
        assert len(fake_router.ring) == before
        assert state["heartbeats"] == 1

    def test_stats_shape(self, fake_router):
        stats = fake_router.stats()
        assert stats["ring"]["workers"] == 3
        assert stats["ring"]["alive_workers"] == 3
        assert {link["name"] for link in stats["chain"]} == \
            {"http://a:1", "http://b:2", "http://c:3"}
        for link in stats["chain"]:
            assert {"alive", "breaker", "successes", "failures",
                    "deaths"} <= set(link)


# --------------------------------------- coordinator service (in-process)


@pytest.fixture
def two_worker_fleet():
    """Two in-thread workers + their URLs (each a full service)."""
    fleet = []
    for _ in range(2):
        service = VerificationService(store=":memory:",
                                      executor="inprocess", workers=2)
        server = serve_http(service, port=0)
        service.start()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        fleet.append((service, server))
    try:
        yield [server.url for _, server in fleet]
    finally:
        for service, server in fleet:
            server.shutdown()
            server.server_close()
            service.close()


class TestCoordinatorService:
    def test_routes_jobs_and_records_shards(self, two_worker_fleet, fig2):
        router = ShardRouter(two_worker_fleet,
                             start_health_checker=False)
        router.check_now()
        service = VerificationService(store=":memory:", executor=router,
                                      workers=2)
        with service:
            specs = [_spec(scale, fig2) for scale in (1.0, 2.0, 3.0, 4.0)]
            jobs = [service.submit(spec) for spec in specs]
            for job, spec in zip(jobs, specs):
                record = service.wait(job.job_id, timeout=120)
                assert record.state == "done"
                direct = VerificationEngine(VerifyConfig()).verify(spec)
                assert canonical_verdict_json(service.verdict(job.job_id)) \
                    == canonical_verdict_json(direct)
                log = service.attempt_log(job.job_id)
                assert log and log[-1].outcome == "ok"
                assert log[-1].shard in two_worker_fleet
        assert router.routed_jobs == len(specs)

    def test_worker_endpoints_over_http(self, two_worker_fleet):
        router = ShardRouter([two_worker_fleet[0]],
                             start_health_checker=False)
        service = VerificationService(store=":memory:", executor=router,
                                      workers=1)
        coordinator = serve_http(service, port=0)
        thread = threading.Thread(target=coordinator.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            client = ServeClient(coordinator.url)
            # Late registration over the wire == joining the ring.
            reply = client.register_worker(two_worker_fleet[1])
            assert reply["worker"]["url"] == two_worker_fleet[1]
            workers = client.workers()
            assert {w["url"] for w in workers} == set(two_worker_fleet)
            health = client.health()
            assert set(health["shards"]) == set(two_worker_fleet)
            assert health["ring"]["workers"] == 2
        finally:
            coordinator.shutdown()
            coordinator.server_close()
            service.close()
            router.close()

    def test_non_coordinator_rejects_worker_endpoints(self, worker_server):
        client = ServeClient(worker_server.url)
        with pytest.raises(ServeError, match="not a coordinator"):
            client.workers()
        with pytest.raises(ServeError, match="not a coordinator"):
            client.register_worker("http://a:1")


# --------------------------------------------- kill a worker mid-job (e2e)


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_worker(port, tmp_path, tag):
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env = os.environ.copy()
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--db", str(tmp_path / f"worker-{tag}.sqlite"),
         "--service-workers", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _await_healthy(url, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if ServeClient(url, timeout=1.0).health().get("ok"):
                return
        except Exception:
            time.sleep(0.1)
    raise AssertionError(f"worker at {url} never became healthy")


class TestKillAWorkerEndToEnd:
    def test_jobs_survive_worker_death(self, tmp_path, fig2):
        ports = [_free_port(), _free_port()]
        urls = [f"http://127.0.0.1:{port}" for port in ports]
        procs = [_spawn_worker(port, tmp_path, i)
                 for i, port in enumerate(ports)]
        router = None
        service = None
        try:
            for url in urls:
                _await_healthy(url)
            serve_config = ServeConfig(
                heartbeat_interval=0.2, worker_ttl=1.0,
                retry_attempts=8, retry_base_delay=0.05,
                retry_max_delay=0.5, breaker_threshold=3,
                breaker_reset=0.5)
            router = ShardRouter(urls, serve_config=serve_config)
            router.check_now()
            service = VerificationService(store=":memory:",
                                          executor=router, workers=2,
                                          serve_config=serve_config)
            service.start()
            specs = [_spec(0.5 + 0.25 * i, fig2) for i in range(8)]
            jobs = [service.submit(spec) for spec in specs]
            # Pick the victim by what it owns: kill the shard that owns
            # at least one submitted job, so its jobs *must* reroute.
            owners = {}
            for job in jobs:
                record = service.job(job.job_id)
                key = routing_key(record.spec_json, record.config_json)
                owners[job.job_id] = router.ring.owner(key)
            victims = [url for url in urls if url in owners.values()]
            assert victims, "no shard owns any job (hash ring broken?)"
            victim = victims[0]
            victim_jobs = [job_id for job_id, owner in owners.items()
                           if owner == victim]
            procs[urls.index(victim)].send_signal(signal.SIGKILL)
            procs[urls.index(victim)].wait(timeout=10)
            # Every job must still complete, byte-identical to a direct
            # solve -- the dead shard's range reroutes, its in-flight
            # jobs requeue through the store's crash-recovery path.
            for job, spec in zip(jobs, specs):
                record = service.wait(job.job_id, timeout=180)
                assert record.state == "done", \
                    f"job {job.job_id} ended {record.state}: {record.error}"
                direct = VerificationEngine(VerifyConfig()).verify(spec)
                assert canonical_verdict_json(service.verdict(job.job_id)) \
                    == canonical_verdict_json(direct)
            # The death is visible in the books: the registry marked the
            # victim dead, and at least one of its jobs carries a
            # transient requeue entry naming the dead shard (unless every
            # victim job finished before the kill landed -- then the
            # reroute count stands in as evidence).
            states = {s["url"]: s for s in router.registry.states()}
            assert not states[victim]["alive"]
            requeued = [
                attempt
                for job_id in victim_jobs
                for attempt in service.attempt_log(job_id)
                if attempt.shard == victim and attempt.outcome != "ok"]
            finished_before_kill = all(
                any(a.shard == victim and a.outcome == "ok"
                    for a in service.attempt_log(job_id))
                for job_id in victim_jobs)
            assert requeued or finished_before_kill
            for attempt in requeued:
                assert attempt.transient, \
                    "a dead shard must be a *transient* failure"
        finally:
            if service is not None:
                service.close()
            if router is not None:
                router.close()
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10)


# ----------------------------------------------------------- CLI surface


class TestServeCLI:
    def test_coordinator_and_worker_are_mutually_exclusive(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["serve", "--coordinator", "--worker"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_coordinator_rejects_fault_injection(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["serve", "--coordinator", "--fault-rate", "0.5"])
        assert code == 2
        assert "fault" in capsys.readouterr().err

    def test_worker_requires_coordinator_url(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["serve", "--worker"])
        assert code == 2
        assert "coordinator-url" in capsys.readouterr().err

    def test_workers_flag_is_pool_width_without_coordinator(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["serve", "--workers", "http://a:1,http://b:2"])
        assert code == 2
        assert "integer pool width" in capsys.readouterr().err
