"""The four benchmark workloads.

Each workload builds its inputs from ``--seed`` (:meth:`Workload.inputs`),
sets the system up on them (:meth:`Workload.prepare`), runs ops, and
afterwards checks every op against a reference computed independently
(:meth:`Workload.check`), together with guards that fail the run when the
mechanism the workload exists for was not exercised.

The vehicle workloads share one deployed perception head (the paper's
Sec. V scenario: a 27-16-12-1 head trained on frames of a simulated
track), trained from a fixed scenario seed so that the work per op is
comparable across benchmark seeds.  ``--seed`` drives everything the
system is then asked about: fine-tuned versions, monitored drives and the
served job mix.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import (
    ContainmentSpec,
    ContinuousLoopSpec,
    MaximizeSpec,
    ThresholdSpec,
    VerificationEngine,
    VerifyConfig,
    canonical_verdict_json,
    spec_to_json,
    verdict_decision_json,
)
from repro.api.serialize import box_to_jsonable, network_to_jsonable
from repro.certs import certificate_key
from repro.core import ProofArtifacts, VerificationProblem
from repro.domains import Box
from repro.domains.propagate import inductive_states
from repro.exact.encoding import clear_encoding_cache
from repro.monitor import BoxMonitor
from repro.nn import Network, TrainConfig, fig2_network, fine_tune, train
from repro.serve import JobStore, ServeClient, VerificationService, serve_http
from repro.vehicle import (
    Camera,
    DriveConfig,
    Perception,
    PerceptionConfig,
    ScenarioConfig,
    Track,
    VehiclePlatform,
    feature_dataset,
    generate_dataset,
)

#: Seed of the deployed head's training data and optimiser.
SCENARIO_SEED = 0
#: State-abstraction buffer of every from-scratch verification.
STATE_BUFFER = 0.05
#: BaB node budget per exact leg (as in the Table I benchmarks).
NODE_LIMIT = 120000
#: Reference solves run with a private encoding cache: cold by design.
COLD = VerifyConfig(encoding_cache="private")


@dataclass
class OpRecord:
    """What one op returned: the decision compared against the reference,
    counters summed into per-layer metrics, and workload detail."""

    key: object = None
    decision: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)
    detail: Dict = field(default_factory=dict)
    latency_s: float = 0.0
    #: Host-speed factor applied to ``latency_s`` (see ``HostSpeed``).
    scale: float = 1.0
    error: Optional[str] = None


def failed_op(exc: BaseException) -> OpRecord:
    return OpRecord(error="".join(
        traceback.format_exception_only(type(exc), exc)).strip())


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False)


# ------------------------------------------------------------ vehicle scene
@dataclass
class Scenario:
    track: Track
    camera: Camera
    perception: Perception
    features: np.ndarray
    labels: np.ndarray
    din: Box
    dout: Box

    @property
    def head(self) -> Network:
        return self.perception.head


def deployed_scenario() -> Scenario:
    """Train the deployed head and derive its safety property: ``Din`` is
    the monitor-calibrated feature box and ``Dout`` a margin around the
    head's inductive output abstraction."""
    track = Track(radius=3.0, width=0.6)
    camera = Camera(frame_size=32)
    perception = Perception.build(PerceptionConfig(hidden_dims=(16, 12)))
    data = generate_dataset(track, camera, 400,
                            ScenarioConfig(seed=SCENARIO_SEED))
    x, y = feature_dataset(perception.extractor, data)
    train(perception.head, x, y,
          TrainConfig(epochs=80, learning_rate=3e-3, optimizer="adam",
                      seed=SCENARIO_SEED))
    din = BoxMonitor(buffer=0.04, lower_floor=0.0).calibrate(x)
    sn = inductive_states(perception.head, din, buffer_rel=STATE_BUFFER)[-1]
    dout = sn.inflate(0.25 * float(sn.widths.max()) + 0.05)
    return Scenario(track, camera, perception, x, y, din, dout)


def tune(scn: Scenario, network: Network, seed: int, step: int) -> Network:
    """One fine-tuning step (small learning rate, one epoch) on seeded
    label jitter -- the paper's incremental tuning."""
    rng = np.random.default_rng([seed, step])
    jitter = rng.normal(0.0, 0.01, size=scn.labels.shape)
    return fine_tune(network, scn.features, scn.labels + jitter,
                     learning_rate=1e-3, epochs=1, seed=seed * 1000 + step)


def _property_json(network: Network, box: Box, dout: Box) -> str:
    return spec_to_json(ContainmentSpec(network=network, input_box=box,
                                        target=dout), sort_keys=True)


def _cold_holds(network: Network, box: Box, dout: Box) -> Optional[bool]:
    """Reference decision: an exact cold containment check of the safety
    property, independent of any stored artifact."""
    return VerificationEngine(COLD).verify(ContainmentSpec(
        network=network, input_box=box, target=dout, method="exact")).holds


class Workload:
    """One benchmark workload (see the module docstring)."""

    name = ""

    def fixture(self, seed: int) -> None:
        """Derive, once per run and outside set-up timing, what the
        benchmark itself needs to state the workload's property."""

    def inputs(self, seed: int):
        raise NotImplementedError

    def inputs_json(self, inputs) -> str:
        """The generated inputs as canonical JSON (byte-identical per seed)."""
        raise NotImplementedError

    def prepare(self, inputs):
        raise NotImplementedError

    def setup(self, seed: int):
        return self.prepare(self.inputs(seed))

    def op(self, state, index: int) -> OpRecord:
        raise NotImplementedError

    def check(self, state, records: List[OpRecord]) -> Tuple[int, List[str]]:
        """``(ops that disagree with the reference, failed guards)``."""
        raise NotImplementedError

    def close(self, state) -> None:
        pass

    #: Ops run one after another on the calling thread.
    concurrent = False
    #: Times are CPU-bound, so they are reported host-normalised.
    cpu_bound = True
    #: Untimed ops before the timed loop, for workloads whose set-up does
    #: not already run the solver stack.
    warm_up_ops = 0


# --------------------------------------------------------- vehicle_scratch
@dataclass
class ScratchState:
    scn: Scenario
    versions: List[Network]
    engine: VerificationEngine


class VehicleScratch(Workload):
    """One op = one from-scratch verification (``engine.baseline``, range
    rigor) of one fine-tuned head version with a cold encoding cache."""

    name = "vehicle_scratch"
    VERSIONS = 2
    warm_up_ops = 1

    def inputs(self, seed):
        scn = deployed_scenario()
        return scn, [tune(scn, scn.head, seed, k) for k in range(self.VERSIONS)]

    def inputs_json(self, inputs):
        scn, versions = inputs
        return _dumps([_property_json(v, scn.din, scn.dout) for v in versions])

    def prepare(self, inputs):
        scn, versions = inputs
        return ScratchState(scn, versions,
                            VerificationEngine(VerifyConfig(node_limit=NODE_LIMIT)))

    def op(self, state, index):
        k = index % len(state.versions)
        clear_encoding_cache()
        verdict = state.engine.baseline(
            VerificationProblem(state.versions[k], state.scn.din, state.scn.dout),
            state_buffer=STATE_BUFFER, rigor="range")
        return OpRecord(key=k, decision=_dumps({"holds": verdict.holds}),
                        detail={"lp_solves": verdict.provenance.lp_solves,
                                "nodes": verdict.provenance.nodes})

    def check(self, state, records):
        refs = {k: _dumps({"holds": _cold_holds(v, state.scn.din, state.scn.dout)})
                for k, v in enumerate(state.versions)}
        first_lps: Dict[int, int] = {}
        failed, problems = 0, []
        for rec in records:
            if rec.error is not None:
                failed += 1
                continue
            lps = rec.detail["lp_solves"]
            expected_lps = first_lps.setdefault(rec.key, lps)
            if rec.decision != refs[rec.key] or lps != expected_lps:
                failed += 1
            if rec.decision != _dumps({"holds": True}):
                problems.append(f"version {rec.key}: holds is not True")
            if lps <= 0:
                problems.append(f"version {rec.key}: no LP was solved")
        return failed, sorted(set(problems))


# ------------------------------------------------------ vehicle_incremental
@dataclass
class Case:
    recorded: Box        # Din ∪ Δin recorded by the runtime monitor
    tuned: Network       # the fine-tuned version (SVbTV)


@dataclass
class IncrementalState:
    scn: Scenario
    cases: List[Case]
    artifacts: ProofArtifacts
    engine: VerificationEngine


class VehicleIncremental(Workload):
    """One op = one tuning case: four ``ContinuousLoopSpec`` rounds against
    the deployed head's proof artifacts (see ``_rounds``)."""

    name = "vehicle_incremental"
    CASES = 2
    #: Uniform drift radii: Prop 3 fails and Prop 1's exact search settles
    #: the first; Prop 1 fails and full re-verification settles the second.
    PROP1_DRIFT = 0.2
    FULL_DRIFT = 0.3
    CONFIG = VerifyConfig(node_limit=NODE_LIMIT)

    def fixture(self, seed):
        # The deployed head's from-scratch verification, whose artifacts
        # every round reuses.  Its cost is what vehicle_scratch's ops
        # measure, so it is computed once here instead of in every timed
        # set-up.
        scn = deployed_scenario()
        baseline = VerificationEngine(self.CONFIG).baseline(
            VerificationProblem(scn.head, scn.din, scn.dout),
            state_buffer=STATE_BUFFER, rigor="range")
        self.artifacts = baseline.result.artifacts
        if baseline.holds is not True or not self.artifacts.states_prove_safety:
            raise RuntimeError(f"deployed head did not verify: {baseline.detail}")

    def inputs(self, seed):
        scn = deployed_scenario()
        cases = []
        for i in range(self.CASES):
            monitor = BoxMonitor(buffer=0.04)
            monitor.calibrate(scn.features)
            VehiclePlatform(scn.track, scn.camera, scn.perception).drive(
                DriveConfig(steps=50, brightness=1.6 + 0.1 * i,
                            disturbance_std=0.6 + 0.1 * i,
                            seed=seed * 1000 + i),
                monitor=monitor)
            recorded = monitor.enlarged_box()
            if monitor.out_of_bound_count == 0:
                recorded = scn.din.inflate(0.002 * (i + 1))
            cases.append(Case(recorded, tune(scn, scn.head, seed, i)))
        return scn, cases

    def inputs_json(self, inputs):
        scn, cases = inputs
        return _dumps([{"recorded": box_to_jsonable(c.recorded),
                        "tuned": network_to_jsonable(c.tuned)} for c in cases])

    def prepare(self, inputs):
        scn, cases = inputs
        return IncrementalState(scn, cases, self.artifacts,
                                VerificationEngine(self.CONFIG))

    def _rounds(self, state, case: Case):
        """``(enlarged_din, new_network)`` per round of one case: SVuDC on
        the monitor-recorded domain, on the two drift radii, then SVbTV
        on the tuned version."""
        din = state.scn.din
        return [(case.recorded, None),
                (din.inflate(self.PROP1_DRIFT), None),
                (din.inflate(self.FULL_DRIFT), None),
                (None, case.tuned)]

    def op(self, state, index):
        k = index % len(state.cases)
        holds, wins, lps = [], {}, 0
        for enlarged, tuned in self._rounds(state, state.cases[k]):
            verdict = state.engine.verify(ContinuousLoopSpec(
                artifacts=state.artifacts, enlarged_din=enlarged,
                new_network=tuned))
            strategy = verdict.result.strategy.split(" ")[0].rstrip(":")
            wins[f"wins.{strategy}"] = wins.get(f"wins.{strategy}", 0) + 1
            holds.append(verdict.holds)
            lps += verdict.provenance.lp_solves
        return OpRecord(key=k, decision=_dumps(holds), counts=wins,
                        detail={"lp_solves": lps})

    def check(self, state, records):
        dout = state.scn.dout
        refs = {}
        for k, case in enumerate(state.cases):
            refs[k] = _dumps([
                _cold_holds(tuned if tuned is not None else state.scn.head,
                            enlarged if enlarged is not None else state.scn.din,
                            dout)
                for enlarged, tuned in self._rounds(state, case)])
        failed = sum(1 for r in records
                     if r.error is not None or r.decision != refs[r.key])
        won = {name for r in records for name in r.counts}
        problems = [f"no round was won by {s}" for s in
                    ("prop3", "prop1", "full", "prop4") if f"wins.{s}" not in won]
        return failed, problems


# ------------------------------------------------------- vehicle_recertify
@dataclass
class RecertifyState:
    scn: Scenario
    nets: List[Network]
    threshold: float
    store: JobStore
    engine: VerificationEngine
    cert_key: str
    first_cert: str

    def spec(self, i: int) -> ThresholdSpec:
        return ThresholdSpec(network=self.nets[i], input_box=self.scn.din,
                             objective=np.ones(1), threshold=self.threshold)


class VehicleRecertify(Workload):
    """One op = re-certify the tuning sequence nets[1..4], extended with
    ``PERTURBATIONS`` seeded small weight perturbations, with
    ``certs="reuse"`` against an in-memory ``JobStore``, starting from the
    certificate recorded for nets[0] during set-up."""

    name = "vehicle_recertify"
    UPDATES = 4
    PERTURBATIONS = 1
    PERTURB_SCALE = 5e-4
    #: The threshold sits this share above the deployed head's maximum.
    MARGIN = 0.05
    CONFIG = VerifyConfig(certs="reuse")

    def fixture(self, seed):
        scn = deployed_scenario()
        peak = VerificationEngine(VerifyConfig()).verify(MaximizeSpec(
            network=scn.head, input_box=scn.din,
            objective=np.ones(1))).result.upper_bound
        self.threshold = peak + self.MARGIN * abs(peak)

    def inputs(self, seed):
        # The tuning sequence belongs to the deployed scenario; the seed
        # drives the perturbations that extend it.
        scn = deployed_scenario()
        nets = [scn.head]
        for step in range(self.UPDATES):
            nets.append(tune(scn, nets[-1], SCENARIO_SEED, step))
        rng = np.random.default_rng([seed, self.UPDATES])
        for _ in range(self.PERTURBATIONS):
            nets.append(nets[-1].perturb(self.PERTURB_SCALE, rng=rng))
        return scn, nets

    def inputs_json(self, inputs):
        scn, nets = inputs
        return _dumps({"din": box_to_jsonable(scn.din),
                       "nets": [network_to_jsonable(n) for n in nets]})

    def prepare(self, inputs):
        scn, nets = inputs
        store = JobStore()
        state = RecertifyState(scn, nets, self.threshold, store,
                               VerificationEngine(self.CONFIG, certs=store),
                               "", "")
        first = state.engine.verify(state.spec(0))
        if first.holds is not True:
            raise RuntimeError(f"nets[0] did not certify: {first.detail}")
        state.cert_key = certificate_key(nets[0], scn.din, np.ones(1),
                                         state.threshold, self.CONFIG)
        state.first_cert = store.cert_get(state.cert_key)
        return state

    def op(self, state, index):
        state.store.cert_put(state.cert_key, state.first_cert)
        decisions, counts, detail = [], {}, []
        for i in range(1, len(state.nets)):
            verdict = state.engine.verify(state.spec(i))
            prov = verdict.provenance
            decisions.append(verdict_decision_json(verdict))
            for name, value in (("cert_hits", int(prov.cert_hit)),
                                ("nodes_reused", prov.nodes_reused),
                                ("lp_solves_saved", prov.lp_solves_saved),
                                ("cert_lp_solves", prov.lp_solves)):
                counts[name] = counts.get(name, 0) + value
            detail.append({"cert_hit": prov.cert_hit,
                           "nodes_reused": prov.nodes_reused,
                           "lp_solves": prov.lp_solves})
        return OpRecord(decision=_dumps(decisions), counts=counts,
                        detail={"updates": detail})

    def check(self, state, records):
        # Cold solves, two specs at a time on the shared pool (verdicts are
        # worker-count independent).
        cold = VerificationEngine(COLD.replace(workers=2))
        ref = _dumps([verdict_decision_json(v) for v in cold.submit(
            [state.spec(i) for i in range(1, len(state.nets))])])
        failed = sum(1 for r in records
                     if r.error is not None or r.decision != ref)
        problems = []
        for r in records:
            if r.error is not None:
                continue
            for i, update in enumerate(r.detail["updates"], start=1):
                if not update["cert_hit"]:
                    problems.append(f"update {i} missed its certificate")
                if update["nodes_reused"] <= 0:
                    problems.append(f"update {i} reused no frontier nodes")
        return failed, sorted(set(problems))

    def close(self, state):
        state.store.close()


# --------------------------------------------------------------- served_mix
@dataclass
class ServedState:
    seed: int
    service: VerificationService
    server: object
    thread: threading.Thread
    specs: Dict[tuple, MaximizeSpec] = field(default_factory=dict)
    #: Timed loops run so far; job keys carry it, so a later loop's fresh
    #: jobs never collide with an earlier loop's cached ones.
    loops: int = 0

    def spec(self, key: tuple) -> MaximizeSpec:
        if key not in self.specs:
            self.specs[key] = served_spec(self.seed, key)
        return self.specs[key]


def served_spec(seed: int, key: tuple) -> MaximizeSpec:
    """A tiny distinct job: the Fig. 2 network over a seeded box around
    the origin (every ReLU unstable, about four LPs).  Its solve is long
    enough that the client's first poll finds it still running and short
    enough to finish before the second, so latency sits on the polling
    plateau instead of racing either poll."""
    rng = np.random.default_rng([seed, *key])
    lower = -1.0 - 0.2 * rng.random(2)
    upper = 1.1 + 0.2 * rng.random(2)
    return MaximizeSpec(network=fig2_network(), input_box=Box(lower, upper),
                        objective=np.array([1.0 + 0.5 * rng.random()]))


class ServedMix(Workload):
    """One op = one job over real HTTP (``submit`` -> ``wait`` ->
    ``verdict``) from a closed loop of ``CLIENTS`` client threads against
    an in-process ``ServeAPIServer``; every ``RESUBMIT_EVERY``-th op of a
    client resubmits one of its own earlier jobs, which the verdict cache
    answers."""

    name = "served_mix"
    concurrent = True
    #: Latency is mostly waiting (queue, polling), not host CPU speed.
    cpu_bound = False
    CLIENTS = 2
    RESUBMIT_EVERY = 4
    #: The clients' first poll interval.  A fresh job's latency sits on a
    #: plateau while the job ends between the first poll (right after
    #: submit) and the second; with the 50 ms default a loaded host pushed
    #: a few percent of jobs past it and the tail flipped between modes.
    POLL_S = 0.1
    #: Keys ``(WARMUP, client, 0)`` are the warm-up jobs, never measured.
    WARMUP = 1 << 20

    def inputs(self, seed):
        return seed

    def inputs_json(self, seed):
        return _dumps([spec_to_json(served_spec(seed, (1, c, j)), sort_keys=True)
                       for c in range(self.CLIENTS) for j in range(8)])

    def prepare(self, seed):
        service = VerificationService(workers=self.CLIENTS).start()
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever,
                                  name="perfbench-http", daemon=True)
        thread.start()
        state = ServedState(seed, service, server, thread)
        for c in range(self.CLIENTS):  # first requests pay lazy imports
            self._job(state, ServeClient(server.url), (self.WARMUP, c, 0))
        return state

    def close(self, state):
        state.server.shutdown()
        state.server.server_close()
        state.thread.join(timeout=30)
        state.service.close()

    def _job(self, state, client: ServeClient, key) -> OpRecord:
        job = client.submit(state.spec(key))
        record = client.wait(job["job_id"], timeout=60, poll=self.POLL_S)
        verdict = client.verdict(job["job_id"])
        return OpRecord(key=key,
                        counts={"cache_hits": float(bool(record["cache_hit"]))},
                        detail={"record": record, "verdict": verdict})

    def run(self, state, seconds: float, tracer=None) -> Tuple[List[OpRecord], float]:
        """Closed loop: each client thread sends its next job only after
        the previous one returned, until ``seconds`` have passed."""
        state.loops += 1
        loop = state.loops
        records: List[OpRecord] = []
        lock = threading.Lock()
        op_ids = itertools.count()
        start = time.perf_counter()
        deadline = start + seconds

        def client_loop(c: int) -> None:
            client = ServeClient(state.server.url)
            pick = np.random.default_rng([state.seed, self.WARMUP + 1, c])
            history: List[tuple] = []
            for j in itertools.count():
                if time.perf_counter() >= deadline:
                    return
                resubmit = j % self.RESUBMIT_EVERY == self.RESUBMIT_EVERY - 1
                key = (history[int(pick.integers(len(history) - 1))]
                       if resubmit else (loop, c, j))
                state.spec(key)
                op = next(op_ids)
                span = None
                if tracer is not None:
                    tracer.set_op(op)
                    span = tracer.open("op")
                t0 = time.perf_counter()
                try:
                    rec = self._job(state, client, key)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    rec = failed_op(exc)
                    rec.key = key
                finally:
                    if span is not None:
                        tracer.close(span)
                rec.latency_s = time.perf_counter() - t0
                rec.detail["resubmit"] = resubmit
                if not resubmit:
                    history.append(key)
                with lock:
                    records.append(rec)

        threads = [threading.Thread(target=client_loop, args=(c,),
                                    name=f"perfbench-client-{c}")
                   for c in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records, time.perf_counter() - start

    @staticmethod
    def serve_timings(records: List[OpRecord]) -> Dict[str, List[float]]:
        """Per-job scheduler timings from the final job records (ms)."""
        out: Dict[str, List[float]] = {"queue_wait_ms": [], "exec_ms": [],
                                       "notify_ms": []}
        for rec in records:
            job = rec.detail.get("record")
            if job is None:
                continue
            lifetime = job["finished_at"] - job["submitted_at"]
            out["notify_ms"].append(1e3 * (rec.latency_s - lifetime))
            if job["started_at"] is not None and not job["cache_hit"]:
                out["queue_wait_ms"].append(
                    1e3 * (job["started_at"] - job["submitted_at"]))
                out["exec_ms"].append(
                    1e3 * (job["finished_at"] - job["started_at"]))
        return out

    def check(self, state, records):
        engine = VerificationEngine(VerifyConfig())
        refs = {key: canonical_verdict_json(engine.verify(spec))
                for key, spec in state.specs.items() if key[0] != self.WARMUP}
        failed, problems = 0, []
        planned = hits = 0
        for rec in records:
            if rec.error is not None:
                failed += 1
                continue
            job = rec.detail["record"]
            served = canonical_verdict_json(rec.detail["verdict"])
            if job["state"] != "done" or served != refs[rec.key]:
                failed += 1
            planned += rec.detail["resubmit"]
            hits += bool(job["cache_hit"])
            if job["cache_hit"] != rec.detail["resubmit"]:
                problems.append("a job's cache hit disagrees with the plan "
                                "(resubmissions must hit, fresh jobs miss)")
        ok = len(records) - failed
        if ok and hits != planned:
            problems.append(f"cache-hit share {hits}/{ok} differs from the "
                            f"configured resubmission share {planned}/{ok}")
        return failed, sorted(set(problems))


WORKLOADS = {cls.name: cls for cls in
             (VehicleScratch, VehicleIncremental, VehicleRecertify, ServedMix)}
