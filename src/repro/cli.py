"""Command-line interface: ``python -m repro <command>``.

Small demonstrations runnable without writing any code:

* ``fig2``        -- replay the paper's Fig. 2 / Equation 2 worked example;
* ``prop3``       -- replay the Proposition 3 worked example;
* ``vehicle``     -- a quick version of the Section V pipeline (train,
  verify, drift, SVuDC, fine-tune, SVbTV) with a Table-I style summary;
* ``verify``      -- verify a serialized network (``.npz``) on a box domain;
* ``verify-spec`` -- execute a declarative :mod:`repro.api` Spec from a
  JSON file (or stdin with ``-``) through the
  :class:`~repro.api.engine.VerificationEngine`; ``--wire`` emits the full
  verdict wire JSON, which is the executor protocol of :mod:`repro.serve`;
* ``serve``       -- run the asynchronous verification service (persistent
  job store + HTTP API);
* ``submit``      -- queue a spec file on a running server (``--wait``
  blocks for the verdict);
* ``status``      -- one job's record, or the whole queue + server stats;
* ``cancel``      -- cancel a queued (or best-effort running) job.

Every command that touches the exact layer builds one
:class:`~repro.api.VerifyConfig` from the shared engine flags, so every
engine knob (``--workers``, ``--node-limit``, ``--method``, ...)
is reachable from the command line and defaults stay in one place.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _add_engine_args(parser: argparse.ArgumentParser,
                     full: bool = False,
                     pool_flag: bool = True) -> None:
    """The shared engine knobs (one :class:`VerifyConfig` per invocation).

    ``full`` adds the solver-tuning flags beyond the pool width; defaults
    are ``None`` so unset flags fall through to the config's single source
    of defaults instead of being re-stated here.  ``pool_flag=False``
    skips ``--workers`` for subcommands that overload the flag (``serve``
    reuses it for the coordinator's worker URL list).
    """
    from repro.api.config import DEFAULT_METHOD, METHODS

    engine = parser.add_argument_group("engine options")
    if pool_flag:
        engine.add_argument("--workers", type=int, default=None,
                            help="worker-pool width for the exact branch-"
                                 "and-bound legs: node LPs in flight per "
                                 "search round (verdicts do not depend on "
                                 "the pool width)")
    if not full:
        return
    engine.add_argument("--tol", type=float, default=None,
                        help="optimality/threshold tolerance")
    engine.add_argument("--node-limit", type=int, default=None,
                        help="branch-and-bound node budget for local checks")
    engine.add_argument("--full-node-limit", type=int, default=None,
                        help="node budget for global (from-scratch) solves")
    engine.add_argument("--method", default=None, choices=METHODS,
                        help="containment method: a one-shot symbolic "
                             "bound that may lose, split refinement, or "
                             "exact branch and bound behind a symbolic "
                             f"screen (default: {DEFAULT_METHOD})")
    engine.add_argument("--domain", default=None,
                        help="abstract domain for layerwise rebuilds")


def _config_from_args(args, base=None):
    """Fold the engine flags over ``base`` (default: canonical defaults)."""
    from repro.api import VerifyConfig

    return (base or VerifyConfig()).with_overrides(
        workers=getattr(args, "workers", None),
        tol=getattr(args, "tol", None),
        node_limit=getattr(args, "node_limit", None),
        full_node_limit=getattr(args, "full_node_limit", None),
        method=getattr(args, "method", None),
        domain=getattr(args, "domain", None),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Continuous safety verification of neural networks "
                    "(DATE 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig2", help="paper Fig. 2 / Equation 2 worked example")
    sub.add_parser("prop3", help="paper Proposition 3 worked example")

    vehicle = sub.add_parser("vehicle", help="quick Section V pipeline")
    vehicle.add_argument("--frame-size", type=int, default=24)
    vehicle.add_argument("--samples", type=int, default=200)
    vehicle.add_argument("--epochs", type=int, default=50)
    _add_engine_args(vehicle)

    verify = sub.add_parser("verify", help="verify a saved network on a box")
    verify.add_argument("network", help="path to a network .npz "
                                        "(see repro.nn.save_network)")
    verify.add_argument("--din", type=float, nargs=2, default=(0.0, 1.0),
                        metavar=("LOW", "HIGH"),
                        help="uniform input box bounds (default [0, 1])")
    verify.add_argument("--dout", type=float, nargs=2, default=None,
                        metavar=("LOW", "HIGH"),
                        help="uniform safe output bounds (default: auto "
                             "from the layered abstraction + 25%% slack)")
    verify.add_argument("--artifacts", default=None,
                        help="where to save the proof artifacts (.npz)")
    _add_engine_args(verify, full=True)

    verify_spec = sub.add_parser(
        "verify-spec",
        help="run a declarative repro.api Spec from a JSON file")
    verify_spec.add_argument(
        "spec",
        help='spec JSON: either a bare spec document (with a "type" tag, '
             'see repro.api.spec_to_json) or {"spec": {...}, '
             '"config": {...}} to bundle engine options; "-" reads stdin '
             "(the repro.serve executor wire protocol)")
    verify_spec.add_argument("--json", action="store_true",
                             help="emit a verdict summary as machine-"
                                  "readable JSON instead of prose")
    verify_spec.add_argument("--wire", action="store_true",
                             help="emit the *full* verdict wire JSON "
                                  "(repro.api.verdict_to_json): the form "
                                  "remote executors ship back and "
                                  "verdict_from_json reconstructs")
    verify_spec.add_argument("--certs", default=None, metavar="PATH",
                             help="certificate store path (a repro serve "
                                  "job db): proved threshold solves are "
                                  "recorded there, and later runs against "
                                  "weight-perturbed networks warm-start "
                                  "from the stored frontier (implies "
                                  "certs policy 'reuse' unless the "
                                  "bundled config says otherwise)")
    _add_engine_args(verify_spec, full=True)

    serve = sub.add_parser(
        "serve", help="run the asynchronous verification service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8717,
                       help="bind port (default 8717; 0 = ephemeral)")
    serve.add_argument("--db", default="repro-jobs.sqlite",
                       help="job-store path (default repro-jobs.sqlite; "
                            '":memory:" for a transient service)')
    serve.add_argument("--executor", default="inprocess",
                       choices=("inprocess", "subprocess"),
                       help="where jobs run: engine threads in this "
                            "process, or verify-spec subprocesses "
                            "speaking the JSON wire form")
    serve.add_argument("--service-workers", type=int, default=2,
                       help="concurrent jobs (default 2); --workers "
                            "below remains the per-solve pool width")
    serve.add_argument("--certs", action="store_true",
                       help="enable the certificate store (policy "
                            "'reuse'): proved threshold jobs record "
                            "their covering frontier in the job db, and "
                            "re-verifying a weight-perturbed network "
                            "warm-starts from it")
    resilience = serve.add_argument_group("resilience options")
    resilience.add_argument(
        "--failover", action="store_true",
        help="append an in-process fallback after the chosen executor "
             "(graceful degradation when its circuit breaker opens)")
    resilience.add_argument(
        "--retry-attempts", type=int, default=None,
        help="total execution attempts per job before a transient "
             "failure becomes terminal (default 3; 1 = never retry)")
    resilience.add_argument(
        "--breaker-threshold", type=int, default=None,
        help="consecutive transient failures that open an executor's "
             "circuit breaker (default 5)")
    resilience.add_argument(
        "--breaker-reset", type=float, default=None,
        help="seconds an open breaker cools down before admitting a "
             "half-open probe (default 5)")
    resilience.add_argument(
        "--queue-limit", type=int, default=None,
        help="max queued jobs before submissions are shed with HTTP 503 "
             "+ Retry-After (default: unbounded)")
    resilience.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="CHAOS TESTING: inject this fraction of deterministic "
             "faults (crash/hang/corrupt wire) into the executor "
             "(default 0 = off)")
    resilience.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for --fault-rate injection (same seed + arrival "
             "order = same fault schedule)")
    distributed = serve.add_argument_group("distributed options")
    distributed.add_argument(
        "--coordinator", action="store_true",
        help="run as a coordinator: jobs are routed to worker machines "
             "by consistent hashing instead of executed locally")
    distributed.add_argument(
        "--workers", default=None, metavar="N|URL,URL,...",
        help="without --coordinator: integer worker-pool width for the "
             "engine (as elsewhere); with --coordinator: comma-separated "
             "worker endpoints to route jobs to (workers can also join "
             "later via --worker registration)")
    distributed.add_argument(
        "--worker", action="store_true",
        help="run as a worker: serve normally and heartbeat the "
             "--coordinator-url so the ring can route jobs here")
    distributed.add_argument(
        "--coordinator-url", default=None,
        help="coordinator endpoint a --worker registers with "
             "(heartbeats every --heartbeat-interval seconds)")
    distributed.add_argument(
        "--advertise-url", default=None,
        help="URL a --worker advertises to the coordinator (default: "
             "the bound address; set when behind NAT or 0.0.0.0)")
    distributed.add_argument(
        "--heartbeat-interval", type=float, default=None,
        help="seconds between coordinator health probes / worker "
             "heartbeats (default 1)")
    distributed.add_argument(
        "--worker-ttl", type=float, default=None,
        help="seconds of silence before a worker is marked dead and "
             "its hash range reroutes (default 5)")
    distributed.add_argument(
        "--ring-replicas", type=int, default=None,
        help="virtual nodes per worker on the consistent-hash ring "
             "(default 64)")
    distributed.add_argument(
        "--reroute-policy", choices=("reroute", "strict"), default=None,
        help="dead shard's hash range: 'reroute' to the next live "
             "shard (default), or 'strict' to park its jobs until the "
             "owner returns")
    _add_engine_args(serve, full=True, pool_flag=False)

    submit = sub.add_parser(
        "submit", help="queue a spec file on a running repro serve")
    submit.add_argument("spec", help='spec JSON file (bare document or '
                                     '{"spec", "config"} bundle); "-" '
                                     "reads stdin")
    submit.add_argument("--url", default="http://127.0.0.1:8717",
                        help="server endpoint (default "
                             "http://127.0.0.1:8717)")
    submit.add_argument("--priority", type=int, default=0,
                        help="scheduling priority (higher runs first; "
                             "FIFO within a priority)")
    submit.add_argument("--job-timeout", type=float, default=None,
                        help="per-attempt wall-clock budget in seconds")
    submit.add_argument("--deadline", type=float, default=None,
                        help="total budget in seconds: the server never "
                             "starts (or restarts) the job after it, and "
                             "clips each attempt's timeout to what is "
                             "left")
    submit.add_argument("--wait", action="store_true",
                        help="block until the verdict is in and print it")
    submit.add_argument("--json", action="store_true",
                        help="print machine-readable JSON (with --wait: "
                             "the full verdict wire JSON)")

    status = sub.add_parser(
        "status", help="job record(s) from a running repro serve")
    status.add_argument("job", nargs="?", default=None,
                        help="job id; omit for the whole queue + stats")
    status.add_argument("--url", default="http://127.0.0.1:8717")
    status.add_argument("--json", action="store_true",
                        help="print machine-readable JSON")

    cancel = sub.add_parser("cancel", help="cancel a job on a running "
                                           "repro serve")
    cancel.add_argument("job", help="job id")
    cancel.add_argument("--url", default="http://127.0.0.1:8717")

    lint = sub.add_parser(
        "lint", help="run the project's static-analysis rules "
                     "(src/ must stay clean; see docs/static_analysis.md)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint (default: src if it "
                           "exists, else .)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable JSON report")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule names to run exclusively")
    lint.add_argument("--ignore", default=None,
                      help="comma-separated rule names to skip")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    return parser


def _cmd_fig2() -> int:
    from repro.api import MaximizeSpec, VerificationEngine
    from repro.domains import Box, propagate_network
    from repro.nn import fig2_network

    net = fig2_network()
    original = Box(-np.ones(2), np.ones(2))
    enlarged = Box(-np.ones(2), np.array([1.1, 1.1]))
    print("box n4 bound on [-1,1]^2  :",
          propagate_network(net, original, "box")[-1])
    print("box n4 bound on [-1,1.1]^2:",
          propagate_network(net, enlarged, "box")[-1])
    res = VerificationEngine().verify(MaximizeSpec(
        network=net, input_box=enlarged, objective=np.array([1.0]))).result
    print(f"exact max n4 = {res.upper_bound:.4g}  (paper: 6.2 < 12 "
          "=> Proposition 1 reuses the old proof)")
    return 0


def _cmd_prop3() -> int:
    from repro.api import PropositionSpec, VerificationEngine
    from repro.core import (LipschitzCertificate, ProofArtifacts,
                            StateAbstractions, VerificationProblem)
    from repro.domains import Box
    from repro.nn import random_relu_network

    net = random_relu_network([2, 3, 1], seed=0)
    problem = VerificationProblem(
        net, Box(np.ones(2), 2 * np.ones(2)),
        Box(np.array([-10.0]), np.array([10.0])))
    artifacts = ProofArtifacts(
        problem=problem,
        states=StateAbstractions(boxes=[Box(np.zeros(3), np.ones(3)),
                                        Box(np.array([1.0]), np.array([8.0]))]),
        lipschitz=LipschitzCertificate(ell=100.0))
    enlarged = problem.din.inflate(0.01414)
    res = VerificationEngine().verify(PropositionSpec(
        kind=3, artifacts=artifacts, enlarged_din=enlarged)).result
    print(f"Din=[1,2]^2, ell=100, Sn=[1,8], Dout=[-10,10]")
    print(f"enlarged by ~0.014 per side -> {res.detail}")
    print(f"Proposition 3 verdict: {res.holds}  (paper: holds, "
          "inflated set [-1,10] fits in [-10,10])")
    return 0


def _cmd_vehicle(args) -> int:
    from repro.api import VerificationEngine
    from repro.core import (ContinuousVerifier, SVbTV, SVuDC, Table1Row,
                            VerificationProblem, format_table1)
    from repro.domains.propagate import inductive_states
    from repro.monitor import BoxMonitor
    from repro.nn import TrainConfig, fine_tune, train
    from repro.vehicle import (Camera, DriveConfig, Perception,
                               PerceptionConfig, ScenarioConfig, Track,
                               VehiclePlatform, feature_dataset,
                               generate_dataset)

    config = _config_from_args(args)
    engine = VerificationEngine(config)
    track = Track()
    camera = Camera(frame_size=args.frame_size)
    perception = Perception.build(
        PerceptionConfig(frame_size=args.frame_size, hidden_dims=(12, 8)))
    print("training the waypoint head ...")
    data = generate_dataset(track, camera, args.samples, ScenarioConfig(seed=0))
    x, y = feature_dataset(perception.extractor, data)
    train(perception.head, x, y,
          TrainConfig(epochs=args.epochs, learning_rate=3e-3,
                      optimizer="adam"))

    monitor = BoxMonitor(buffer=0.04, lower_floor=0.0)
    din = monitor.calibrate(x)
    sn = inductive_states(perception.head, din, 0.05)[-1]
    dout = sn.inflate(0.25 * float(sn.widths.max()) + 0.05)
    problem = VerificationProblem(perception.head, din, dout)
    print("verifying from scratch ...")
    baseline = engine.baseline(problem, state_buffer=0.05).result
    print(f"  safe={baseline.holds} in {baseline.elapsed:.2f}s")

    VehiclePlatform(track, camera, perception).drive(
        DriveConfig(steps=40, brightness=1.8, disturbance_std=0.8),
        monitor=monitor)
    verifier = ContinuousVerifier(baseline.artifacts, config=config)
    svudc = verifier.verify_domain_change(
        SVuDC(problem, monitor.enlarged_box()))
    tuned = fine_tune(perception.head, x, y, learning_rate=1e-3, epochs=1)
    svbtv = verifier.verify_new_version(SVbTV(problem, tuned),
                                        strategies=("prop4", "prop5"))
    print(f"SVuDC: {svudc.holds} via {svudc.strategy}; "
          f"SVbTV: {svbtv.holds} via {svbtv.strategy}")
    print(format_table1([Table1Row(
        1, svudc.speedup_vs(baseline.elapsed),
        svbtv.speedup_vs(baseline.elapsed))]))
    return 0 if (svudc.holds and svbtv.holds) else 1


def _cmd_verify(args) -> int:
    from repro.api import VerificationEngine
    from repro.core import VerificationProblem, save_artifacts
    from repro.domains import Box
    from repro.domains.propagate import inductive_states
    from repro.nn import load_network

    network = load_network(args.network)
    lo, hi = args.din
    din = Box(np.full(network.input_dim, lo), np.full(network.input_dim, hi))
    if args.dout is not None:
        dlo, dhi = args.dout
        dout = Box(np.full(network.output_dim, dlo),
                   np.full(network.output_dim, dhi))
    else:
        sn = inductive_states(network, din, 0.03)[-1]
        dout = sn.inflate(0.25 * float(sn.widths.max()) + 1e-6)
        print(f"auto Dout: {dout}")
    problem = VerificationProblem(network, din, dout)
    # One VerifyConfig carries *every* engine knob (the historical kwargs
    # path silently dropped the solver-tuning flags).
    config = _config_from_args(args)
    outcome = VerificationEngine(config).baseline(
        problem, state_buffer=0.03).result
    verdict = {True: "SAFE", False: "UNSAFE", None: "UNKNOWN"}[outcome.holds]
    print(f"{verdict} in {outcome.elapsed:.3f}s  ({outcome.detail})")
    if args.artifacts:
        save_artifacts(outcome.artifacts, args.artifacts)
        print(f"artifacts saved to {args.artifacts}")
    return 0 if outcome.holds else 1


def _load_spec_document(path: str):
    """Read a spec file (or stdin for ``-``): returns ``(spec_doc,
    config_doc_or_None)`` for both the bare and bundled layouts."""
    from repro.api.serialize import _json_loads

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    document = _json_loads(text, "spec document")
    if isinstance(document, dict) and "spec" in document:
        return document["spec"], document.get("config")
    return document, None


def _cmd_verify_spec(args) -> int:
    from repro.api import (MaximizeVerdict, RangeVerdict, VerificationEngine,
                           VerifyConfig, spec_from_dict)

    spec_doc, config_doc = _load_spec_document(args.spec)
    config = VerifyConfig.from_dict(config_doc or {})
    # Command-line engine flags override whatever the file bundled.
    config = _config_from_args(args, base=config)
    spec = spec_from_dict(spec_doc)
    certs = None
    if args.certs:
        from repro.serve.store import JobStore

        certs = JobStore(args.certs)
        if config.certs == "off":
            # --certs without an explicit policy means "use it".
            config = config.replace(certs="reuse")
    try:
        verdict = VerificationEngine(config, certs=certs).verify(spec)
    finally:
        if certs is not None:
            certs.close()
    # A RangeVerdict, or a MaximizeVerdict with no threshold that ran to
    # optimality, is a *value* query: holds is None by design and the
    # computed value is the success.
    value_query = isinstance(verdict, RangeVerdict) or (
        isinstance(verdict, MaximizeVerdict) and verdict.holds is None
        and verdict.result.status == "optimal")
    from repro.api.serialize import verdict_to_dict

    verdict_doc = verdict_to_dict(verdict)
    if args.wire:
        print(json.dumps(verdict_doc, allow_nan=False, sort_keys=True))
    elif args.json:
        record = {
            "spec_type": verdict.spec_type,
            "holds": verdict.holds,
            "detail": verdict.detail,
            "elapsed": verdict.provenance.elapsed,
            "lp_solves": verdict.provenance.lp_solves,
            "nodes": verdict.provenance.nodes,
            "workers": verdict.provenance.workers,
            "encoding_reuse": verdict.provenance.encoding_reuse,
        }
        if verdict.provenance.cert_hit or verdict.provenance.nodes_reused:
            record["cert_hit"] = verdict.provenance.cert_hit
            record["nodes_reused"] = verdict.provenance.nodes_reused
            record["lp_solves_saved"] = verdict.provenance.lp_solves_saved
        if isinstance(verdict, RangeVerdict):
            record["output_range"] = {
                "lower": verdict.output_range.lower.tolist(),
                "upper": verdict.output_range.upper.tolist(),
            }
        if isinstance(verdict, MaximizeVerdict):
            from repro.api.serialize import float_to_jsonable

            record["status"] = verdict.result.status
            record["upper_bound"] = float_to_jsonable(verdict.result.upper_bound)
            record["incumbent"] = float_to_jsonable(verdict.result.incumbent)
            if value_query:
                record["optimum"] = verdict.optimum
        print(json.dumps(record, allow_nan=False))
    else:
        answer = ("COMPUTED" if value_query else
                  {True: "HOLDS", False: "FAILS", None: "INCONCLUSIVE"}[
                      verdict.holds])
        print(f"{verdict.spec_type}: {answer} in "
              f"{verdict.provenance.elapsed:.3f}s  ({verdict.detail})")
        if isinstance(verdict, RangeVerdict):
            print(f"output range: {verdict.output_range}")
        if isinstance(verdict, MaximizeVerdict) and value_query:
            print(f"optimum: {verdict.optimum:.9g}")
    # One exit-code policy shared with `repro submit --wait` (the wire
    # form carries everything the rule needs).
    return _verdict_exit_code(verdict_doc)


def _heartbeat_loop(stop, coordinator_url: str, self_url: str,
                    interval: float) -> None:
    """Register this worker with its coordinator, then keep the TTL
    fresh.  Failures are swallowed: the coordinator being down must not
    kill the worker -- the next beat re-registers when it returns."""
    from repro.serve import ServeClient

    client = ServeClient(coordinator_url)
    while True:
        try:
            client.register_worker(self_url)
        except Exception:  # noqa: BLE001 - heartbeats never crash a worker
            pass
        if stop.wait(interval):
            return


def _cmd_serve(args) -> int:
    import threading

    from repro.api.config import ServeConfig
    from repro.serve import (FaultInjectingExecutor, ShardRouter,
                             VerificationService, make_executor, serve_http)

    if args.coordinator and args.worker:
        print("error: --coordinator and --worker are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.coordinator and args.fault_rate:
        print("error: --fault-rate injects faults into a *local* "
              "executor; on a coordinator, pass it to a worker instead",
              file=sys.stderr)
        return 2
    if args.worker and not args.coordinator_url:
        print("error: --worker needs --coordinator-url to register with",
              file=sys.stderr)
        return 2
    # serve overloads --workers: an engine pool width normally, the
    # worker URL list under --coordinator.  Resolve it before the flag
    # is folded into the engine config.
    worker_urls = []
    if args.coordinator:
        worker_urls = [url.strip() for url in (args.workers or "").split(",")
                       if url.strip()]
        args.workers = None  # the coordinator never solves locally
    elif args.workers is not None:
        try:
            args.workers = int(args.workers)
        except ValueError:
            print("error: --workers takes an integer pool width here "
                  "(a URL list needs --coordinator)", file=sys.stderr)
            return 2
    config = _config_from_args(args)
    if args.certs and config.certs == "off":
        # The certificates live in the job db (--db); the flag only turns
        # the policy on for jobs that do not bundle their own config.
        config = config.replace(certs="reuse")
    serve_config = ServeConfig().with_overrides(
        retry_attempts=args.retry_attempts,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        queue_limit=args.queue_limit,
        heartbeat_interval=args.heartbeat_interval,
        worker_ttl=args.worker_ttl,
        ring_replicas=args.ring_replicas,
        reroute_policy=args.reroute_policy)
    if args.coordinator:
        executor = ShardRouter(worker_urls, serve_config=serve_config)
        executor.check_now()  # probe the fleet before accepting jobs
    else:
        chain = [make_executor(args.executor)]
        if args.fault_rate:
            # Chaos mode: wrap the *primary* only, so a --failover
            # fallback stays healthy and the breaker handoff is
            # observable end-to-end.
            chain[0] = FaultInjectingExecutor(chain[0],
                                              fault_rate=args.fault_rate,
                                              seed=args.fault_seed)
        if args.failover and args.executor != "inprocess":
            chain.append(make_executor("inprocess"))
        executor = chain
    service = VerificationService(
        store=args.db, executor=executor,
        workers=args.service_workers, default_config=config,
        serve_config=serve_config)
    server = serve_http(service, host=args.host, port=args.port)
    service.start()
    heartbeat_stop = threading.Event()
    heartbeat_thread = None
    if args.worker:
        self_url = args.advertise_url or server.url
        heartbeat_thread = threading.Thread(
            target=_heartbeat_loop,
            args=(heartbeat_stop, args.coordinator_url, self_url,
                  serve_config.heartbeat_interval),
            name="repro-worker-heartbeat", daemon=True)
        heartbeat_thread.start()
    if service.store.recovered_jobs:
        print(f"recovered {service.store.recovered_jobs} interrupted "
              "job(s) back into the queue")
    extras = ""
    if args.fault_rate:
        extras += (f", fault_rate={args.fault_rate:g} "
                   f"seed={args.fault_seed}")
    if serve_config.queue_limit is not None:
        extras += f", queue_limit={serve_config.queue_limit}"
    if config.certs != "off":
        extras += f", certs={config.certs}"
    if args.coordinator:
        extras += (f", reroute={serve_config.reroute_policy}, "
                   f"ttl={serve_config.worker_ttl:g}s")
    if args.worker:
        extras += f", coordinator={args.coordinator_url}"
    print(f"repro serve listening on {server.url}  "
          f"(store={args.db}, executor={service.executor.name}, "
          f"service workers={args.service_workers}{extras})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down ...")
    finally:
        heartbeat_stop.set()
        if heartbeat_thread is not None:
            heartbeat_thread.join(timeout=2.0)
        server.shutdown()
        server.server_close()
        service.close()
    return 0


def _print_job_record(record: dict) -> None:
    line = (f"{record['job_id']}  {record['state']:<9}  "
            f"priority={record['priority']}  attempts={record['attempts']}")
    if record.get("cache_hit"):
        line += "  [cache hit]"
    if record.get("error"):
        line += f"  error: {record['error']}"
    print(line)


def _verdict_exit_code(verdict_doc: dict) -> int:
    if verdict_doc.get("verdict") == "failed":
        return 3
    holds = verdict_doc.get("holds")
    if holds is None:
        # Value queries succeed by computing the value -- same rule as
        # verify-spec: a range always has one, a maximize only when the
        # search actually ran to optimality (a node-limited holds=None is
        # inconclusive, exit 2).
        if verdict_doc.get("verdict") == "range":
            return 0
        if verdict_doc.get("verdict") == "maximize" and \
                (verdict_doc.get("result") or {}).get("status") == "optimal":
            return 0
    return {True: 0, False: 1, None: 2}[holds]


def _cmd_submit(args) -> int:
    from repro.serve import ServeClient

    spec_doc, config_doc = _load_spec_document(args.spec)
    client = ServeClient(args.url)
    record = client.submit(spec_doc, config=config_doc,
                           priority=args.priority,
                           timeout=args.job_timeout,
                           deadline=args.deadline)
    if not args.wait:
        if args.json:
            print(json.dumps(record, allow_nan=False))
        else:
            _print_job_record(record)
        return 0
    record = client.wait(record["job_id"], timeout=None)
    if record["state"] != "done":
        if args.json:
            print(json.dumps(record, allow_nan=False))
        else:
            _print_job_record(record)
        return 3 if record["state"] == "failed" else 4
    verdict_doc = record["verdict"]
    if args.json:
        # The full wire form, canonically ordered.  Provenance is per-run
        # (elapsed, cached flag), so comparison with `repro verify-spec
        # --wire` output is byte-exact *after* canonical_verdict_json
        # strips it -- the rule the CI identity gate applies.
        print(json.dumps(verdict_doc, allow_nan=False, sort_keys=True))
    else:
        provenance = verdict_doc.get("provenance", {})
        cached = "  [verdict cache]" if provenance.get("cached") else ""
        print(f"{record['job_id']}: {verdict_doc['spec_type']} "
              f"holds={verdict_doc['holds']}  ({verdict_doc['detail']})"
              + cached)
    return _verdict_exit_code(verdict_doc)


def _cmd_status(args) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.url)
    if args.job is not None:
        record = client.job(args.job)
        if args.json:
            print(json.dumps(record, allow_nan=False))
        else:
            _print_job_record(record)
            if record.get("verdict") is not None:
                verdict_doc = record["verdict"]
                print(f"  verdict: {verdict_doc['spec_type']} "
                      f"holds={verdict_doc['holds']}  "
                      f"({verdict_doc['detail']})")
        return 0
    stats = client.stats()
    records = client.jobs()
    if args.json:
        print(json.dumps({"stats": stats, "jobs": records},
                         allow_nan=False))
        return 0
    counts = " ".join(f"{state}={n}" for state, n in stats["jobs"].items())
    # The durable cache counters (the in-memory ones reset on restart).
    print(f"server: {counts}  cache_entries="
          f"{stats['verdict_cache']['entries']} "
          f"cache_hits={stats['verdict_cache']['hits']}")
    for record in records:
        _print_job_record(record)
    return 0


def _cmd_cancel(args) -> int:
    from repro.serve import ServeClient

    result = ServeClient(args.url).cancel(args.job)
    print(f"{result['job_id']}: {result['state']}")
    return 0 if result["state"] == "cancelled" else 1


def _cmd_lint(args) -> int:
    from repro.analysis import lint_paths, render_json, render_text
    from repro.analysis.core import UNUSED_SUPPRESSION
    from repro.analysis.rules import ALL_RULES
    from repro.errors import AnalysisError

    if args.list_rules:
        for rule in ALL_RULES:
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.name:24} [{scope}]\n    {rule.description}")
        print(f"{UNUSED_SUPPRESSION:24} [everywhere]\n    "
              "a '# repro: disable=' comment must silence a real finding")
        return 0

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        result = lint_paths(paths, select=select, ignore=ignore)
    except AnalysisError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    print(render_json(result) if args.json else render_text(result))
    return 0 if result.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "fig2":
        return _cmd_fig2()
    if args.command == "prop3":
        return _cmd_prop3()
    if args.command == "vehicle":
        return _cmd_vehicle(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "verify-spec":
        return _cmd_verify_spec(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "cancel":
        return _cmd_cancel(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
