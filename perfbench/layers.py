"""The layers the traced run times, and the per-layer metrics it prints.

Each :class:`~perfbench.tracer.Target` names a public function of one
layer, at the attribute its callers look up.  ``PER_LAYER`` lists every
per-layer metric with its unit, which direction is better, and the
end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from perfbench.tracer import Span, Target, Tracer


# ------------------------------------------------------------------ hooks
def _lp_status(tracer: Tracer, span, args, kwargs, result) -> None:
    tracer.count("lp.optimal" if result.optimal else f"lp.{result.status}")


def _screen_nodes(tracer: Tracer, span, args, kwargs, result) -> None:
    phase_maps = args[2] if len(args) > 2 else kwargs["phase_maps"]
    tracer.count("screen.nodes", len(phase_maps))


def _bab_result(tracer: Tracer, span, args, kwargs, result) -> None:
    tracer.count("bab.nodes", result.nodes)
    tracer.count("bab.rounds", result.rounds)


def _settled(tracer: Tracer, span, args, kwargs, result) -> None:
    span.meta = {"settled": bool(result.holds)}


def _sent_bytes(tracer: Tracer, span, args, kwargs, result) -> None:
    body = args[3] if len(args) > 3 else kwargs.get("body")
    if body:
        tracer.count("wire.bytes", len(body))


def _received_bytes(tracer: Tracer, span, args, kwargs, result) -> None:
    tracer.count("wire.bytes", len(result))


_LP = "repro.exact"
_STORE_METHODS = ("submit", "get", "list_jobs", "counts", "queue_depth",
                  "claim_next", "next_eligible_at", "requeue",
                  "record_attempt", "attempt_log", "finish", "fail",
                  "mark_cancelled", "cancel_queued", "cache_get",
                  "cache_put", "cache_stats", "cert_stats")

TARGETS: List[Target] = [
    # exact.lp: the node-LP kernel, scipy's wrapper, and HiGHS itself.
    *[Target(f"{_LP}.{mod}", "solve_lp", "lp.solve_lp", hook=_lp_status)
      for mod in ("lp", "bab", "parallel_bab", "tighten", "milp")],
    Target(f"{_LP}.lp", "linprog", "lp.linprog"),
    Target("scipy.optimize._highspy._core", "run", "lp.highs_run",
           cls="_Highs"),
    # exact.encoding: per-node LP construction.
    Target(f"{_LP}.encoding", "build_lp", "encoding.build_lp",
           cls="NetworkEncoding"),
    # domains.batch: batched interval screens.
    Target(f"{_LP}.bab", "phase_clamped_node_bounds", "screen.node_bounds",
           hook=_screen_nodes),
    Target("repro.certs.reuse", "phase_clamped_affine_bounds",
           "screen.node_bounds", hook=_screen_nodes),
    Target("repro.core.propositions", "screen_containments",
           "screen.containments"),
    # exact.bab / exact.parallel_bab: the search loop itself.
    Target(f"{_LP}.bab", "maximize", "bab.maximize", cls="BaBSolver",
           hook=_bab_result),
    # core.continuous / core.propositions: the strategy cascade.
    *[Target("repro.core.continuous", attr, f"loop.{name}", hook=_settled)
      for attr, name in (("check_prop3", "prop3"), ("_check_prop1", "prop1"),
                         ("_check_prop2", "prop2"), ("_check_prop4", "prop4"),
                         ("_check_prop5", "prop5"), ("check_prop6", "prop6"))],
    Target("repro.core.continuous", "_fallback_full", "loop.full",
           cls="ContinuousVerifier", hook=_settled),
    # certs: warm-start reuse and re-recording.
    Target("repro.certs", "load_certificate", "certs.load"),
    Target("repro.certs", "validate_certificate", "certs.validate"),
    Target("repro.certs", "reverify_with_certificate", "certs.reverify"),
    Target("repro.certs", "extract_certificate", "certs.record"),
    Target("repro.api.serialize", "certificate_to_json", "certs.record"),
    # api.serialize: wire encode/decode of specs, configs and verdicts.
    *[Target(module, attr, "wire.encode") for module, attr in (
        ("repro.api.specs", "spec_to_dict"), ("repro.api.specs", "spec_to_json"),
        ("repro.api.serialize", "config_to_json"),
        ("repro.api.serialize", "verdict_to_dict"))],
    *[Target(module, attr, "wire.decode") for module, attr in (
        ("repro.api.specs", "spec_from_dict"),
        ("repro.api.specs", "spec_from_json"),
        ("repro.api.serialize", "config_from_json"),
        ("repro.api.serialize", "verdict_from_dict"),
        ("repro.api.serialize", "verdict_from_json"))],
    Target("http.client", "request", "wire.sent", cls="HTTPConnection",
           hook=_sent_bytes, span=False),
    Target("http.client", "read", "wire.received", cls="HTTPResponse",
           hook=_received_bytes, span=False),
    # serve.store: every public JobStore method; certificate table apart.
    *[Target("repro.serve.store", method, "store.call", cls="JobStore")
      for method in _STORE_METHODS],
    *[Target("repro.serve.store", method, "store.cert", cls="JobStore")
      for method in ("cert_get", "cert_put")],
    # serve.client / serve.http: requests and polling.
    Target("repro.serve.client", "_request_once", "client.request",
           cls="ServeClient"),
    Target("repro.serve.client", "wait", "client.wait", cls="ServeClient"),
    Target("repro.serve.client", "job", "client.poll", cls="ServeClient"),
]

#: Layers whose self time the coverage figure counts on vehicle_scratch.
SCRATCH_LAYERS = ("lp", "encoding", "screen", "bab")
SELF_LAYERS = ("lp", "encoding", "screen", "bab", "loop", "certs", "wire",
               "store", "client")

_SCRATCH = "ops_per_s on vehicle_scratch"
_INC = "ops_per_s on vehicle_incremental"
_RECERT = "ops_per_s on vehicle_recertify"
_SERVED = "op_ms_p50 on served_mix"

#: ``(name, unit, better, moves)`` for every per-layer metric.
PER_LAYER = [
    ("lp.calls", "count/op", "lower", f"{_SCRATCH}, then {_INC}"),
    ("lp.solve_s", "s/op", "lower", f"{_SCRATCH}, then {_INC}"),
    ("lp.linprog_s", "s/op", "lower", f"{_SCRATCH}, then {_INC}"),
    ("lp.highs_run_s", "s/op", "lower", f"{_SCRATCH}, then {_INC}"),
    ("lp.infeasible_ratio", "ratio", "lower", _SCRATCH),
    ("encoding.build_lp_calls", "count/op", "lower", _SCRATCH),
    ("encoding.build_lp_s", "s/op", "lower", _SCRATCH),
    ("encoding.cache_hits", "count/op", "higher", _SCRATCH),
    ("encoding.cache_misses", "count/op", "lower", _SCRATCH),
    ("screen.calls", "count/op", "lower", f"{_SCRATCH}, {_RECERT}, {_INC}"),
    ("screen.nodes", "count/op", "lower", f"{_SCRATCH}, {_RECERT}, {_INC}"),
    ("screen.s", "s/op", "lower", f"{_SCRATCH}, {_RECERT}, {_INC}"),
    ("screen.containment_s", "s/op", "lower", _INC),
    ("bab.nodes", "count/op", "lower", _SCRATCH),
    ("bab.rounds", "count/op", "lower", _SCRATCH),
    ("bab.lp_per_node", "ratio", "lower", _SCRATCH),
    ("bab.self_s", "s/op", "lower", f"{_SCRATCH} (must stay flat)"),
    ("loop.rounds.prop3", "count/op", "higher", _INC),
    ("loop.rounds.prop1", "count/op", "higher", _INC),
    ("loop.rounds.prop4", "count/op", "higher", _INC),
    ("loop.rounds.full", "count/op", "lower", _INC),
    ("loop.attempt_s.prop3", "s/op", "lower", _INC),
    ("loop.attempt_s.prop1", "s/op", "lower", _INC),
    ("loop.attempt_s.prop2", "s/op", "lower", _INC),
    ("loop.attempt_s.prop4", "s/op", "lower", _INC),
    ("loop.attempt_s.full", "s/op", "lower", _INC),
    ("loop.wasted_ratio", "ratio", "lower", _INC),
    ("certs.hits", "count/op", "higher", _RECERT),
    ("certs.nodes_reused", "count/op", "higher", _RECERT),
    ("certs.lp_solves_saved", "count/op", "higher", _RECERT),
    ("certs.lp_saved_ratio", "ratio", "higher", _RECERT),
    ("certs.load_s", "s/op", "lower", _RECERT),
    ("certs.validate_s", "s/op", "lower", _RECERT),
    ("certs.reverify_s", "s/op", "lower", _RECERT),
    ("certs.record_s", "s/op", "lower", _RECERT),
    ("wire.encode_s", "s/op", "lower", _SERVED),
    ("wire.decode_s", "s/op", "lower", _SERVED),
    ("wire.bytes_per_job", "bytes/op", "lower", _SERVED),
    ("store.calls", "count/op", "lower", f"{_SERVED}, {_RECERT}"),
    ("store.s", "s/op", "lower", f"{_SERVED}, {_RECERT}"),
    ("store.cert_s", "s/op", "lower", _RECERT),
    ("serve.queue_wait_ms_p50", "ms", "lower", f"{_SERVED} and op_ms_tail"),
    ("serve.exec_ms_p50", "ms", "lower", f"{_SERVED} and op_ms_tail"),
    ("serve.notify_ms_p50", "ms", "lower", f"{_SERVED} and op_ms_tail"),
    ("serve.cache_hit_ratio", "ratio", "higher", _SERVED),
    ("client.requests_per_job", "count/op", "lower", _SERVED),
    ("client.polls_per_job", "count/op", "lower", _SERVED),
    ("client.request_ms_p50", "ms", "lower", _SERVED),
    *[(f"self_s.{layer}", "s/op", "lower", "the op time of the workload")
      for layer in SELF_LAYERS],
    ("trace.coverage", "ratio", "higher",
     "none: share of op wall time inside wrapped layers"),
    ("trace.unwrapped_s", "s/op", "lower", "the op time of the workload"),
    ("trace.overhead", "ratio", "lower",
     "none: untraced ops_per_s / traced ops_per_s - 1"),
]


class _Totals:
    """Span count, inclusive and self seconds per span name."""

    def __init__(self, spans: Sequence[Span]):
        self.count: Dict[str, int] = {}
        self.incl: Dict[str, float] = {}
        self.self: Dict[str, float] = {}
        self.layer_self: Dict[str, float] = {}
        for span in spans:
            name = span.name
            self.count[name] = self.count.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0.0) + span.duration
            self.self[name] = self.self.get(name, 0.0) + span.self_s
            layer = span.layer
            self.layer_self[layer] = (self.layer_self.get(layer, 0.0)
                                      + span.self_s)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, ops: int, counts: Dict[str, float],
                  serve: Dict[str, List[float]], cache_delta: Dict[str, int],
                  overhead: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` value from one traced phase of ``ops`` ops.

    ``counts`` sums the workloads' own per-op counters (strategy wins,
    certificate provenance); ``serve`` holds the served workload's
    per-job timings read from the job records."""
    spans = list(tracer.spans)
    t = _Totals(spans)
    c = tracer.counters
    n = max(ops, 1)
    by_id = {span.id: span for span in spans}
    polls = sum(1 for s in spans if s.name == "client.poll"
                and s.parent is not None
                and by_id.get(s.parent) is not None
                and by_id[s.parent].name == "client.wait")
    loop_total = sum(t.incl.get(f"loop.{k}", 0.0) for k in
                     ("prop1", "prop2", "prop3", "prop4", "prop5", "prop6",
                      "full"))
    wasted = sum(s.duration for s in spans if s.layer == "loop"
                 and s.meta is not None and not s.meta["settled"])
    op_time = t.incl.get("op", 0.0)
    lp_calls = t.count.get("lp.solve_lp", 0)
    saved = counts.get("lp_solves_saved", 0.0)
    values = {
        "lp.calls": lp_calls / n,
        "lp.solve_s": t.incl.get("lp.solve_lp", 0.0) / n,
        "lp.linprog_s": t.incl.get("lp.linprog", 0.0) / n,
        "lp.highs_run_s": t.incl.get("lp.highs_run", 0.0) / n,
        "lp.infeasible_ratio": _ratio(c.get("lp.infeasible", 0.0), lp_calls),
        "encoding.build_lp_calls": t.count.get("encoding.build_lp", 0) / n,
        "encoding.build_lp_s": t.incl.get("encoding.build_lp", 0.0) / n,
        "encoding.cache_hits": cache_delta.get("hits", 0) / n,
        "encoding.cache_misses": cache_delta.get("misses", 0) / n,
        "screen.calls": t.count.get("screen.node_bounds", 0) / n,
        "screen.nodes": c.get("screen.nodes", 0.0) / n,
        "screen.s": t.incl.get("screen.node_bounds", 0.0) / n,
        "screen.containment_s": t.incl.get("screen.containments", 0.0) / n,
        "bab.nodes": c.get("bab.nodes", 0.0) / n,
        "bab.rounds": c.get("bab.rounds", 0.0) / n,
        "bab.lp_per_node": _ratio(c.get("lp.optimal", 0.0),
                                  c.get("bab.nodes", 0.0)),
        "bab.self_s": t.self.get("bab.maximize", 0.0) / n,
        "loop.wasted_ratio": _ratio(wasted, loop_total),
        "certs.hits": counts.get("cert_hits", 0.0) / n,
        "certs.nodes_reused": counts.get("nodes_reused", 0.0) / n,
        "certs.lp_solves_saved": saved / n,
        "certs.lp_saved_ratio": _ratio(saved,
                                       saved + counts.get("cert_lp_solves", 0.0)),
        "certs.load_s": t.incl.get("certs.load", 0.0) / n,
        "certs.validate_s": t.incl.get("certs.validate", 0.0) / n,
        "certs.reverify_s": t.incl.get("certs.reverify", 0.0) / n,
        "certs.record_s": t.incl.get("certs.record", 0.0) / n,
        "wire.encode_s": t.self.get("wire.encode", 0.0) / n,
        "wire.decode_s": t.self.get("wire.decode", 0.0) / n,
        "wire.bytes_per_job": c.get("wire.bytes", 0.0) / n,
        "store.calls": (t.count.get("store.call", 0)
                        + t.count.get("store.cert", 0)) / n,
        "store.s": t.layer_self.get("store", 0.0) / n,
        "store.cert_s": t.incl.get("store.cert", 0.0) / n,
        "serve.queue_wait_ms_p50": _median(serve.get("queue_wait_ms", [])),
        "serve.exec_ms_p50": _median(serve.get("exec_ms", [])),
        "serve.notify_ms_p50": _median(serve.get("notify_ms", [])),
        "serve.cache_hit_ratio": _ratio(counts.get("cache_hits", 0.0), n),
        "client.requests_per_job": t.count.get("client.request", 0) / n,
        "client.polls_per_job": polls / n,
        "client.request_ms_p50": 1e3 * _median(
            [s.duration for s in spans if s.name == "client.request"]),
        "trace.coverage": 1.0 - _ratio(t.self.get("op", 0.0), op_time),
        "trace.unwrapped_s": t.self.get("op", 0.0) / n,
        "trace.overhead": overhead,
    }
    for strategy in ("prop3", "prop1", "prop4", "full"):
        values[f"loop.rounds.{strategy}"] = counts.get(f"wins.{strategy}", 0.0) / n
    for strategy in ("prop3", "prop1", "prop2", "prop4", "full"):
        values[f"loop.attempt_s.{strategy}"] = t.incl.get(f"loop.{strategy}", 0.0) / n
    for layer in SELF_LAYERS:
        values[f"self_s.{layer}"] = t.layer_self.get(layer, 0.0) / n
    return values


def scratch_coverage(tracer: Tracer) -> Optional[float]:
    """Share of op wall time spent in the lp, encoding, screen and bab
    layers (the coverage gate on vehicle_scratch)."""
    t = _Totals(tracer.spans)
    op_time = t.incl.get("op", 0.0)
    if not op_time:
        return None
    return sum(t.layer_self.get(layer, 0.0) for layer in SCRATCH_LAYERS) / op_time
