"""Set-up, timed op loop, end-to-end and per-layer metrics of one run."""

from __future__ import annotations

import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy
from scipy.optimize import linprog

from repro.exact.encoding import clear_encoding_cache, encoding_cache_stats

from perfbench.layers import PER_LAYER, TARGETS, layer_metrics
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, OpRecord, ServedMix, Workload, failed_op

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: The tail is the highest percentile with this many samples beyond it.
TAIL_SAMPLES = 10

#: ``(name, unit)`` of every end-to-end metric, in print order.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("peak_rss_mb", "MB"))


class HostSpeed:
    """A fixed CPU kernel, timed around set-ups and ops to scale out the
    speed of a shared host.

    The vehicle workloads are CPU-bound (Python, NumPy and HiGHS), and on
    a shared host the same op can take twice as long from one minute to
    the next.  Their times are reported host-normalised: measured
    seconds x ``REF_S`` / (kernel seconds measured around the interval).
    The kernel, a fixed dense LP solved through scipy's HiGHS, has the
    same mix of Python wrapper and native solve as the vehicle ops and
    calls no program code, so no change to the program can move it.
    """

    #: Nominal kernel time: normalised times read as on a host where the
    #: kernel takes this long.
    REF_S = 0.15
    SOLVES = 24

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(120, 60))
        self._b = rng.random(120) + 1.0
        self._c = rng.normal(size=60)

    def kernel_s(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.SOLVES):
            linprog(self._c, A_ub=self._a, b_ub=self._b, bounds=(-1.0, 1.0),
                    method="highs")
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        return 2.0 * self.REF_S / (before + after)


def run_sequential(wl: Workload, state, seconds: float,
                   tracer: Optional[Tracer] = None,
                   speed: Optional[HostSpeed] = None
                   ) -> Tuple[List[OpRecord], float]:
    """Run ops back to back until ``seconds`` have passed (the op in
    flight at the deadline completes and counts).  With ``speed`` each
    op is bracketed by kernel timings and records its host scale."""
    records: List[OpRecord] = []
    start = time.perf_counter()
    kernel = speed.kernel_s() if speed is not None else 0.0
    for index in itertools.count():
        span = None
        if tracer is not None:
            tracer.set_op(index)
            span = tracer.open("op")
        t0 = time.perf_counter()
        try:
            rec = wl.op(state, index)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            rec = failed_op(exc)
        finally:
            if span is not None:
                tracer.close(span)
        rec.latency_s = time.perf_counter() - t0
        if speed is not None:
            after = speed.kernel_s()
            rec.scale = speed.scale(kernel, after)
            kernel = after
        records.append(rec)
        if time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start


def run_ops(wl: Workload, state, seconds: float,
            tracer: Optional[Tracer] = None,
            speed: Optional[HostSpeed] = None
            ) -> Tuple[List[OpRecord], float]:
    if wl.concurrent:
        return wl.run(state, seconds, tracer)
    return run_sequential(wl, state, seconds, tracer, speed)


def warm_up(wl: Workload, state) -> None:
    """Untimed ops, so first-call costs (lazy imports, allocator growth)
    stay out of the measured ops."""
    for index in range(wl.warm_up_ops):
        wl.op(state, index)


def tail(latencies_ms: List[float]) -> Tuple[float, str]:
    """The highest ladder percentile with at least ``TAIL_SAMPLES``
    samples beyond it.  A run too short to resolve any tail reports its
    median: the maximum of a handful of multi-second ops is mostly host
    noise, and the median at least stays comparable across runs."""
    n = len(latencies_ms)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_SAMPLES:
            return float(np.percentile(latencies_ms, pct)), f"p{pct:g}"
    return statistics.median(latencies_ms), "p50 (too few ops for a tail)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(),
            "source_sha256": _source_digest()}


def _timed_setup(wl: Workload, seed: int, speed: Optional[HostSpeed] = None):
    """Set up once; returns the state and the (host-normalised) seconds."""
    clear_encoding_cache()  # every set-up starts as cold as the first
    gc.collect()
    before = speed.kernel_s() if speed is not None else 0.0
    t0 = time.perf_counter()
    state = wl.setup(seed)
    took = time.perf_counter() - t0
    if speed is not None:
        took *= speed.scale(before, speed.kernel_s())
    return state, took


def _sum_counts(records: List[OpRecord]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for rec in records:
        for key, value in rec.counts.items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


def _check(wl: Workload, state, records: List[OpRecord]) -> Tuple[int, List[str]]:
    failed, problems = wl.check(state, records)
    for problem in problems:
        print(f"GUARD FAILED [{wl.name}]: {problem}", file=sys.stderr)
    for rec in records:
        if rec.error is not None:
            print(f"OP FAILED [{wl.name}]: {rec.error}", file=sys.stderr)
    return failed, problems


def untraced_run(wl: Workload, seed: int, seconds: float) -> Dict:
    speed = HostSpeed() if wl.cpu_bound else None
    wl.fixture(seed)
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            wl.close(state)
        state, took = _timed_setup(wl, seed, speed)
        setups.append(took)
    try:
        warm_up(wl, state)
        records, wall = run_ops(wl, state, seconds, speed=speed)
        t0 = time.perf_counter()
        failed, problems = _check(wl, state, records)
        check_s = time.perf_counter() - t0
    finally:
        wl.close(state)
    latencies = [rec.latency_s * rec.scale * 1e3 for rec in records]
    ok = sum(1 for rec in records if rec.error is None)
    tail_ms, tail_label = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        # Concurrent ops overlap, so their rate is over wall time; a
        # sequential run's rate is over its (normalised) op time.
        "ops_per_s": ok / (wall if wl.concurrent else sum(latencies) / 1e3),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"  set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}; "
          f"reference check {check_s:.3f} s")
    if speed is not None:
        print("  host-normalised times; op scales "
              + ", ".join(f"{rec.scale:.3f}" for rec in records))
    print(f"  op_ms_tail is {tail_label} of {len(latencies)} ops; "
          f"fail_rate {failed}/{len(records)} = {failed / len(records):.4f}")
    return {"records": records, "failed": failed, "problems": problems,
            "metrics": {name: (values[name], unit) for name, unit in END_TO_END}}


def traced_run(wl: Workload, seed: int, seconds: float) -> Dict:
    """Half the time untraced, half traced: per-layer metrics from the
    traced half, overhead from the ratio of the two op rates."""
    wl.fixture(seed)
    state, _ = _timed_setup(wl, seed)
    tracer = Tracer()
    try:
        warm_up(wl, state)
        plain, plain_wall = run_ops(wl, state, seconds / 2)
        before = encoding_cache_stats()
        with tracer.installed(TARGETS):
            traced, traced_wall = run_ops(wl, state, seconds / 2, tracer)
        after = encoding_cache_stats()
        failed, problems = _check(wl, state, plain + traced)
    finally:
        wl.close(state)
    plain_rate = len(plain) / plain_wall
    traced_rate = len(traced) / traced_wall
    serve = ServedMix.serve_timings(traced) if wl.concurrent else {}
    values = layer_metrics(
        tracer, len(traced), _sum_counts(traced), serve,
        {k: after[k] - before.get(k, 0) for k in after},
        plain_rate / traced_rate - 1.0)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"{wl.name}-seed{seed}.trace.json"
    tracer.write(trace_path)
    print(f"  {len(tracer.spans)} spans written to "
          f"{trace_path.relative_to(ROOT)}; traced {len(traced)} ops "
          f"({traced_rate:.3f}/s) vs untraced {len(plain)} ops "
          f"({plain_rate:.3f}/s)")
    return {"records": plain + traced, "failed": failed, "problems": problems,
            "metrics": {name: (values[name], unit)
                        for name, unit, _, _ in PER_LAYER}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload and return the result object printed last."""
    wl = WORKLOADS[name]()
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    result = (traced_run if trace else untraced_run)(wl, seed, seconds)
    moves = {row[0]: row[3] for row in PER_LAYER}
    for metric, (value, unit) in result["metrics"].items():
        hint = f"   moves: {moves[metric]}" if trace else ""
        print(f"  {metric:<28} {value:>14.6g} {unit:<9}{hint}")
    print("record: " + json.dumps(environment(name, seed, seconds, trace),
                                  sort_keys=True))
    records = result["records"]
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": len(records),
        "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in result["metrics"].items()},
    }
