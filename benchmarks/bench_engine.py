"""The repro.api facade: dispatch overhead and submit throughput.

Two questions about the unified engine (PR 4):

1. *Facade overhead* -- ``engine.verify(spec)`` wraps the same internal
   implementation the legacy free functions now shim to; how much does
   the Spec dispatch + provenance bookkeeping cost per call?  Measured on
   the fig2 network (where the solve itself is microseconds, i.e. the
   worst case for relative overhead) as engine-vs-direct wall time.
2. *Submit throughput* -- ``engine.submit(bag)`` batches independent
   specs onto the shared pool; how does a mixed bag (maximize /
   containment / range / threshold) scale with the config's worker
   count?  Verdicts must be identical to sequential execution (asserted,
   not just reported).

Run standalone for the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_engine.py [output.json] [--smoke]

(``--smoke`` shrinks repeats and the bag to CI-smoke size).
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # standalone: make src/ and repo root importable
    _ROOT = Path(__file__).resolve().parent.parent
    for entry in (str(_ROOT / "src"), str(_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

from repro.api import (
    ContainmentSpec,
    MaximizeSpec,
    OutputRangeSpec,
    ThresholdSpec,
    VerificationEngine,
    VerifyConfig,
)
from repro.domains import Box
from repro.exact import clear_encoding_cache
from repro.exact.bab import _maximize_output
from repro.nn import fig2_network, random_relu_network

from benchmarks.common import emit_json

OVERHEAD_CALLS = 300
SMOKE_OVERHEAD_CALLS = 30
BAG_REPEAT = 6
SMOKE_BAG_REPEAT = 2
WORKER_COUNTS = (1, 2, 4, 8)


def _timed(fn, calls):
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def bench_facade_overhead(calls=OVERHEAD_CALLS):
    """Per-call engine.verify vs direct internal call on a tiny solve."""
    network = fig2_network()
    box = Box(-np.ones(2), np.array([1.1, 1.1]))
    c = np.array([1.0])
    config = VerifyConfig()
    engine = VerificationEngine(config)
    spec = MaximizeSpec(network=network, input_box=box, objective=c)

    # Warm the encoding cache so both sides measure pure dispatch + solve.
    _maximize_output(network, box, c, config=config)
    direct_s = _timed(lambda: _maximize_output(network, box, c,
                                               config=config), calls)
    engine_s = _timed(lambda: engine.verify(spec), calls)
    build_s = _timed(lambda: MaximizeSpec(network=network, input_box=box,
                                          objective=c), calls)
    return {
        "calls": calls,
        "direct_us": direct_s * 1e6,
        "engine_us": engine_s * 1e6,
        "spec_build_us": build_s * 1e6,
        "overhead_us": (engine_s - direct_s) * 1e6,
        "overhead_pct": 100.0 * (engine_s - direct_s) / direct_s,
    }


def _mixed_bag(copies=3, seed=7):
    """A bag of independent mixed specs over a small network (sized so
    every exact solve runs to optimality well inside the node budget, so
    the bag exercises complete searches)."""
    network = random_relu_network([4, 12, 8, 2], seed=seed, weight_scale=0.4)
    box = Box(-np.ones(4), np.ones(4))
    c = np.array([1.0, -1.0])
    wide = Box(-200 * np.ones(2), 200 * np.ones(2))
    bag = []
    for _ in range(copies):
        bag.extend([
            MaximizeSpec(network=network, input_box=box, objective=c),
            ContainmentSpec(network=network, input_box=box, target=wide,
                            method="exact"),
            OutputRangeSpec(network=network, input_box=box),
            ThresholdSpec(network=network, input_box=box, objective=c,
                          threshold=500.0),
        ])
    return bag


def _verdict_fingerprint(verdict):
    if hasattr(verdict, "output_range") and verdict.output_range is not None:
        return ("range", tuple(verdict.output_range.lower),
                tuple(verdict.output_range.upper))
    result = verdict.result
    if verdict.spec_type == "containment":
        return (verdict.spec_type, verdict.holds, result.method,
                result.violation, result.lp_solves)
    return (verdict.spec_type, verdict.holds, result.status,
            result.upper_bound, result.lp_solves)


def bench_submit_throughput(copies=3, repeats=BAG_REPEAT):
    """Submit a mixed bag at each worker count; assert verdict identity."""
    bag = _mixed_bag(copies=copies)
    reference = None
    sweep = []
    for workers in WORKER_COUNTS:
        engine = VerificationEngine(VerifyConfig(workers=workers))
        best_s = float("inf")
        verdicts = None
        for _ in range(repeats):
            clear_encoding_cache()  # every round pays the same build cost
            start = time.perf_counter()
            verdicts = engine.submit(bag)
            best_s = min(best_s, time.perf_counter() - start)
        fingerprints = [_verdict_fingerprint(v) for v in verdicts]
        # Every worker count runs one search trajectory by construction,
        # so answers, bounds and LP counts must agree bitwise.
        if reference is None:
            reference = fingerprints
        else:
            assert fingerprints == reference, (
                f"submit verdicts changed at workers={workers}")
        sweep.append({
            "workers": workers,
            "specs": len(bag),
            "best_s": best_s,
            "specs_per_s": len(bag) / best_s,
        })
    base = sweep[0]["best_s"]
    for row in sweep:
        row["speedup_vs_serial"] = base / row["best_s"]
    return {"bag": len(bag), "sweep": sweep, "verdicts_identical": True}


def main(argv):
    smoke = "--smoke" in argv
    argv = [a for a in argv if a != "--smoke"]
    out = argv[0] if argv else None
    results = {
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "facade_overhead": bench_facade_overhead(
            SMOKE_OVERHEAD_CALLS if smoke else OVERHEAD_CALLS),
        "submit_throughput": bench_submit_throughput(
            copies=1 if smoke else 3,
            repeats=SMOKE_BAG_REPEAT if smoke else BAG_REPEAT),
    }
    emit_json("bench_engine", results, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
