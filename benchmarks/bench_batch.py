"""Batched vs per-box propagation, and the BaB interval-pruning payoff.

Measures the tentpole of the batched engine at ``N ∈ {1, 16, 64, 256}``:
one stacked ``propagate_batch`` call against the equivalent per-box
``propagate`` loop, for every batched domain.  Also replays the Fig. 2
branch-and-bound workload with batched interval pruning on/off to record
the ``lp_solves`` saving.

Run standalone for the machine-readable record (later PRs track the perf
trajectory from this JSON)::

    PYTHONPATH=src python benchmarks/bench_batch.py [output.json]

or through pytest for the human-readable report and the regression gates
(batched box path >= 5x the loop at N=256; strictly fewer LP solves).
"""

import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # standalone: make src/ and repo root importable
    _ROOT = Path(__file__).resolve().parent.parent
    for entry in (str(_ROOT / "src"), str(_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

from repro.api import MaximizeSpec, VerificationEngine, VerifyConfig
from repro.domains import Box, BoxBatch, get_batched_propagator, get_propagator
from repro.nn import fig2_network, random_relu_network

from benchmarks.common import emit_json

BATCH_SIZES = (1, 16, 64, 256)
DOMAINS = ("box", "symbolic", "zonotope")
NETWORK_DIMS = [16, 32, 24, 2]


def _workload(n: int, seed: int = 0):
    """N sub-boxes of a base domain, as a branch-and-bound frontier would
    produce them: repeated bisection of the widest dimension."""
    rng = np.random.default_rng(seed)
    base = Box(-0.5 * np.ones(NETWORK_DIMS[0]), 0.5 * np.ones(NETWORK_DIMS[0]))
    boxes = [base]
    while len(boxes) < n:
        boxes.extend(boxes.pop(int(rng.integers(len(boxes)))).split())
    return boxes[:n]


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_propagation_suite():
    """Batched vs per-box-loop timings; returns the JSON-ready payload."""
    network = random_relu_network(NETWORK_DIMS, seed=0, weight_scale=0.5)
    rows = []
    for domain in DOMAINS:
        scalar = get_propagator(domain)
        batched = get_batched_propagator(domain)
        for n in BATCH_SIZES:
            boxes = _workload(n)
            batch = BoxBatch.from_boxes(boxes)
            loop_s = _best_of(lambda: [scalar.propagate(network, b)
                                       for b in boxes])
            batch_s = _best_of(lambda: batched.propagate(network, batch))
            rows.append({
                "domain": domain,
                "batch_size": n,
                "per_box_loop_s": loop_s,
                "batched_s": batch_s,
                "speedup": loop_s / batch_s if batch_s > 0 else float("inf"),
            })
    return rows


def run_bab_pruning():
    """Fig. 2 workload: lp_solves with batched interval pruning on/off."""
    network = fig2_network()
    enlarged = Box(-np.ones(2), np.array([1.1, 1.1]))
    spec = MaximizeSpec(network=network, input_box=enlarged,
                        objective=np.array([1.0]))
    off, on = (VerificationEngine(VerifyConfig(interval_prune=prune))
               .verify(spec).result for prune in (False, True))
    return {
        "workload": "bench_fig2 maximize n4 over [-1,1.1]^2",
        "optimum_pruning_off": off.upper_bound,
        "optimum_pruning_on": on.upper_bound,
        "lp_solves_pruning_off": off.lp_solves,
        "lp_solves_pruning_on": on.lp_solves,
        "lp_solves_saved": off.lp_solves - on.lp_solves,
    }


def _speedup(rows, domain, n):
    return next(r["speedup"] for r in rows
                if r["domain"] == domain and r["batch_size"] == n)


def test_report_batch_speedup(capsys):
    rows = run_propagation_suite()
    lines = ["\nBatched vs per-box propagation "
             f"(net {'-'.join(map(str, NETWORK_DIMS))})",
             f"  {'domain':>9} | {'N':>4} | {'loop [ms]':>10} | "
             f"{'batched [ms]':>12} | {'speedup':>8}"]
    for r in rows:
        lines.append(
            f"  {r['domain']:>9} | {r['batch_size']:>4} | "
            f"{1e3 * r['per_box_loop_s']:>10.3f} | "
            f"{1e3 * r['batched_s']:>12.3f} | {r['speedup']:>7.1f}x")
    with capsys.disabled():
        print("\n".join(lines))
    # The acceptance gate: stacked interval arithmetic must clearly beat
    # the per-box loop once there is real batch width.
    assert _speedup(rows, "box", 256) >= 5.0
    for domain in DOMAINS:
        assert _speedup(rows, domain, 256) > 1.0


def test_report_bab_interval_pruning(capsys):
    stats = run_bab_pruning()
    with capsys.disabled():
        print("\nBaB batched interval pruning (Fig. 2 workload)")
        print(f"  lp_solves: {stats['lp_solves_pruning_off']} -> "
              f"{stats['lp_solves_pruning_on']} "
              f"(saved {stats['lp_solves_saved']})")
    assert stats["lp_solves_pruning_on"] < stats["lp_solves_pruning_off"]
    assert stats["optimum_pruning_on"] == \
        __import__("pytest").approx(stats["optimum_pruning_off"], abs=1e-9)


def main(path=None, smoke=False):
    global BATCH_SIZES
    if smoke:
        BATCH_SIZES = (1, 16)  # CI smoke: exercise every path, tiny sizes
    payload = {
        "smoke": smoke,
        "propagation": run_propagation_suite(),
        "bab_pruning": run_bab_pruning(),
    }
    emit_json("bench_batch", payload, path=path)


if __name__ == "__main__":
    _argv = [a for a in sys.argv[1:] if a != "--smoke"]
    main(_argv[0] if _argv else None, smoke="--smoke" in sys.argv[1:])
