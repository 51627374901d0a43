"""Parallel frontier branch and bound: wall-clock vs worker count.

Measures the tentpole of the frontier search on a width-64 threshold
workload (the scale where one node LP costs enough for concurrency to
matter): prove ``max c @ f(x) <= threshold`` with the frontier search at
``workers in {1, 2, 4, 8}``.  ``workers=1`` solves each round's LPs inline
and is the baseline; the wider runs add pure LP concurrency on top (the
trajectory is identical across worker counts by construction, so their
statuses must be byte-identical and their optima bitwise equal).

The speedup headline is ``speedup_vs_1`` at ``workers=4``.  Wall-clock
numbers are only meaningful with real cores: the record carries
``cpu_count`` so single-core CI smoke runs are not misread as regressions
(the *correctness* cross-checks run everywhere and always assert).

Run standalone for the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_parallel_bab.py [output.json] [--smoke]

(``--smoke`` shrinks the width and node budget to CI-smoke size) or
through pytest for the human-readable report plus the determinism
gates.
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

from repro.domains import Box
from repro.exact import BaBSolver, NetworkEncoding

from benchmarks.common import emit_json

INPUT_DIM = 8
WIDTH = 64
SMOKE_WIDTH = 16
WORKER_COUNTS = (1, 2, 4, 8)
REPEATS = 3


def _workload(width, probe_limit, seed=1, weight_scale=0.4):
    """The width-``width`` threshold workload: a threshold just above the
    probe run's sound upper bound, so proving it demands search effort
    comparable to the probe's -- and the sweep's 3x node budget guarantees
    every configuration closes with ``threshold_proved``."""
    from repro.nn import random_relu_network

    network = random_relu_network([INPUT_DIM, width, width, 2], seed=seed,
                                  weight_scale=weight_scale)
    box = Box(-np.ones(INPUT_DIM), np.ones(INPUT_DIM))
    c = np.array([1.0, -1.0])
    probe = BaBSolver(network, box, node_limit=probe_limit).maximize(c)
    threshold = probe.upper_bound + max(1e-3, 5e-3 * abs(probe.upper_bound))
    return network, box, c, threshold


def _best_of(fn, repeats=REPEATS):
    best_s = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - start)
    return result, best_s


def run_worker_sweep(width=WIDTH, probe_limit=500, repeats=REPEATS,
                     worker_counts=WORKER_COUNTS):
    """The frontier search per worker count; speedups are against the
    inline ``workers=1`` run (measured first, whatever ``worker_counts``
    holds)."""
    network, box, c, threshold = _workload(width, probe_limit)
    node_limit = 3 * probe_limit

    def solve(workers):
        # A cold encoding per run keeps base assembly inside the timed
        # region for every configuration equally.
        encoding = NetworkEncoding(network, box)
        solver = BaBSolver(network, box, encoding=encoding,
                           node_limit=node_limit, workers=workers)
        return solver.maximize(c, threshold=threshold)

    timed = {workers: _best_of(lambda w=workers: solve(w), repeats)
             for workers in sorted({1, *worker_counts})}
    base_s = timed[1][1]
    rows = []
    for workers, (res, wall_s) in timed.items():
        rows.append({
            "workers": workers,
            "status": res.status,
            "upper_bound": res.upper_bound,
            "lp_solves": res.lp_solves,
            "nodes": res.nodes,
            "rounds": res.rounds,
            "max_batch": res.max_batch,
            "mean_batch": res.mean_batch,
            "wall_s": wall_s,
            "speedup_vs_1": base_s / wall_s if wall_s > 0
            else float("inf"),
        })
    return {
        "width": width,
        "threshold": threshold,
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }


def check_determinism(record):
    """The correctness gates every run must satisfy, any machine."""
    rows = record["rows"]
    # Byte-identical verdicts and bitwise-identical bounds across worker
    # counts (the trajectory does not depend on the pool width) ...
    assert len({r["status"] for r in rows}) == 1, rows
    assert len({r["upper_bound"] for r in rows}) == 1, rows
    assert len({r["lp_solves"] for r in rows}) == 1, rows
    # ... and a proved bound that sits below the threshold.
    r = rows[0]
    if r["status"] == "threshold_proved":
        assert r["upper_bound"] <= record["threshold"] + 1e-6, r


def test_report_parallel_bab(capsys):
    record = run_worker_sweep(width=SMOKE_WIDTH, probe_limit=60, repeats=1,
                              worker_counts=(1, 2, 4))
    lines = [f"\nParallel frontier BaB, width {record['width']} "
             f"(cpu_count={record['cpu_count']})",
             f"  {'workers':>7} | {'status':>17} | "
             f"{'lp_solves':>9} | {'wall [ms]':>9} | {'speedup':>7}"]
    for r in record["rows"]:
        lines.append(
            f"  {r['workers']:>7} | {r['status']:>17} | "
            f"{r['lp_solves']:>9} | {1e3 * r['wall_s']:>9.1f} | "
            f"{r['speedup_vs_1']:>6.2f}x")
    with capsys.disabled():
        print("\n".join(lines))
    check_determinism(record)


def main(path=None, smoke=False):
    record = run_worker_sweep(
        width=SMOKE_WIDTH if smoke else WIDTH,
        probe_limit=60 if smoke else 500,
        repeats=1 if smoke else REPEATS,
        worker_counts=(1, 2, 4) if smoke else WORKER_COUNTS,
    )
    check_determinism(record)
    payload = {"smoke": smoke, "worker_sweep": record}
    emit_json("bench_parallel_bab", payload, path=path)


if __name__ == "__main__":
    argv = [a for a in sys.argv[1:]]
    smoke = "--smoke" in argv
    argv = [a for a in argv if a != "--smoke"]
    main(argv[0] if argv else None, smoke=smoke)
