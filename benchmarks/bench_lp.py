"""Node-LP kernel: one branch-and-bound node LP solved three ways.

On the 8-32-32-2 ReLU net (138 variables, 64 unstable neurons over the
unit box) each child node of a branch-and-bound-style frontier is solved

* ``linprog_s`` -- ``build_lp`` + ``scipy.optimize.linprog``, the path
  for one-off LPs and the kernel's test oracle;
* ``cold_s`` -- on the persistent HiGHS kernel of
  :mod:`repro.exact.highs`, without a starting basis;
* ``hot_s`` -- on the kernel, hot-started from the parent's optimal
  basis: what every branch-and-bound child actually pays.

The gate: all three reach the same status and the same objective (within
1e-7 relative) on every node.

Run standalone for the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_lp.py [output.json] [--smoke]

(``--smoke`` shrinks the frontier to CI-smoke size) or through pytest
for the human-readable report, which also gates the hot-started kernel
at >= 2x faster than ``linprog``.
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

from repro.domains import Box
from repro.exact import NetworkEncoding
from repro.exact.highs import NodeKernel
from repro.exact.lp import solve_system
from repro.nn import random_relu_network

from benchmarks.common import emit_json

DIMS = [8, 32, 32, 2]
NUM_NODES = 40
SMOKE_NODES = 6
REPEATS = 3


def _frontier(enc, rng, num_nodes, max_depth=8):
    """``(parent, child)`` phase maps: the child fixes one more unstable
    neuron than its parent, like a branching step."""
    unstable = enc.unstable_neurons()
    pairs = []
    while len(pairs) < num_nodes:
        depth = int(rng.integers(0, max_depth))
        picks = rng.choice(len(unstable), size=depth + 1, replace=False)
        parent = {unstable[int(j)]: int(rng.choice((-1, 1)))
                  for j in picks[:-1]}
        child = dict(parent)
        child[unstable[int(picks[-1])]] = int(rng.choice((-1, 1)))
        pairs.append((parent, child))
    return pairs


def _best_avg(fn, items, repeats=REPEATS):
    """Best-of-``repeats`` mean seconds of ``fn`` over ``items``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        best = min(best, (time.perf_counter() - start) / len(items))
    return best


def run_node_lp_suite(num_nodes=NUM_NODES, seed=0):
    """Per-node-LP timings of ``linprog``, the cold and the hot kernel,
    plus the objective-agreement gate's inputs."""
    rng = np.random.default_rng(seed)
    network = random_relu_network(DIMS, seed=0, weight_scale=1.0)
    box = Box(-np.ones(DIMS[0]), np.ones(DIMS[0]))
    enc = NetworkEncoding(network, box)
    cost = -enc.output_objective(np.array([1.0, -0.5]))
    kernel = NodeKernel(enc.build_lp())
    nodes = []
    for parent, child in _frontier(enc, rng, num_nodes):
        parent_res = kernel.solve(cost, *enc.node_bounds(parent))
        if parent_res.optimal:  # an infeasible parent has no children
            nodes.append((child, parent_res.basis))

    def linprog(node):
        return solve_system(cost, enc.build_lp(node[0]))

    def cold(node):
        return kernel.solve(cost, *enc.node_bounds(node[0]))

    def hot(node):
        return kernel.solve(cost, *enc.node_bounds(node[0]), basis=node[1])

    results = {name: [fn(node) for node in nodes]
               for name, fn in (("linprog", linprog), ("cold", cold),
                                ("hot", hot))}
    max_rel_diff = 0.0
    statuses_agree = True
    for ref, *others in zip(results["linprog"], results["cold"],
                            results["hot"]):
        for res in others:
            statuses_agree &= res.status == ref.status
            if ref.optimal and res.optimal:
                max_rel_diff = max(max_rel_diff, abs(res.value - ref.value)
                                   / max(1.0, abs(ref.value)))
    timings = {f"{name}_s": _best_avg(fn, nodes)
               for name, fn in (("linprog", linprog), ("cold", cold),
                                ("hot", hot))}
    system = enc.build_lp()
    return {
        "net": "-".join(map(str, DIMS)),
        "num_vars": system.num_vars,
        "num_rows": system.num_constraints,
        "num_unstable": len(enc.unstable_neurons()),
        "nodes": len(nodes),
        **timings,
        "hot_speedup_vs_linprog": timings["linprog_s"] / timings["hot_s"],
        "cold_speedup_vs_linprog": timings["linprog_s"] / timings["cold_s"],
        "statuses_agree": bool(statuses_agree),
        "max_rel_objective_diff": max_rel_diff,
    }


def _check(row):
    assert row["nodes"] > 0
    assert row["statuses_agree"]
    assert row["max_rel_objective_diff"] <= 1e-7


def test_report_node_lp(capsys):
    row = run_node_lp_suite()
    with capsys.disabled():
        print(f"\nOne node LP on {row['net']} ({row['num_vars']} vars, "
              f"{row['num_rows']} rows), mean of {row['nodes']} children")
        for name in ("linprog", "cold", "hot"):
            print(f"  {name:>8}: {1e3 * row[name + '_s']:7.3f} ms")
        print(f"  hot-started kernel {row['hot_speedup_vs_linprog']:.1f}x "
              "faster than linprog")
    _check(row)
    assert row["hot_speedup_vs_linprog"] >= 2.0


def main(path=None, smoke=False):
    row = run_node_lp_suite(SMOKE_NODES if smoke else NUM_NODES)
    _check(row)
    emit_json("bench_lp", {"smoke": smoke, "node_lp": row}, path=path)


if __name__ == "__main__":
    argv = [a for a in sys.argv[1:]]
    smoke = "--smoke" in argv
    argv = [a for a in argv if a != "--smoke"]
    main(argv[0] if argv else None, smoke=smoke)
