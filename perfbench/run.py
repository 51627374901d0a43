"""Run the benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``BENCHMARK.json`` and
``perfbench/workloads.py``): ``vehicle_scratch``, ``vehicle_incremental``,
``vehicle_recertify``, ``served_mix``.

With ``--trace 0`` the run sets the workload up ``SETUP_REPEATS`` times,
runs ops for ``--seconds`` and prints the end-to-end metrics.  With
``--trace 1`` it runs half the time untraced and half with every layer
wrapped by the span tracer, and prints the per-layer metrics.  Every op is
checked against a reference afterwards.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Self-test: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("vehicle_scratch", "vehicle_incremental",
                  "vehicle_recertify", "served_mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from perfbench.harness import run_workload

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
