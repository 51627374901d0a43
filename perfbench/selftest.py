"""The benchmark's own tests: tracer hygiene and seeded inputs.

    python3 perfbench/selftest.py            # from the repository root
    python3 -m pytest perfbench/selftest.py  # the same, under pytest

Takes about half a minute: one traced from-scratch verification of the
vehicle head, plus input generation for every workload.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from perfbench.harness import tail  # noqa: E402
from perfbench.layers import TARGETS, scratch_coverage  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, VehicleScratch  # noqa: E402


class _Boom(Exception):
    pass


def _originals():
    return [(t.owner(), t.attr, vars(t.owner())[t.attr]) for t in TARGETS]


def test_wrappers_restore_on_error():
    originals = _originals()
    tracer = Tracer()
    try:
        with tracer.installed(TARGETS):
            assert all(vars(owner)[attr] is not raw
                       for owner, attr, raw in originals)
            raise _Boom()
    except _Boom:
        pass
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr} not restored"


def test_traced_scratch_matches_untraced_and_is_covered():
    wl = VehicleScratch()
    state = wl.setup(0)
    plain = wl.op(state, 0)
    tracer = Tracer()
    with tracer.installed(TARGETS):
        tracer.set_op(0)
        with tracer.span("op"):
            traced = wl.op(state, 0)
    assert traced.decision == plain.decision
    assert traced.detail == plain.detail  # same LP and node counts
    (op,) = [s for s in tracer.spans if s.name == "op"]
    layer_self = sum(s.self_s for s in tracer.spans if s.name != "op")
    assert 0.0 < layer_self <= op.duration
    assert all(s.op == 0 for s in tracer.spans)
    coverage = scratch_coverage(tracer)
    assert coverage >= 0.95, f"wrapped layers cover only {coverage:.1%}"


def test_same_seed_gives_identical_inputs():
    for wl in (cls() for cls in WORKLOADS.values()):
        first = wl.inputs_json(wl.inputs(0))
        assert first == wl.inputs_json(wl.inputs(0)), wl.name
        assert first != wl.inputs_json(wl.inputs(1)), wl.name


def test_tail_has_ten_samples_beyond_it():
    assert tail([float(i) for i in range(5)])[0] == 2.0
    value, label = tail([float(i) for i in range(1000)])
    assert label == "p99" and 988 < value < 990


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok  {name}")
