"""Incremental abstraction fixing (Section IV.C) vs full re-verification.

When a tuning step is too large for Proposition 4 (exactly one state
abstraction breaks), the paper's repair replaces the broken ``S_{i+1}``,
propagates forward, and tries to re-enter the old proof.  This bench
constructs that exact scenario -- a targeted bias bump on one middle block
of the vehicle head -- and compares the repair cost against redoing the
complete original verification.

Also measures the genuinely-parallel execution of Proposition 4's layer
checks on a thread pool (HiGHS releases the GIL during LP solves), i.e.
the claim behind Table I's footnote 3.
"""

import numpy as np
import pytest

from benchmarks.common import STATE_BUFFER
from repro.api import (ContainmentSpec, PropositionSpec, VerificationEngine,
                       VerifyConfig)
from repro.core import incremental_fix, run_parallel

#: Local reuse checks and the full run get the budgets they always had.
LOCAL = VerificationEngine(VerifyConfig(node_limit=20000))
FULL = VerificationEngine(VerifyConfig(node_limit=120000,
                                       full_node_limit=120000))


@pytest.fixture(scope="module")
def broken_version(vehicle_bundle):
    """A version whose middle block drifted past its state abstraction."""
    artifacts = vehicle_bundle.baselines[0].artifacts
    broken = vehicle_bundle.nets[0].copy()
    widths = artifacts.states.layer(1).widths
    # 0.2 x the abstraction width: breaks the S_2 check but stays repairable
    # (the tail verification from the rebuilt S'_2 still closes).
    broken.blocks()[1].dense.bias += 0.2 * float(np.max(widths))
    prop4 = LOCAL.verify(PropositionSpec(
        kind=4, artifacts=artifacts, new_network=broken,
        method="exact")).result
    return broken, prop4


def test_scenario_breaks_prop4(broken_version):
    _, prop4 = broken_version
    assert prop4.holds is not True


def test_fixing_settles_the_scenario(vehicle_bundle, broken_version):
    broken, prop4 = broken_version
    artifacts = vehicle_bundle.baselines[0].artifacts
    fix = incremental_fix(artifacts, broken, prop4,
                          config=VerifyConfig(node_limit=20000))
    assert fix.holds is not None
    if fix.holds:
        xs = vehicle_bundle.din.sample(2000, np.random.default_rng(0))
        ys = broken.forward(xs).reshape(-1)
        assert np.all(ys <= vehicle_bundle.dout.upper[0] + 1e-9)
        assert np.all(ys >= vehicle_bundle.dout.lower[0] - 1e-9)


def test_report_fixing_vs_full(vehicle_bundle, broken_version, capsys):
    broken, prop4 = broken_version
    artifacts = vehicle_bundle.baselines[0].artifacts
    fix = incremental_fix(artifacts, broken, prop4,
                          config=VerifyConfig(node_limit=20000))
    full = FULL.baseline(vehicle_bundle.problem(0).__class__(
        broken, vehicle_bundle.din, vehicle_bundle.dout),
        state_buffer=STATE_BUFFER, rigor="range").result
    with capsys.disabled():
        print("\nIncremental abstraction fixing (Section IV.C)")
        print(f"  prop4 failure pattern : "
              f"{[i for i, s in enumerate(prop4.subproblems) if s.holds is not True]}")
        print(f"  repair strategy       : {fix.strategy}")
        print(f"  replaced / re-entry   : S_{fix.replaced_layer} / "
              f"{fix.reentry_layer}")
        print(f"  repair time           : {fix.elapsed * 1e3:9.2f} ms "
              f"(verdict {fix.holds})")
        print(f"  full re-verification  : {full.elapsed * 1e3:9.2f} ms "
              f"(verdict {full.holds})")
    # The repair is sound but incomplete: a True verdict must agree with
    # the ground truth; an inconclusive/False verdict may be beaten by the
    # complete method.
    if fix.holds is True:
        assert full.holds is True
    assert fix.elapsed < full.elapsed


def test_report_thread_pool_prop4(vehicle_bundle, capsys):
    """Proposition 4's layer checks on a real thread pool."""
    artifacts = vehicle_bundle.baselines[0].artifacts
    new_net = vehicle_bundle.nets[1]
    states = artifacts.states
    n = new_net.num_blocks
    tasks = []
    for i in range(n):
        source = vehicle_bundle.din if i == 0 else states.layer(i - 1)
        target = vehicle_bundle.dout if i == n - 1 else states.layer(i)
        layer = new_net.subnetwork(i, i + 1)
        tasks.append((
            f"layer{i}",
            lambda layer=layer, source=source, target=target:
                LOCAL.verify(ContainmentSpec(
                    network=layer, input_box=source, target=target,
                    method="exact")).result,
        ))
    results = run_parallel(tasks, workers=4)
    assert all(res.holds for _, res, _ in results)
    slowest = max(elapsed for _, __, elapsed in results)
    total = sum(elapsed for _, __, elapsed in results)
    with capsys.disabled():
        print("\nProposition 4 on a 4-worker thread pool")
        for name, res, elapsed in results:
            print(f"  {name}: {elapsed * 1e3:7.2f} ms (holds={res.holds})")
        print(f"  slowest worker task {slowest * 1e3:.2f} ms vs serial sum "
              f"{total * 1e3:.2f} ms")


def test_benchmark_incremental_fix(vehicle_bundle, broken_version, benchmark):
    broken, prop4 = broken_version
    artifacts = vehicle_bundle.baselines[0].artifacts
    benchmark.pedantic(
        lambda: incremental_fix(artifacts, broken, prop4,
                                config=VerifyConfig(node_limit=20000)),
        rounds=3, iterations=1)
