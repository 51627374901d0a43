"""Table I: time savings from incremental verification.

Reproduces the paper's only results table.  For each of the four tuning
steps (case IDs 1-4):

* **SVuDC** -- the deployed network ``nets[i]``, previously verified on
  ``Din``, must be re-verified on the monitor-recorded ``Din ∪ Δin``.
  Incremental strategy: Proposition 1's exact two-layer head check (with
  Proposition 3 as the free arithmetic pre-check, mirroring the paper's
  "verification stops in the SVuDC case once the first part preserves the
  state abstraction").
* **SVbTV** -- the network fine-tuned into ``nets[i+1]`` must be verified.
  Incremental strategy: the paper's two-part decomposition (Proposition 5
  with one cut), whose two subproblems run in parallel; per footnote 3 the
  reported time is the **maximum subproblem time**.

Both are reported relative to the *original* (from-scratch, complete)
verification time of the previously solved problem -- exactly Table I's
``incremental time / original time`` columns.
"""

import pytest

from benchmarks.common import NUM_CASES
from repro.api import PropositionSpec, VerificationEngine, VerifyConfig
from repro.core import Table1Row, check_prop3, format_table1
from benchmarks.common import STATE_BUFFER

#: Local reuse checks get the 20000-node budget they always had.
LOCAL = VerificationEngine(VerifyConfig(node_limit=20000))


def _svudc_incremental(bundle, case: int):
    """The SVuDC reuse cascade for one case; returns (holds, par_time)."""
    artifacts = bundle.baselines[case].artifacts
    enlarged = bundle.enlarged[case]
    pre = check_prop3(artifacts, enlarged)
    if pre.holds:
        return True, pre.max_subproblem_time
    res = LOCAL.verify(PropositionSpec(
        kind=1, artifacts=artifacts, enlarged_din=enlarged,
        method="exact")).result
    return res.holds, pre.max_subproblem_time + res.max_subproblem_time


def _svbtv_incremental(bundle, case: int):
    """The SVbTV two-part decomposition; returns (holds, max_subproblem)."""
    artifacts = bundle.baselines[case].artifacts
    new_net = bundle.nets[case + 1]
    cut = max(1, new_net.num_blocks // 2)
    res = LOCAL.verify(PropositionSpec(
        kind=5, artifacts=artifacts, new_network=new_net, alphas=(cut,),
        method="exact")).result
    return res.holds, res.max_subproblem_time


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_svudc_incremental_holds(vehicle_bundle, case):
    holds, _ = _svudc_incremental(vehicle_bundle, case)
    assert holds is True


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_svbtv_incremental_holds(vehicle_bundle, case):
    holds, _ = _svbtv_incremental(vehicle_bundle, case)
    assert holds is True


def test_benchmark_original_verification(vehicle_bundle, benchmark):
    """The denominator: complete from-scratch verification of version 1."""
    problem = vehicle_bundle.problem(0)
    engine = VerificationEngine(VerifyConfig(node_limit=120000,
                                             full_node_limit=120000))
    benchmark.pedantic(
        lambda: engine.baseline(problem, state_buffer=STATE_BUFFER,
                                rigor="range"),
        rounds=1, iterations=1)


def test_benchmark_svudc_incremental(vehicle_bundle, benchmark):
    """The SVuDC numerator for case 1."""
    benchmark.pedantic(lambda: _svudc_incremental(vehicle_bundle, 0),
                       rounds=3, iterations=1)


def test_benchmark_svbtv_incremental(vehicle_bundle, benchmark):
    """The SVbTV numerator for case 1."""
    benchmark.pedantic(lambda: _svbtv_incremental(vehicle_bundle, 0),
                       rounds=3, iterations=1)


def test_report_table1(vehicle_bundle, capsys):
    """Assemble and print the reproduced Table I."""
    rows = []
    for case in range(NUM_CASES):
        original = vehicle_bundle.baselines[case].elapsed
        svudc_holds, svudc_time = _svudc_incremental(vehicle_bundle, case)
        svbtv_holds, svbtv_time = _svbtv_incremental(vehicle_bundle, case)
        assert svudc_holds and svbtv_holds
        rows.append(Table1Row(
            case_id=case + 1,
            svudc_ratio=100.0 * svudc_time / original,
            svbtv_ratio=100.0 * svbtv_time / original,
        ))
    table = format_table1(rows)
    with capsys.disabled():
        print("\n" + table)
        print("(paper: SVuDC 0.16%-5.27%, SVbTV 4.19%-37.52%; both columns "
              "far below 100%)")
    # Shape assertions: every incremental run is far cheaper than the
    # original, the paper's headline claim ("less than ten percent").
    for row in rows:
        assert row.svudc_ratio < 10.0
        assert row.svbtv_ratio < 10.0
