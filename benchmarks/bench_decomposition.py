"""Decomposition-granularity ablation (Propositions 4 vs 5 vs full).

The paper decomposes the network into two parts and reports the maximum
subproblem time under parallel execution.  This ablation sweeps the
granularity -- every boundary reused (Prop 4), a single middle cut
(Prop 5, the paper's choice), coarser cuts, and no reuse at all (full
re-verification) -- and reports the parallel (max-subproblem) and
sequential (sum) costs of each, on the vehicle SVbTV workload.
"""

from benchmarks.common import STATE_BUFFER
from repro.api import PropositionSpec, VerificationEngine, VerifyConfig

#: Local reuse checks and the full run get the budgets they always had.
LOCAL = VerificationEngine(VerifyConfig(node_limit=20000))
FULL = VerificationEngine(VerifyConfig(node_limit=120000,
                                       full_node_limit=120000))


def _prop(kind, artifacts, new_net, alphas=None):
    """Proposition 4 or 5 (exact legs) on the new version."""
    return LOCAL.verify(PropositionSpec(
        kind=kind, artifacts=artifacts, new_network=new_net, alphas=alphas,
        method="exact")).result


def _full(problem):
    """The complete, artifact-producing from-scratch run."""
    return FULL.baseline(problem, state_buffer=STATE_BUFFER,
                         rigor="range").result


def _strategies(net):
    n = net.num_blocks
    out = {"prop4 (every layer)": ("prop4", None)}
    if n >= 3:
        out[f"prop5 (cut at {n // 2})"] = ("prop5", [max(1, n // 2)])
    if n >= 4:
        out["prop5 (cuts 1,2)"] = ("prop5", [1, 2])
    out["full re-verification"] = ("full", None)
    return out


def _run(bundle, name, kind, alphas):
    artifacts = bundle.baselines[0].artifacts
    new_net = bundle.nets[1]
    if kind == "prop4":
        res = _prop(4, artifacts, new_net)
        return res.holds, res.max_subproblem_time, res.total_subproblem_time
    if kind == "prop5":
        res = _prop(5, artifacts, new_net, alphas=alphas)
        return res.holds, res.max_subproblem_time, res.total_subproblem_time
    # "No reuse" means redoing what the original verification did: the
    # complete, artifact-producing run (not a one-shot threshold check).
    res = _full(bundle.problem(1))
    return res.holds, res.elapsed, res.elapsed


def test_all_granularities_prove_safety(vehicle_bundle):
    for name, (kind, alphas) in _strategies(vehicle_bundle.nets[1]).items():
        holds, _, _ = _run(vehicle_bundle, name, kind, alphas)
        assert holds is True, name


def test_report_decomposition(vehicle_bundle, capsys):
    lines = ["\nDecomposition granularity (SVbTV, version 1 -> 2)",
             f"  {'strategy':>24} | {'max subproblem':>14} | {'sequential':>10}"]
    results = {}
    for name, (kind, alphas) in _strategies(vehicle_bundle.nets[1]).items():
        holds, par, seq = _run(vehicle_bundle, name, kind, alphas)
        results[name] = (par, seq)
        lines.append(f"  {name:>24} | {par * 1e3:>11.2f} ms | {seq * 1e3:>7.2f} ms")
    with capsys.disabled():
        print("\n".join(lines))
    # Reuse-based strategies beat full re-verification in parallel time.
    full_par = results["full re-verification"][0]
    assert results["prop4 (every layer)"][0] < full_par


def test_benchmark_prop4_all_layers(vehicle_bundle, benchmark):
    artifacts = vehicle_bundle.baselines[0].artifacts
    new_net = vehicle_bundle.nets[1]
    benchmark.pedantic(
        lambda: _prop(4, artifacts, new_net),
        rounds=3, iterations=1)


def test_benchmark_full_reverification(vehicle_bundle, benchmark):
    benchmark.pedantic(
        lambda: _full(vehicle_bundle.problem(1)),
        rounds=1, iterations=1)
