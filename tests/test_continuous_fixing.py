"""Tests for the orchestrator, incremental fixing, parallel accounting,
and report formatting."""

import numpy as np
import pytest

from repro.api import PropositionSpec, VerificationEngine, VerifyConfig
from repro.domains import Box
from repro.domains.propagate import inductive_states
from repro.nn import fine_tune, random_relu_network
from repro.core import (
    ContinuousVerifier,
    SVbTV,
    SVuDC,
    Table1Row,
    VerificationProblem,
    format_continuous_result,
    format_proposition_result,
    format_table1,
    incremental_fix,
    makespan,
    parallel_time,
    run_parallel,
    sequential_time,
)
from repro.core.propositions import SubproblemReport


@pytest.fixture(scope="module")
def setup():
    net = random_relu_network([4, 12, 10, 8, 1], seed=6, weight_scale=0.55)
    din = Box(np.zeros(4), 0.8 * np.ones(4))
    sn = inductive_states(net, din, 0.02)[-1]
    dout = sn.inflate(0.25 * sn.widths.max() + 0.1)
    problem = VerificationProblem(net, din, dout)
    base = VerificationEngine().baseline(
        problem, with_network_abstraction=True, netabs_groups=3,
        netabs_margin=0.05).result
    assert base.holds
    rng = np.random.default_rng(0)
    x = din.sample(200, rng)
    y = net.forward(x)
    tuned = fine_tune(net, x, y + rng.normal(0, 0.01, size=y.shape),
                      learning_rate=5e-4, epochs=1)
    return problem, base, tuned


def _prop4(artifacts, new_network):
    """Proposition 4 as an engine PropositionSpec (default config)."""
    return VerificationEngine().verify(PropositionSpec(
        kind=4, artifacts=artifacts, new_network=new_network)).result


class TestSVuDCOrchestration:
    def test_prop3_wins_for_tiny_enlargement(self, setup):
        problem, base, _ = setup
        cv = ContinuousVerifier(base.artifacts)
        res = cv.verify_domain_change(SVuDC(problem, problem.din.inflate(1e-5)))
        assert res.holds is True
        assert res.strategy == "prop3"
        assert len(res.attempts) == 1

    def test_cascade_falls_through(self, setup):
        problem, base, _ = setup
        cv = ContinuousVerifier(base.artifacts)
        # moderate enlargement: prop3's worst-case bound usually fails,
        # prop1/prop2's exact local checks still succeed.
        res = cv.verify_domain_change(SVuDC(problem, problem.din.inflate(0.02)))
        assert res.holds is True
        enlarged = problem.din.inflate(0.02)
        xs = enlarged.sample(2000, np.random.default_rng(1))
        ys = problem.network.forward(xs).reshape(-1)
        assert np.all(ys >= problem.dout.lower[0] - 1e-9)
        assert np.all(ys <= problem.dout.upper[0] + 1e-9)

    def test_full_fallback_on_massive_enlargement(self, setup):
        problem, base, _ = setup
        cv = ContinuousVerifier(base.artifacts,
                                config=VerifyConfig(node_limit=4000))
        res = cv.verify_domain_change(SVuDC(problem, problem.din.inflate(3.0)))
        # strategy cascade exhausted; full (exact) verification decides
        assert res.strategy == "full re-verification"
        assert res.holds is not None

    def test_speedup_ratio_computed(self, setup):
        problem, base, _ = setup
        cv = ContinuousVerifier(base.artifacts)
        res = cv.verify_domain_change(SVuDC(problem, problem.din.inflate(1e-5)))
        ratio = res.speedup_vs(base.elapsed)
        assert 0.0 <= ratio < 100.0


class TestSVbTVOrchestration:
    def test_small_tune_verified_quickly(self, setup):
        problem, base, tuned = setup
        cv = ContinuousVerifier(base.artifacts)
        res = cv.verify_new_version(SVbTV(problem, tuned))
        assert res.holds is True
        assert res.strategy in ("prop6", "prop4", "prop5",
                                "prop6+prop3", "prop6+prop1")

    def test_prop4_only_strategy(self, setup):
        problem, base, tuned = setup
        cv = ContinuousVerifier(base.artifacts)
        res = cv.verify_new_version(SVbTV(problem, tuned), strategies=("prop4",))
        assert res.holds is True
        assert res.strategy == "prop4"
        assert res.winning_max_subproblem_time <= res.winning_time + 1e-9

    def test_with_enlargement(self, setup):
        problem, base, tuned = setup
        cv = ContinuousVerifier(base.artifacts)
        enlarged = problem.din.inflate(0.005)
        res = cv.verify_new_version(SVbTV(problem, tuned, enlarged))
        assert res.holds is True
        xs = enlarged.sample(2000, np.random.default_rng(2))
        ys = tuned.forward(xs).reshape(-1)
        assert np.all(ys <= problem.dout.upper[0] + 1e-9)

    def test_unknown_strategy_rejected(self, setup):
        problem, base, tuned = setup
        from repro.errors import ArtifactError

        cv = ContinuousVerifier(base.artifacts)
        with pytest.raises(ArtifactError):
            cv.verify_new_version(SVbTV(problem, tuned), strategies=("prop9",))


class TestIncrementalFixing:
    def test_fix_after_single_layer_break(self, setup):
        """Perturb exactly one middle block heavily: prop4 fails only
        there, and the fixing procedure repairs it."""
        problem, base, _ = setup
        net = problem.network
        broken = net.copy()
        # moderately bump one middle block so its image leaves S_{i+1}
        blk = broken.blocks()[1]
        blk.dense.bias += 0.3 * np.max(
            base.artifacts.states.layer(1).widths)
        prop4 = _prop4(base.artifacts, broken)
        failing = [i for i, s in enumerate(prop4.subproblems)
                   if s.holds is not True]
        if prop4.holds or failing != [1]:
            pytest.skip("perturbation did not produce the single-break pattern")
        fix = incremental_fix(base.artifacts, broken, prop4)
        assert fix.holds is not None
        assert fix.replaced_layer == 1
        if fix.holds:
            xs = problem.din.sample(2000, np.random.default_rng(3))
            ys = broken.forward(xs).reshape(-1)
            assert np.all(ys <= problem.dout.upper[0] + 1e-9)
            assert np.all(ys >= problem.dout.lower[0] - 1e-9)

    def test_nothing_to_fix(self, setup):
        problem, base, tuned = setup
        prop4 = _prop4(base.artifacts, tuned)
        assert prop4.holds
        fix = incremental_fix(base.artifacts, tuned, prop4)
        assert fix.holds is True
        assert fix.strategy == "nothing to fix"

    def test_first_layer_break_forces_full(self, setup):
        problem, base, _ = setup
        broken = problem.network.copy()
        broken.blocks()[0].dense.bias += 10.0
        prop4 = _prop4(base.artifacts, broken)
        assert prop4.subproblems[0].holds is not True
        fix = incremental_fix(base.artifacts, broken, prop4)
        assert "full re-verification" in fix.strategy

    def test_orchestrator_uses_fixing(self, setup):
        problem, base, _ = setup
        broken = problem.network.copy()
        broken.blocks()[1].dense.bias += 0.3 * np.max(
            base.artifacts.states.layer(1).widths)
        cv = ContinuousVerifier(base.artifacts)
        res = cv.verify_new_version(SVbTV(problem, broken),
                                    strategies=("prop4",))
        assert res.holds is not None  # fixing or fallback decided it


class TestParallelAccounting:
    def _reports(self):
        return [SubproblemReport(name=f"t{i}", holds=True, elapsed=e)
                for i, e in enumerate([0.5, 0.2, 0.4, 0.1])]

    def test_sequential_and_parallel(self):
        reports = self._reports()
        assert sequential_time(reports) == pytest.approx(1.2)
        assert parallel_time(reports) == pytest.approx(0.5)

    def test_makespan_interpolates(self):
        reports = self._reports()
        assert makespan(reports, 1) == pytest.approx(1.2)
        assert makespan(reports, 4) == pytest.approx(0.5)
        two = makespan(reports, 2)
        assert 0.5 <= two <= 1.2

    def test_makespan_guard(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            makespan([], 0)

    def test_run_parallel_executes_all(self):
        tasks = [(f"task{i}", lambda i=i: i * i) for i in range(5)]
        results = run_parallel(tasks, workers=3)
        assert [value for _, value, _ in results] == [0, 1, 4, 9, 16]
        assert all(elapsed >= 0 for _, _, elapsed in results)


class TestReports:
    def test_table1_format(self):
        rows = [Table1Row(1, 5.27, 37.52), Table1Row(2, 0.72, 4.19)]
        text = format_table1(rows)
        assert "case ID" in text
        assert "5.27%" in text and "37.52%" in text

    def test_proposition_format(self, setup):
        problem, base, tuned = setup
        res = _prop4(base.artifacts, tuned)
        text = format_proposition_result(res)
        assert "[prop4]" in text and "HOLDS" in text

    def test_continuous_format(self, setup):
        problem, base, tuned = setup
        cv = ContinuousVerifier(base.artifacts)
        res = cv.verify_new_version(SVbTV(problem, tuned))
        text = format_continuous_result(res, base.elapsed)
        assert "SAFE" in text
        assert "incremental/original" in text
