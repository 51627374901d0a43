"""Parallel frontier BaB, pool-reservation safety, and solver-status fixes.

The determinism contract under test: the frontier trajectory depends only
on the fixed round width, never on ``workers``, so statuses are
byte-identical and optima bitwise-identical across worker counts; and the
search agrees with the independent big-M MILP oracle within tolerance.
"""

import threading

import numpy as np
import pytest

from repro.api import (ContainmentSpec, MaximizeSpec, ThresholdSpec,
                       VerificationEngine, VerifyConfig,
                       canonical_verdict_json)
from repro.domains import Box
from repro.errors import ReproError, SolverError
from repro.exact import (
    BaBSolver,
    CoveringLeaves,
    NetworkEncoding,
    clear_encoding_cache,
    encoding_cache_stats,
    prove_with_certificate,
    solve_milp,
)
from repro.exact.encoding import phase_maps
from repro.core.parallel import reserved_width, run_parallel
from repro.core import parallel as parallel_mod
from repro.nn import random_relu_network

WORKER_MATRIX = (1, 2, 8)


def _milp_optimum(net, box, c, maximize):
    """The exact optimum of ``c @ f(x)`` from the big-M MILP encoding: an
    oracle independent of the phase-splitting search."""
    enc = NetworkEncoding(net, box)
    system = enc.build_milp()
    objective = enc.output_objective(c, num_vars=system.num_vars)
    res = solve_milp(objective, system, maximize=maximize)
    assert res.status == "optimal"
    return res.value


class TestWorkerMatrix:
    def test_fig2_optimum_identical_across_workers(self, fig2, enlarged_box2):
        results = [
            BaBSolver(fig2, enlarged_box2, workers=w)
            .maximize(np.array([1.0]))
            for w in WORKER_MATRIX
        ]
        assert {r.status for r in results} == {"optimal"}
        # Bitwise identical across worker counts (same trajectory) ...
        assert len({r.upper_bound for r in results}) == 1
        assert len({r.lp_solves for r in results}) == 1
        assert len({r.nodes for r in results}) == 1
        # ... and agreeing with the paper's value.
        assert results[0].upper_bound == pytest.approx(6.2, abs=1e-6)

    @pytest.mark.parametrize("threshold,expected", [
        (12.0, "threshold_proved"),
        (5.0, "threshold_refuted"),
    ])
    def test_fig2_threshold_verdicts_across_workers(self, fig2, enlarged_box2,
                                                    threshold, expected):
        statuses = set()
        for w in WORKER_MATRIX:
            res = BaBSolver(fig2, enlarged_box2, workers=w) \
                .maximize(np.array([1.0]), threshold=threshold)
            statuses.add(res.status)
            if expected == "threshold_refuted":
                assert fig2.forward(res.witness)[0] > threshold
        assert statuses == {expected}

    def test_random_nets_parity_with_milp(self):
        for seed in range(3):
            net = random_relu_network([3, 10, 8, 2], seed=seed,
                                      weight_scale=0.9)
            box = Box(-np.ones(3), np.ones(3))
            c = np.array([1.0, -0.5])
            milp = _milp_optimum(net, box, c, maximize=True)
            frontier = BaBSolver(net, box, workers=4).maximize(c)
            assert frontier.status == "optimal"
            assert frontier.upper_bound == pytest.approx(milp, abs=1e-6)

    def test_minimize_through_frontier(self, fig2, enlarged_box2):
        c = np.array([1.0])
        milp = _milp_optimum(fig2, enlarged_box2, c, maximize=False)
        lo_f = BaBSolver(fig2, enlarged_box2, workers=2).minimize(c)
        assert lo_f.status == "optimal"
        assert lo_f.upper_bound == pytest.approx(milp, abs=1e-9)
        assert lo_f.workers == 2

    def test_frontier_stats_reported(self, fig2, enlarged_box2):
        stats = [
            (r.nodes, r.lp_solves, r.rounds, r.max_batch)
            for r in (BaBSolver(fig2, enlarged_box2, workers=w)
                      .maximize(np.array([1.0])) for w in (1, 2))
        ]
        assert stats[0] == stats[1] and stats[0][2] >= 1

    def test_maximize_output_exposes_workers(self, fig2, enlarged_box2):
        res = VerificationEngine(VerifyConfig(workers=2)).verify(MaximizeSpec(
            network=fig2, input_box=enlarged_box2,
            objective=np.array([1.0]))).result
        assert res.status == "optimal"
        assert res.upper_bound == pytest.approx(6.2, abs=1e-6)
        assert res.workers == 2

    def test_check_containment_workers(self, fig2, enlarged_box2):
        target = Box(np.array([0.0]), np.array([6.2000001]))
        spec = ContainmentSpec(network=fig2, input_box=enlarged_box2,
                               target=target, method="exact")
        lone = VerificationEngine().verify(spec).result
        wide = VerificationEngine(VerifyConfig(workers=4)).verify(spec).result
        assert lone.holds is True and wide.holds is True


class TestDualBranching:
    """Splits chosen by the node LPs' own triangle-row multipliers keep
    the worker-count contract and solve far fewer LPs."""

    #: Total ``lp_solves`` over :meth:`_parity_nets` under the max-gap
    #: rule this one replaced.
    MAX_GAP_LP_SOLVES = 9052

    @staticmethod
    def _parity_nets():
        box = Box(-np.ones(5), np.ones(5))
        return [(random_relu_network([5, 12, 12, 1], seed=seed), box)
                for seed in range(12)]

    def test_vehicle_sized_head_identical_across_workers(self):
        net = random_relu_network([27, 16, 12, 1], seed=0)
        box = Box(-0.2 * np.ones(27), 0.2 * np.ones(27))
        c = np.ones(1)
        peak = VerificationEngine().verify(MaximizeSpec(
            network=net, input_box=box, objective=c)).result
        assert peak.status == "optimal" and peak.lp_solves > 100
        for spec in (
                MaximizeSpec(network=net, input_box=box, objective=c),
                ThresholdSpec(network=net, input_box=box, objective=c,
                              threshold=peak.upper_bound * 1.02)):
            verdicts = [VerificationEngine(VerifyConfig(workers=w))
                        .verify(spec) for w in WORKER_MATRIX]
            # Every canonical byte is the trajectory's; the pool width is
            # run bookkeeping and must not appear.
            texts = {canonical_verdict_json(v) for v in verdicts}
            assert len(texts) == 1 and '"workers"' not in texts.pop()
        assert verdicts[0].certified

    def test_fewer_lp_solves_than_max_gap_on_random_nets(self, rng):
        total = 0
        for net, box in self._parity_nets():
            res = BaBSolver(net, box).maximize(np.ones(1))
            assert res.status == "optimal"
            # The optimum is attained at the witness and bounds samples.
            assert net.forward(res.witness)[0] == \
                pytest.approx(res.upper_bound, abs=1e-6)
            assert net.forward(box.sample(500, rng)).max() <= \
                res.upper_bound + 1e-6
            total += res.lp_solves
        assert total < self.MAX_GAP_LP_SOLVES


class TestFrontierCertificates:
    def test_certify_and_reprove_parallel(self, fig2, enlarged_box2):
        verdict = VerificationEngine(VerifyConfig(workers=4)).verify(
            ThresholdSpec(network=fig2, input_box=enlarged_box2,
                          objective=np.array([1.0]), threshold=12.0))
        res, cert = verdict.result, verdict.certificate
        assert res.status in ("threshold_proved", "optimal")
        assert cert is not None and cert.num_leaves >= 1
        # The frontier's settled leaves cover the region: re-proving from
        # them (again in parallel) must close without a fresh search.
        reproved = prove_with_certificate(fig2, enlarged_box2, cert,
                                          config=VerifyConfig(workers=4))
        assert reproved.status in ("threshold_proved", "optimal")
        assert reproved.upper_bound <= 12.0 + 1e-6

    def test_warm_start_matches_cold(self, fig2, enlarged_box2):
        cert = VerificationEngine().verify(ThresholdSpec(
            network=fig2, input_box=enlarged_box2, objective=np.array([1.0]),
            threshold=12.0)).certificate
        for w in (1, 2):
            res = prove_with_certificate(fig2, enlarged_box2, cert,
                                         config=VerifyConfig(workers=w))
            assert res.status in ("threshold_proved", "optimal")


class TestBaBResultOptimum:
    def test_optimum_at_optimal(self, fig2, enlarged_box2):
        res = BaBSolver(fig2, enlarged_box2).maximize(np.array([1.0]))
        assert res.optimum == res.upper_bound

    def test_optimum_raises_at_node_limit(self):
        net = random_relu_network([4, 12, 10, 1], seed=2, weight_scale=1.2)
        box = Box(-np.ones(4), np.ones(4))
        res = BaBSolver(net, box, node_limit=1).maximize(np.array([1.0]))
        assert res.status == "node_limit"
        with pytest.raises(SolverError, match="node_limit"):
            res.optimum

    def test_optimum_raises_at_threshold_statuses(self, fig2, enlarged_box2):
        for threshold in (12.0, 5.0):
            res = BaBSolver(fig2, enlarged_box2).maximize(
                np.array([1.0]), threshold=threshold)
            if res.status == "optimal":  # pragma: no cover - trajectory luck
                continue
            with pytest.raises(SolverError):
                res.optimum


class TestRunParallelReservation:
    def test_reservation_released_after_worker_raise(self):
        def boom():
            raise ValueError("worker exploded")

        for _ in range(3):  # a leak would accumulate across calls
            with pytest.raises(ValueError, match="worker exploded"):
                run_parallel([("ok", lambda: 1), ("bad", boom)], workers=1)
            assert reserved_width() == 0

    def test_pool_exhausts_and_recovers(self):
        """Full-width calls that die must hand their reservation back."""
        full = parallel_mod._POOL_SIZE

        def boom():
            raise RuntimeError("die")

        for _ in range(2):
            with pytest.raises(RuntimeError):
                run_parallel([("bad", boom)] * full, workers=full)
            assert reserved_width() == 0
        # The shared pool is whole again: a full-width call still runs.
        out = run_parallel([(f"t{i}", lambda i=i: i * i)
                            for i in range(full)], workers=full)
        assert [value for _, value, _ in out] == [i * i for i in range(full)]
        assert reserved_width() == 0

    def test_reentrant_caller_does_not_leak(self):
        def inner():
            return run_parallel([("leaf", lambda: "ok")], workers=1)

        out = run_parallel([("outer", inner)], workers=1)
        assert out[0][1][0][1] == "ok"
        assert reserved_width() == 0

    def test_invalid_workers_rejected(self):
        with pytest.raises(ReproError):
            run_parallel([("a", lambda: 1)], workers=0)
        assert reserved_width() == 0

    def test_effective_workers_clamps_to_pool(self):
        from repro.core.parallel import effective_workers

        assert effective_workers(1) == 1
        assert effective_workers(999) == parallel_mod._POOL_SIZE
        # From inside a pool worker the grant is 1 (nested calls divert).
        out = run_parallel([("probe", lambda: effective_workers(8))],
                           workers=1)
        assert out[0][1] == 1


class TestEncodingCacheConcurrency:
    def test_for_problem_counters_consistent_under_threads(self):
        clear_encoding_cache()
        net = random_relu_network([3, 8, 6, 1], seed=11, weight_scale=0.7)
        box = Box(-np.ones(3), np.ones(3))
        before = encoding_cache_stats()
        n_threads = 8
        found = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def fetch(i):
            barrier.wait()  # maximise contention on the first build
            found[i] = NetworkEncoding.for_problem(net, box)

        threads = [threading.Thread(target=fetch, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = encoding_cache_stats()
        delta_hits = after["hits"] - before["hits"]
        delta_misses = after["misses"] - before["misses"]
        # Every call is accounted exactly once, one miss charged per key.
        assert delta_hits + delta_misses == n_threads
        assert delta_misses == 1
        # All callers share the one cached object (one base to compose on).
        assert all(enc is found[0] for enc in found)

    def test_concurrent_solvers_share_one_base(self, fig2, enlarged_box2):
        clear_encoding_cache()
        enc = NetworkEncoding.for_problem(fig2, enlarged_box2)
        results = [None] * 4

        def solve(i):
            solver = BaBSolver(fig2, enlarged_box2, workers=1)
            results[i] = solver.maximize(np.array([1.0]))

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert {r.status for r in results} == {"optimal"}
        assert len({r.upper_bound for r in results}) == 1
        # The shared encoding assembled its sparse base at most once.
        assert enc.base_builds <= 1


class TestFrontierEdgeCases:
    def test_node_limit_bound_still_sound(self, rng):
        net = random_relu_network([4, 12, 10, 1], seed=2, weight_scale=1.2)
        box = Box(-np.ones(4), np.ones(4))
        res = BaBSolver(net, box, node_limit=3, workers=2).maximize(
            np.array([1.0]))
        assert res.status == "node_limit"
        vals = net.forward(box.sample(2000, rng)).reshape(-1)
        assert res.upper_bound >= vals.max() - 1e-6

    def test_node_limit_deterministic_across_workers(self):
        net = random_relu_network([4, 12, 10, 1], seed=2, weight_scale=1.2)
        box = Box(-np.ones(4), np.ones(4))
        outs = [
            BaBSolver(net, box, node_limit=5, workers=w)
            .maximize(np.array([1.0]))
            for w in WORKER_MATRIX
        ]
        assert {o.status for o in outs} == {"node_limit"}
        assert len({o.upper_bound for o in outs}) == 1
        # The budget counts expanded nodes exactly: never limit + 1.
        assert {o.nodes for o in outs} == {5}

    def test_invalid_workers_rejected(self, fig2, enlarged_box2):
        with pytest.raises(SolverError):
            BaBSolver(fig2, enlarged_box2, workers=0)

    def test_collect_leaves_cover_space(self, fig2, enlarged_box2, rng):
        """Frontier leaves form a covering certificate: every sampled input
        is consistent with at least one settled leaf's phase pattern."""
        solver = BaBSolver(fig2, enlarged_box2, workers=2)
        leaves = CoveringLeaves(solver.encoding)
        solver.maximize(np.array([1.0]), threshold=12.0,
                        collect_leaves=leaves)
        assert len(leaves.matrix())
        leaves = phase_maps(leaves.matrix(), fig2.block_dims()[1:])

        def pre_activation(x, k):
            hidden = fig2.forward_blocks(x, k)
            return fig2.block(k).dense.forward(hidden)

        for x in enlarged_box2.sample(100, rng):
            consistent = False
            for leaf in leaves:
                ok = True
                for (k, i), phase in leaf.items():
                    z = float(pre_activation(x, k)[i])
                    if (phase == 1 and z < -1e-9) or \
                            (phase == -1 and z > 1e-9):
                        ok = False
                        break
                if ok:
                    consistent = True
                    break
            assert consistent
