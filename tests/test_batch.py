"""Tests for the batched interval screens and the batched paths built on
them: phase-clamped node bounds, branch-and-bound interval pruning, the
Proposition 4/5 containment pre-screen, and monitor window screening.
"""

import numpy as np
import pytest

from repro.domains import (
    Box,
    get_propagator,
    phase_clamped_node_bounds,
    screen_containments,
)
from repro.errors import MonitorError
from repro.api import (MaximizeSpec, PropositionSpec, VerificationEngine,
                       VerifyConfig)
from repro.exact import BaBSolver, CoveringLeaves, NetworkEncoding, solve_milp
from repro.exact.encoding import phase_maps
from repro.monitor import BoxMonitor, screen_states
from repro.nn import Dense, Network, ReLU, random_relu_network


class TestBoxFastPath:
    def test_unsafe_constructor_is_a_box(self):
        box = Box.unsafe(np.zeros(2), np.ones(2))
        assert box == Box(np.zeros(2), np.ones(2))
        assert hash(box) == hash(Box(np.zeros(2), np.ones(2)))

    def test_contains_points_matches_scalar(self, rng):
        box = Box(-np.ones(4), np.ones(4))
        points = rng.normal(scale=1.2, size=(50, 4))
        mask = box.contains_points(points)
        expected = np.array([box.contains_point(p) for p in points])
        np.testing.assert_array_equal(mask, expected)


class TestPhaseClampedBounds:
    def test_sound_on_constrained_samples(self, rng):
        net = random_relu_network([3, 8, 6, 1], seed=4, weight_scale=0.9)
        box = Box(-0.8 * np.ones(3), 0.8 * np.ones(3))
        c = np.array([1.0])
        phase_maps = [{}, {(0, 1): 1}, {(0, 1): -1, (1, 0): 1},
                      {(0, 0): -1, (0, 2): -1}]
        ubs, feasible, _, __ = phase_clamped_node_bounds(
            net, box, phase_maps, c)
        xs = box.sample(4000, rng)
        pre = []
        values = xs
        for block in net.blocks():
            pre.append(values @ block.dense.weight.T + block.dense.bias)
            values = block.forward(values)
        outputs = values @ c
        for j, phase_map in enumerate(phase_maps):
            mask = np.ones(len(xs), dtype=bool)
            for (k, i), phase in phase_map.items():
                mask &= (pre[k][:, i] >= 0) if phase == 1 else (pre[k][:, i] <= 0)
            if feasible[j] and mask.any():
                assert outputs[mask].max() <= ubs[j] + 1e-9
            if not feasible[j]:
                assert not mask.any()

    def test_detects_empty_region(self):
        # Force both phases of the same neuron via a weight sign trick:
        # a neuron that is always strictly positive cannot be inactive.
        net = Network([Dense(1, 1, weight=np.array([[0.0]]),
                             bias=np.array([5.0])), ReLU()], input_dim=1)
        box = Box(np.array([-1.0]), np.array([1.0]))
        ubs, feasible, _, __ = phase_clamped_node_bounds(
            net, box, [{(0, 0): -1}, {(0, 0): 1}], np.array([1.0]))
        assert not feasible[0] and feasible[1]
        assert ubs[1] == pytest.approx(5.0)


def _children(network, rng, pairs):
    """``2 * pairs`` phase rows shaped like a frontier round's children:
    a few fixed phases per parent, then both phases of one more free
    neuron."""
    width = sum(network.block_dims()[1:])
    rows = []
    for _ in range(pairs):
        parent = np.zeros(width, dtype=np.int8)
        fixed = rng.choice(width, size=4, replace=False)
        parent[fixed[:3]] = rng.choice((-1, 1), size=3)
        for phase in (1, -1):
            child = parent.copy()
            child[fixed[3]] = phase
            rows.append(child)
    return np.stack(rows)


def _stacked_screen_cases():
    """``(network, box)`` pairs: the vehicle perception head's first two
    blocks behind their final ReLU (27-16-12) and the whole head
    (27-16-12-1, whose one-column last layer numpy multiplies as a
    matrix-vector product), plus generated nets."""
    from repro.vehicle import Perception, PerceptionConfig

    head = Perception.build(PerceptionConfig(hidden_dims=(16, 12))).head
    features = Box(np.zeros(27), np.full(27, 0.6))
    cases = [(Network(head.layers[:3], input_dim=27), features),
             (head, features)]
    for seed, dims in enumerate(([4, 16, 12, 3], [5, 12, 12, 4],
                                 [6, 16, 12, 6], [3, 10, 8, 2])):
        cases.append((random_relu_network(dims, seed=seed),
                      Box(-np.ones(dims[0]), np.ones(dims[0]))))
    return cases


class TestStackedScreen:
    """Children of several searches screened in one pass, each run of
    rows under its own objective, keep every row's bits: ``upper`` and
    ``feasible`` equal what each search's own batch gives.  numpy's
    matrix product can round a row differently with the operand's shape,
    so this is checked bit for bit."""

    @pytest.mark.parametrize("case", range(6))
    def test_runs_keep_their_own_batch_bits(self, case):
        network, box = _stacked_screen_cases()[case]
        rng = np.random.default_rng(case)
        d = network.output_dim
        for trial in range(6):
            # Round sizes as frontier rounds make them (even, 2..16),
            # and odd ones to reach the per-run products.
            sizes = rng.integers(1, 9, size=int(rng.integers(2, 13))) * 2
            if trial % 2:
                sizes = sizes - rng.integers(0, 2, size=sizes.size)
            runs = [_children(network, rng, 8)[:size] for size in sizes]
            objectives = []
            for _ in runs:
                c = np.zeros(d)
                c[int(rng.integers(d))] = 1.0
                objectives.append(c if rng.random() < 0.5 else -c)
            upper, feasible, _, _ = phase_clamped_node_bounds(
                network, box, np.concatenate(runs), np.stack(objectives),
                [len(rows) for rows in runs])
            at = 0
            for rows, c in zip(runs, objectives):
                alone, alone_feasible, _, _ = phase_clamped_node_bounds(
                    network, box, rows, c)
                part = slice(at, at + len(rows))
                at += len(rows)
                assert upper[part].tobytes() == alone.tobytes()
                assert feasible[part].tobytes() == alone_feasible.tobytes()

    @pytest.mark.parametrize("case", range(6))
    def test_shared_root_screen_keeps_each_objective_bits(self, case):
        network, box = _stacked_screen_cases()[case]
        d = network.output_dim
        root = np.zeros((1, sum(network.block_dims()[1:])), dtype=np.int8)
        objectives = np.concatenate([np.eye(d), -np.eye(d)])
        upper, feasible, _, _ = phase_clamped_node_bounds(
            network, box, root, objectives)
        assert upper.shape == (1, 2 * d)
        for k, c in enumerate(objectives):
            alone, alone_feasible, _, _ = phase_clamped_node_bounds(
                network, box, root, c)
            assert upper[:, k].tobytes() == alone.tobytes()
            assert feasible.tobytes() == alone_feasible.tobytes()


def _maximize(network, box, threshold=None, **config):
    """``max f(x)`` over ``box`` as an engine MaximizeSpec under ``config``."""
    spec = MaximizeSpec(network=network, input_box=box,
                        objective=np.array([1.0]), threshold=threshold)
    return VerificationEngine(VerifyConfig(**config)).verify(spec).result


def _milp_max(network, box):
    """``max f(x)`` over ``box`` by the MILP encoding, which shares no
    screen with the branch and bound: the reference a pruned search must
    match."""
    enc = NetworkEncoding(network, box)
    system = enc.build_milp()
    c = enc.output_objective(np.array([1.0]), num_vars=system.num_vars)
    res = solve_milp(c, system, maximize=True)
    assert res.optimal
    return res.value


class TestBaBIntervalPruning:
    def test_fig2_same_optimum_as_milp(self, fig2, enlarged_box2):
        res = _maximize(fig2, enlarged_box2)
        assert res.upper_bound == pytest.approx(
            _milp_max(fig2, enlarged_box2), abs=1e-6)

    def test_optimum_matches_milp_on_random_nets(self):
        for seed in range(3):
            net = random_relu_network([3, 8, 6, 1], seed=seed,
                                      weight_scale=0.9)
            box = Box(-0.7 * np.ones(3), 0.7 * np.ones(3))
            res = _maximize(net, box)
            assert res.status == "optimal"
            assert res.upper_bound == pytest.approx(_milp_max(net, box),
                                                    abs=1e-6)

    def test_threshold_modes_agree_with_milp(self, fig2, enlarged_box2):
        exact = _milp_max(fig2, enlarged_box2)
        for threshold in (5.0, 7.0, 13.0):
            res = _maximize(fig2, enlarged_box2, threshold=threshold)
            refuted = "threshold_refuted"
            assert (res.status == refuted) == (exact > threshold)
            if res.status != refuted:
                assert res.upper_bound <= threshold + 1e-6

    def test_interval_only_threshold_proof_uses_no_lp(self, fig2, enlarged_box2):
        # The root interval bound is 12.4: any looser threshold closes
        # before a single LP is built.
        res = _maximize(fig2, enlarged_box2, threshold=12.5)
        assert res.status in ("threshold_proved", "optimal")
        assert res.lp_solves == 0

    def test_terminal_return_reports_refutation(self):
        """A threshold crossed by the incumbent during the *last* branching
        must surface as refuted, not optimal (soundness of callers keying
        on BAB_REFUTED, e.g. exact containment)."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            seed = int(rng.integers(10000))
            net = random_relu_network([2, 4, 2, 1], seed=seed,
                                      weight_scale=1.0)
            box = Box(-np.ones(2), np.ones(2))
            true_max = _maximize(net, box).upper_bound
            res = _maximize(net, box, threshold=true_max - 0.01)
            assert res.status == "threshold_refuted"
            assert res.incumbent > true_max - 0.01

    def test_pruned_leaves_still_cover_space(self, rng):
        net = random_relu_network([3, 8, 6, 1], seed=2, weight_scale=0.9)
        box = Box(-0.7 * np.ones(3), 0.7 * np.ones(3))
        solver = BaBSolver(net, box)
        leaves = CoveringLeaves(solver.encoding)
        opt = solver.maximize(np.array([1.0]), collect_leaves=leaves)
        assert opt.status == "optimal"
        leaves = phase_maps(leaves.matrix(), net.block_dims()[1:])
        for x in box.sample(200, rng):
            pre = []
            values = x
            for block in net.blocks():
                pre.append(block.dense.forward(values))
                values = block.forward(values)
            assert any(
                all((pre[k][i] >= -1e-9) if phase == 1 else (pre[k][i] <= 1e-9)
                    for (k, i), phase in leaf.items())
                for leaf in leaves)


class TestScreenContainments:
    def test_true_verdicts_are_sound(self, rng):
        net = random_relu_network([4, 10, 8, 2], seed=1, weight_scale=0.7)
        box = Box(np.zeros(4), 0.6 * np.ones(4))
        states = get_propagator("box").propagate(net, box)
        subproblems = [
            (net.subnetwork(0, 1), box, states[0]),
            (net.subnetwork(1, 2), states[0], states[1]),
            (net.subnetwork(0, 3), box, states[2].inflate(0.5)),
            (net.subnetwork(2, 3), states[1],
             Box(np.zeros(2), 1e-6 * np.ones(2))),
        ]
        verdicts = screen_containments(subproblems)
        assert verdicts[0] is True and verdicts[1] is True
        assert verdicts[2] is True
        assert verdicts[3] is None  # too tight: must fall back, not lie
        for (subnet, source, target), verdict in zip(subproblems, verdicts):
            if verdict is True:
                values = subnet.forward(source.sample(300, rng))
                assert np.all(values >= target.lower - 1e-9)
                assert np.all(values <= target.upper + 1e-9)

    def test_unsupported_activation_abstains(self):
        from repro.nn.layers import Sigmoid

        net = Network([Dense(2, 2, rng=np.random.default_rng(0)), Sigmoid()],
                      input_dim=2)
        verdict = screen_containments(
            [(net, Box(np.zeros(2), np.ones(2)),
              Box(-10 * np.ones(2), 10 * np.ones(2)))])
        assert verdict == [None]

    def test_empty_input(self):
        assert screen_containments([]) == []


class TestProp45Prescreen:
    @pytest.fixture(scope="class")
    def verified(self):
        from repro.core import VerificationProblem
        from repro.domains.propagate import inductive_states

        net = random_relu_network([3, 8, 6, 4, 1], seed=3, weight_scale=0.6)
        din = Box(np.zeros(3), 0.7 * np.ones(3))
        sn = inductive_states(net, din, 0.02)[-1]
        dout = sn.inflate(0.25 * sn.widths.max() + 0.1)
        base = VerificationEngine().baseline(
            VerificationProblem(net, din, dout))
        assert base.holds
        return net, base.artifacts

    @staticmethod
    def _direct(artifacts, network, cuts):
        """Each ``[a:b]`` segment's own containment check, no screen."""
        from repro.exact.verify import _check_containment

        states, problem = artifacts.states, artifacts.problem
        n = network.num_blocks
        return [_check_containment(
            network.subnetwork(a, b),
            problem.din if a == 0 else states.layer(a - 1),
            problem.dout if b == n else states.layer(b - 1)).holds
            for a, b in zip(cuts[:-1], cuts[1:])]

    def test_prop4_verdict_unchanged_and_screened(self, verified):
        net, artifacts = verified
        tuned = net.perturb(1e-6, np.random.default_rng(1))
        fast = VerificationEngine().verify(PropositionSpec(
            kind=4, artifacts=artifacts, new_network=tuned)).result
        direct = self._direct(artifacts, tuned,
                              list(range(tuned.num_blocks + 1)))
        assert [s.holds for s in fast.subproblems] == direct
        assert fast.holds is True
        assert any("pre-screen" in s.detail for s in fast.subproblems)

    def test_prop5_verdict_unchanged(self, verified):
        net, artifacts = verified
        tuned = net.perturb(1e-6, np.random.default_rng(2))
        fast = VerificationEngine().verify(PropositionSpec(
            kind=5, artifacts=artifacts, new_network=tuned,
            alphas=(2,))).result
        direct = self._direct(artifacts, tuned, [0, 2, tuned.num_blocks])
        assert [s.holds for s in fast.subproblems] == direct
        expected = True if all(h is True for h in direct) else \
            False if False in direct else None
        assert fast.holds is expected


class TestMonitorBatching:
    def test_observe_batch_matches_row_by_row(self, rng):
        feats = rng.uniform(size=(60, 4))
        window = rng.normal(loc=0.5, scale=0.8, size=(40, 4))
        loop_mon = BoxMonitor(buffer=0.01)
        loop_mon.calibrate(feats)
        flags_loop = np.array([loop_mon.observe(row) for row in window])
        batch_mon = BoxMonitor(buffer=0.01)
        batch_mon.calibrate(feats)
        flags_batch = batch_mon.observe_batch(window)
        np.testing.assert_array_equal(flags_batch, flags_loop)
        assert batch_mon.out_of_bound_count == loop_mon.out_of_bound_count
        assert batch_mon.enlarged_box() == loop_mon.enlarged_box()
        for a, b in zip(batch_mon.events, loop_mon.events):
            assert a.step == b.step
            assert a.excess == pytest.approx(b.excess)
            assert a.dimensions == b.dimensions

    def test_observe_batch_dim_mismatch(self, rng):
        mon = BoxMonitor()
        mon.calibrate(rng.uniform(size=(10, 3)))
        with pytest.raises(MonitorError):
            mon.observe_batch(np.zeros((5, 4)))

    def test_screen_window_against_states(self, rng):
        net = random_relu_network([3, 8, 2], seed=6, weight_scale=0.7)
        feats = rng.uniform(size=(80, 3))
        mon = BoxMonitor(buffer=0.05)
        din = mon.calibrate(feats)
        states = get_propagator("box").propagate(net, din)
        window = np.vstack([feats[:10], feats[:2] + 50.0])
        mask = mon.screen_window(window, network=net, states=states)
        assert mask[:10].all() and not mask[10:].any()

    def test_screen_window_rejects_half_specified_state_check(self, rng):
        net = random_relu_network([3, 8, 2], seed=6, weight_scale=0.7)
        mon = BoxMonitor()
        din = mon.calibrate(rng.uniform(size=(20, 3)))
        states = get_propagator("box").propagate(net, din)
        with pytest.raises(MonitorError):
            mon.screen_window(rng.uniform(size=(5, 3)), states=states)
        with pytest.raises(MonitorError):
            mon.screen_window(rng.uniform(size=(5, 3)), network=net)

    def test_screen_states_flags_escapes(self, rng):
        net = random_relu_network([3, 8, 2], seed=6, weight_scale=0.7)
        box = Box(np.zeros(3), np.ones(3))
        states = get_propagator("box").propagate(net, box)
        inside = screen_states(net, states, box.sample(50, rng))
        assert inside.all()
        shrunk = [Box(s.lower, s.lower + 1e-9 * np.ones(s.dim))
                  for s in states]
        assert not screen_states(net, shrunk, box.sample(50, rng)).all()


class TestSharedPool:
    def test_run_parallel_reuses_module_pool(self):
        from repro.core import parallel, run_parallel

        # workers=1 always fits the machine-sized shared pool, so both
        # calls must go through (and lazily create) the module-level pool.
        tasks = [(f"t{i}", lambda i=i: i + 1) for i in range(6)]
        first = run_parallel(tasks, workers=1)
        pool_after_first = parallel._POOL
        second = run_parallel(tasks, workers=1)
        assert parallel._POOL is pool_after_first is not None
        assert [v for _, v, _ in first] == [v for _, v, _ in second] == \
            [1, 2, 3, 4, 5, 6]

    def test_nested_run_parallel_does_not_deadlock(self):
        import os

        from repro.core import run_parallel

        def leaf(i, j):
            # Depth 3: must keep diverting to private pools, not queue on
            # the shared pool behind its own blocked ancestors.
            rows = run_parallel([(f"leaf{k}", lambda k=k: i * 100 + j * 10 + k)
                                 for k in range(2)], workers=2)
            return [v for _, v, _ in rows]

        def inner(i):
            rows = run_parallel([(f"inner{j}", lambda j=j: leaf(i, j))
                                 for j in range(2)], workers=2)
            return [v for _, v, _ in rows]

        width = max(4, (os.cpu_count() or 1) + 2)
        outer = run_parallel([(f"outer{i}", lambda i=i: inner(i))
                              for i in range(width)], workers=width)
        assert [v for _, v, _ in outer] == \
            [[[i * 100, i * 100 + 1], [i * 100 + 10, i * 100 + 11]]
             for i in range(width)]

    def test_workers_beyond_machine_width_run_concurrently(self):
        import os
        import threading

        from repro.core import run_parallel

        width = (os.cpu_count() or 1) + 3
        barrier = threading.Barrier(width, timeout=10)

        def rendezvous(i):
            barrier.wait()  # only passes if all `width` tasks run at once
            return i

        rows = run_parallel([(f"b{i}", lambda i=i: rendezvous(i))
                             for i in range(width)], workers=width)
        assert [v for _, v, _ in rows] == list(range(width))

    def test_concurrent_callers_cannot_starve_each_other(self, monkeypatch):
        # Two simultaneous calls whose tasks rendezvous intra-call: the
        # width reservation must keep their submissions from interleaving
        # onto a shared pool too small for both.
        import threading

        from repro.core import parallel, run_parallel

        monkeypatch.setattr(parallel, "_POOL_SIZE", 4)
        monkeypatch.setattr(parallel, "_POOL", None)
        monkeypatch.setattr(parallel, "_RESERVED", 0)

        outcomes = {}

        def caller(tag):
            barrier = threading.Barrier(3, timeout=10)
            rows = run_parallel(
                [(f"{tag}{i}", lambda i=i: (barrier.wait(), i)[1])
                 for i in range(3)], workers=3)
            outcomes[tag] = [v for _, v, _ in rows]

        threads = [threading.Thread(target=caller, args=(t,)) for t in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert outcomes == {"a": [0, 1, 2], "b": [0, 1, 2]}
        assert parallel._RESERVED == 0
