"""Tests for the exact verification stack: LP, MILP, BaB, splitting."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (ContainmentSpec, MaximizeSpec, OutputRangeSpec,
                       VerificationEngine, VerifyConfig)
from repro.domains import Box
from repro.domains.propagate import output_box
from repro.errors import DomainError, SerializationError
from repro.exact import (
    BaBSolver,
    NetworkEncoding,
    check_containment_split,
    solve_lp,
    solve_milp,
)
from repro.exact.bab import BAB_NODE_LIMIT, BAB_REFUTED
from repro.exact.verify import (_behind_activation, _check_exact,
                                _output_range_exact)
from repro.nn import Dense, LeakyReLU, Network, random_relu_network


class TestLP:
    def test_simple_optimum(self):
        # min -x - y st x + y <= 1, x,y >= 0  -> value -1
        res = solve_lp(np.array([-1.0, -1.0]),
                       a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]),
                       bounds=[(0, None), (0, None)])
        assert res.optimal
        assert res.value == pytest.approx(-1.0)

    def test_infeasible(self):
        res = solve_lp(np.array([1.0]),
                       a_ub=np.array([[1.0], [-1.0]]),
                       b_ub=np.array([-2.0, 1.0]))
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp(np.array([-1.0]))
        assert res.status == "unbounded"


class TestEncoding:
    def test_unstable_neuron_detection(self, fig2, enlarged_box2):
        enc = NetworkEncoding(fig2, enlarged_box2)
        pairs = enc.unstable_neurons()
        # All three first-layer neurons cross zero on [-1,1.1]^2.
        assert all(p[0] == 0 for p in pairs[:3])
        assert len(pairs) >= 3

    def test_stability_labels(self, fig2, enlarged_box2):
        enc = NetworkEncoding(fig2, enlarged_box2)
        labels = {enc.neuron_stability(0, i) for i in range(3)}
        assert labels == {"unstable"}

    def test_lp_relaxation_contains_executions(self, fig2, enlarged_box2, rng):
        """Every concrete execution satisfies the LP relaxation rows."""
        enc = NetworkEncoding(fig2, enlarged_box2)
        system = enc.build_lp()
        for x in enlarged_box2.sample(50, rng):
            h = fig2.forward_blocks(x, 1)
            z1 = fig2.blocks()[0].dense.forward(x)
            z2 = fig2.blocks()[1].dense.forward(h)
            a2 = np.maximum(z2, 0)
            full = np.concatenate([x, z1, h, z2, a2])
            if system.a_eq is not None:
                np.testing.assert_allclose(system.a_eq @ full, system.b_eq,
                                           atol=1e-9)
            if system.a_ub is not None:
                assert np.all(system.a_ub @ full <= system.b_ub + 1e-9)

    def test_objective_dim_check(self, fig2, enlarged_box2):
        enc = NetworkEncoding(fig2, enlarged_box2)
        with pytest.raises(DomainError):
            enc.output_objective(np.ones(3))


class TestSplitColumn:
    """The branching rule: among free unstable neurons the LP point
    violates, the largest triangle-row score ``dual_ub[tri_row] *
    tri_rhs`` (ties to the lowest column), else the largest violation."""

    @pytest.fixture
    def node(self, fig2, enlarged_box2):
        """A hand-built node on Fig. 2: an LP point whose first three
        (block-0) neurons violate ``a = relu(z)`` by 1.0, 0.2 and 0.5,
        and a zero multiplier row to fill in."""
        solver = BaBSolver(fig2, enlarged_box2)
        enc = solver.encoding
        base = enc._lp_base()
        assert list(base.tri_row >= 0) == [True] * 4  # all four unstable
        x = np.zeros(enc.num_continuous)
        z = np.array([-0.5, 0.5, 0.25, 1.0])
        a = np.array([1.0, 0.7, 0.75, 1.0])
        x[enc._z_cols], x[enc._a_cols] = z, a
        duals = np.zeros(enc.dual_rows()[0])
        return solver, base, x, duals, np.zeros(4, dtype=np.int8)

    def test_triangle_rows_are_the_hull_rows(self, fig2, enlarged_box2):
        enc = NetworkEncoding(fig2, enlarged_box2)
        base = enc._lp_base()
        a_ub = base.a_ub.toarray()
        for column in range(4):
            row = base.tri_row[column]
            z, a = enc._z_cols[column], enc._a_cols[column]
            assert a_ub[row, a] == 1.0 and a_ub[row, z] < 0.0
            assert np.count_nonzero(a_ub[row]) == 2
            assert base.b_ub[row] == base.tri_rhs[column] > 0.0

    def test_score_overrides_the_largest_gap(self, node):
        solver, base, x, duals, phases = node
        assert solver._split_column(x, phases, duals) == 0  # max-gap
        duals[base.tri_row[1]] = 1.0
        assert solver._split_column(x, phases, duals) == 1

    def test_ties_go_to_the_lowest_column(self, node):
        solver, base, x, duals, phases = node
        assert base.tri_rhs[0] == base.tri_rhs[1]  # Fig. 2 symmetry
        duals[base.tri_row[[1, 0]]] = 2.0
        x[solver.encoding._a_cols[1]] = 2.0  # now the larger gap
        assert solver._split_column(x, phases, duals) == 0

    def test_zero_or_absent_duals_fall_back_to_the_largest_gap(self, node):
        solver, base, x, duals, phases = node
        for row in (duals, None):
            assert solver._split_column(x, phases, row) == 0
            phases[0] = 1  # a fixed neuron is never split again
            assert solver._split_column(x, phases, row) == 2
            phases[0] = 0
        # A score on a column the point does not violate is ignored.
        duals[base.tri_row[3]] = 5.0
        assert solver._split_column(x, phases, duals) == 0

    def test_activation_consistent_point_is_a_leaf(self, node):
        solver, base, x, duals, phases = node
        enc = solver.encoding
        z = x[enc._z_cols]
        x[enc._a_cols] = np.maximum(z, 0.0) + solver.tol / 2  # within tol
        duals[base.tri_row] = 1.0
        assert solver._split_column(x, phases, duals) is None


class TestMILP:
    def test_fig2_equation2(self, fig2, enlarged_box2):
        """The paper's Equation 2: exact max of n4 over [-1,1.1]^2 is 6.2."""
        enc = NetworkEncoding(fig2, enlarged_box2)
        system = enc.build_milp()
        c = enc.output_objective(np.array([1.0]), num_vars=system.num_vars)
        res = solve_milp(c, system, maximize=True)
        assert res.optimal
        assert res.value == pytest.approx(6.2, abs=1e-6)

    def test_milp_matches_bab_on_random_nets(self):
        for seed in range(3):
            net = random_relu_network([2, 4, 3, 1], seed=seed, weight_scale=1.0)
            box = Box(-np.ones(2), np.ones(2))
            enc = NetworkEncoding(net, box)
            system = enc.build_milp()
            c = enc.output_objective(np.array([1.0]), num_vars=system.num_vars)
            milp = solve_milp(c, system, maximize=True)
            bab = VerificationEngine().verify(MaximizeSpec(
                network=net, input_box=box, objective=np.array([1.0]))).result
            assert milp.value == pytest.approx(bab.upper_bound, abs=1e-5)

    def test_infeasible_milp(self):
        from repro.exact.encoding import LinearSystem

        system = LinearSystem(
            num_vars=1,
            a_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([-2.0, 1.0]),
            a_eq=None, b_eq=None, bounds=[(None, None)],
            integer_mask=np.array([False]))
        res = solve_milp(np.array([1.0]), system)
        assert res.status == "infeasible"


class TestBaB:
    def test_fig2_exact_max(self, fig2, enlarged_box2):
        res = VerificationEngine().verify(MaximizeSpec(
            network=fig2, input_box=enlarged_box2,
            objective=np.array([1.0]))).result
        assert res.status == "optimal"
        assert res.upper_bound == pytest.approx(6.2, abs=1e-6)
        # the witness achieves the optimum
        np.testing.assert_allclose(
            fig2.forward(res.witness)[0], 6.2, atol=1e-6)

    def test_threshold_proved(self, fig2, enlarged_box2):
        res = VerificationEngine().verify(MaximizeSpec(
            network=fig2, input_box=enlarged_box2, objective=np.array([1.0]),
            threshold=12.0)).result
        assert res.status in ("threshold_proved", "optimal")
        assert res.upper_bound <= 12.0 + 1e-6

    def test_threshold_refuted_with_witness(self, fig2, enlarged_box2):
        res = VerificationEngine().verify(MaximizeSpec(
            network=fig2, input_box=enlarged_box2, objective=np.array([1.0]),
            threshold=5.0)).result
        assert res.status == "threshold_refuted"
        assert fig2.forward(res.witness)[0] > 5.0

    def test_min_max_bracket_samples(self, rng):
        net = random_relu_network([3, 6, 5, 2], seed=5, weight_scale=0.9)
        box = Box(-0.7 * np.ones(3), 0.7 * np.ones(3))
        c = np.array([1.0, -0.5])
        hi, lo = (VerificationEngine().verify(MaximizeSpec(
            network=net, input_box=box, objective=c,
            minimize=minimize)).result for minimize in (False, True))
        vals = net.forward(box.sample(3000, rng)) @ c
        assert vals.max() <= hi.upper_bound + 1e-6
        assert vals.min() >= lo.upper_bound - 1e-6
        # tight: brute force approaches the certified optimum
        assert hi.upper_bound - vals.max() < 0.2
        assert vals.min() - lo.upper_bound < 0.2

    def test_leaky_relu_supported(self, rng):
        net = Network(
            [Dense(2, 5, rng=np.random.default_rng(0)), LeakyReLU(0.2),
             Dense(5, 1, rng=np.random.default_rng(1))], input_dim=2)
        box = Box(-np.ones(2), np.ones(2))
        res = VerificationEngine().verify(MaximizeSpec(
            network=net, input_box=box, objective=np.array([1.0]))).result
        vals = net.forward(box.sample(4000, rng)).reshape(-1)
        assert res.upper_bound >= vals.max() - 1e-6
        assert res.upper_bound - vals.max() < 0.1

    def test_node_limit_reports_valid_bound(self, rng):
        net = random_relu_network([4, 12, 10, 1], seed=2, weight_scale=1.2)
        box = Box(-np.ones(4), np.ones(4))
        solver = BaBSolver(net, box, node_limit=1)
        res = solver.maximize(np.array([1.0]))
        vals = net.forward(box.sample(2000, rng)).reshape(-1)
        assert res.upper_bound >= vals.max() - 1e-6

    def test_output_range_exact_matches_bruteforce(self, rng):
        net = random_relu_network([2, 5, 4, 2], seed=8, weight_scale=1.0)
        box = Box(-np.ones(2), np.ones(2))
        exact = VerificationEngine().verify(OutputRangeSpec(
            network=net, input_box=box)).output_range
        vals = net.forward(box.sample(20000, rng))
        assert np.all(vals.min(axis=0) >= exact.lower - 1e-6)
        assert np.all(vals.max(axis=0) <= exact.upper + 1e-6)
        assert np.max(exact.upper - vals.max(axis=0)) < 0.1


class TestSplitting:
    def test_safe_verdict(self, fig2, enlarged_box2):
        target = Box(np.array([-1.0]), np.array([7.0]))
        res = check_containment_split(fig2, enlarged_box2, target)
        assert res.status == "safe"

    def test_unsafe_with_counterexample(self, fig2, enlarged_box2):
        target = Box(np.array([0.0]), np.array([3.0]))
        res = check_containment_split(fig2, enlarged_box2, target)
        assert res.status == "unsafe"
        assert not target.contains_point(fig2.forward(res.counterexample))

    def test_unknown_on_budget(self, fig2, enlarged_box2):
        target = Box(np.array([0.0]), np.array([6.21]))  # barely true
        res = check_containment_split(fig2, enlarged_box2, target,
                                      max_boxes=2, max_depth=1)
        assert res.status in ("unknown", "safe")


def _containment(network, box, target, method=None):
    """``∀x ∈ box : f(x) ∈ target`` as an engine ContainmentSpec."""
    return VerificationEngine().verify(ContainmentSpec(
        network=network, input_box=box, target=target, method=method)).result


class TestCheckContainment:
    def test_exact_proves_tight_target(self, fig2, enlarged_box2):
        target = Box(np.array([0.0]), np.array([6.2000001]))
        res = _containment(fig2, enlarged_box2, target, method="exact")
        assert res.holds is True

    def test_exact_refutes_with_counterexample(self, fig2, enlarged_box2):
        target = Box(np.array([0.0]), np.array([6.0]))
        res = _containment(fig2, enlarged_box2, target, method="exact")
        assert res.holds is False
        assert res.counterexample is not None
        assert res.violation > 0

    def test_symbolic_inconclusive_on_tight_target(self, fig2, enlarged_box2):
        target = Box(np.array([0.0]), np.array([6.5]))
        res = _containment(fig2, enlarged_box2, target, method="symbolic")
        assert res.holds is None  # symbolic bound is ~8.8 here

    def test_exact_proves_what_symbolic_loses(self, fig2, enlarged_box2):
        # Fig. 1's point: where the abstract transformer loses (the
        # symbolic test above), exact local solving still decides.
        target = Box(np.array([0.0]), np.array([6.5]))
        res = _containment(fig2, enlarged_box2, target, method="exact")
        assert (res.holds, res.method) == (True, "exact")
        assert res.lp_solves > 0

    def test_dim_mismatch(self, fig2, enlarged_box2):
        with pytest.raises(DomainError):
            _containment(fig2, enlarged_box2, Box(np.zeros(2), np.ones(2)))

    @pytest.mark.parametrize("method", ["magic", "auto"])
    def test_unknown_method(self, fig2, enlarged_box2, method):
        # The spec refuses it when built, before any engine sees it; the
        # containment layer refuses it too when called directly.
        from repro.exact.verify import _check_containment

        target = Box(np.zeros(1), np.ones(1))
        with pytest.raises(SerializationError,
                           match="method must be null or one of"):
            _containment(fig2, enlarged_box2, target, method=method)
        with pytest.raises(DomainError, match="unknown method"):
            _check_containment(fig2, enlarged_box2, target, method=method)


class TestExactSymbolicScreen:
    """``exact`` containment searches only the target bounds the
    symbolic-interval output box leaves open, in the order output ``i``,
    max then min."""

    @pytest.fixture
    def net3(self):
        # Symbolic box ~[-3.5, 2.3] x [-2.0, 6.7] x [-6.7, 6.9]; exact
        # range ~[-0.72, 0.59] x [-0.48, 3.02] x [-1.88, 3.34].
        return random_relu_network([3, 10, 8, 3], seed=0, weight_scale=0.9)

    @pytest.fixture
    def box3(self):
        return Box(-np.ones(3), np.ones(3))

    @pytest.fixture
    def searches(self, monkeypatch):
        """``(output, "max"|"min")`` of every BaB search a check reports
        (a min search maximises the negated objective)."""
        runs = []
        maximize_thresholds = BaBSolver.maximize_thresholds

        def spy(self, objectives):
            results = maximize_thresholds(self, objectives)
            for (c, _), _ in zip(objectives, results):
                i = int(np.flatnonzero(c)[0])
                runs.append((i, "max" if c[i] > 0 else "min"))
            return results

        monkeypatch.setattr(BaBSolver, "maximize_thresholds", spy)
        return runs

    def test_screen_proves_every_bound_without_a_search(
            self, fig2, enlarged_box2, searches):
        target = Box(np.array([-50.0]), np.array([50.0]))
        res = _check_exact(fig2, enlarged_box2, target, VerifyConfig())
        assert (res.holds, res.method, res.lp_solves, res.nodes) == \
            (True, "exact", 0, 0)
        assert searches == []

    def test_only_unproved_bounds_are_searched(self, net3, box3, searches):
        screen = output_box(net3, box3, "symbolic")
        target = Box(np.array([-5.0, -np.inf, -3.0]),
                     np.array([3.0, 5.0, 7.0]))
        # Output 0 and output 2's upper bound are proved by the screen.
        assert np.all(screen.lower[[0]] >= target.lower[[0]])
        assert np.all(screen.upper[[0, 2]] <= target.upper[[0, 2]])
        assert screen.upper[1] > 5.0 and screen.lower[2] < -3.0
        config = VerifyConfig()
        res = _check_exact(net3, box3, target, config)
        assert res.holds is True
        assert searches == [(1, "max"), (2, "min")]
        solver = BaBSolver.from_config(net3, box3, config)
        expected = solver.maximize(np.array([0.0, 1.0, 0.0]),
                                   threshold=5.0).lp_solves
        expected += solver.minimize(np.array([0.0, 0.0, 1.0]),
                                    threshold=-3.0).lp_solves
        assert expected > 0
        assert res.lp_solves == expected

    def test_refutation_same_with_and_without_screen(self, net3, box3,
                                                     searches, monkeypatch):
        from repro.exact import verify

        # Output 0 is proved by the screen; output 1's max (~3.02) breaks
        # the upper bound 2.
        target = Box(np.array([-5.0, -np.inf, -np.inf]),
                     np.array([3.0, 2.0, np.inf]))
        config = VerifyConfig()
        screened = _check_exact(net3, box3, target, config)
        assert searches == [(1, "max")]
        unbounded = Box(np.full(3, -np.inf), np.full(3, np.inf))
        monkeypatch.setattr(verify, "output_box", lambda *a, **k: unbounded)
        unscreened = _check_exact(net3, box3, target, config)
        assert searches[1:] == [(0, "max"), (0, "min"), (1, "max")]
        for res in (screened, unscreened):
            assert res.holds is False
            assert res.detail == "output 1 exceeds upper bound"
            assert net3.forward(res.counterexample)[1] > 2.0
        assert np.array_equal(screened.counterexample,
                              unscreened.counterexample)
        assert screened.violation == unscreened.violation

    def test_exact_propagates_symbolically_once(self, fig2, enlarged_box2,
                                                monkeypatch):
        from repro.exact import verify

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2] if len(args) > 2 else kwargs["domain"])
            return output_box(*args, **kwargs)

        monkeypatch.setattr(verify, "output_box", counting)
        target = Box(np.array([0.0]), np.array([6.5]))  # symbolic ~8.8
        res = _containment(fig2, enlarged_box2, target, method="exact")
        assert (res.holds, res.method) == (True, "exact")
        assert calls == ["symbolic"]


def _reference_containment(net, box, target, config, screen=None):
    """``(holds, detail, lp_solves)`` of threshold searches on the
    untouched network, output ``i`` max then min, skipping the bounds
    ``screen`` (a box over the outputs, or ``None``) already proves."""
    solver = BaBSolver.from_config(net, box, config)
    d = net.output_dim
    lp_solves = 0
    for i in range(d):
        c = np.zeros(d)
        c[i] = 1.0
        hi, lo = float(target.upper[i]), float(target.lower[i])
        for sense, bound in (("max", hi), ("min", lo)):
            if not np.isfinite(bound):
                continue
            if screen is not None and (screen.upper[i] <= hi if sense == "max"
                                       else screen.lower[i] >= lo):
                continue
            res = solver.maximize(c, threshold=bound) if sense == "max" \
                else solver.minimize(c, threshold=bound)
            lp_solves += res.lp_solves
            if res.status == BAB_REFUTED:
                side = "exceeds upper" if sense == "max" else "below lower"
                return False, f"output {i} {side} bound", lp_solves
            if res.status == BAB_NODE_LIMIT:
                return None, f"node limit on output {i} ({sense})", lp_solves
    return True, "", lp_solves


def _with_final(net, act):
    """``net`` with its final activation replaced by ``act``."""
    return Network(net.layers[:-1] + [act], input_dim=net.input_dim)


class TestBehindFinalActivation:
    """On a network ending in a ReLU or LeakyReLU, ``exact`` containment
    checks the final pre-activations against the preimage bounds; the
    decision and detail are those of searches on the real network."""

    TOL = VerifyConfig().tol

    @pytest.fixture
    def head(self):
        # A 4-8-6 ReLU head whose 6 output neurons are all unstable over
        # [-1, 1]^4, so the real network's encoding relaxes them.
        return random_relu_network([4, 8, 6], seed=3, weight_scale=1.0,
                                   final_activation=True)

    @pytest.fixture
    def box4(self):
        return Box(-np.ones(4), np.ones(4))

    @pytest.mark.parametrize("lower,upper,expected", [
        # ReLU: hi >= 0 kept; lo - tol <= 0 dropped; lo - tol > 0 kept.
        ([0.5, 0.0, -1.0, 1e-6, -np.inf], [1.0, 0.0, 2.0, 1.0, np.inf],
         [0.5, -np.inf, -np.inf, -np.inf, -np.inf]),
        ([0.0, -1.0, 0.0, 0.0, 0.0], [1.0, -0.5, 1.0, 1.0, 1.0], None),
    ])
    def test_relu_preimage_rules(self, lower, upper, expected):
        net = random_relu_network([2, 5], seed=0, final_activation=True)
        target = Box(np.array(lower), np.array(upper))
        behind = _behind_activation(net, target, self.TOL)
        if expected is None:
            assert behind is None
            return
        head, bounds = behind
        assert head.block(0).activation is None
        assert np.array_equal(head.forward(np.ones(2)),
                              net.layers[0].forward(np.ones(2)))
        assert np.array_equal(bounds.lower, np.array(expected))
        assert np.array_equal(bounds.upper, target.upper)

    @pytest.mark.parametrize("lower,kept", [
        ([0.5, 2e-6, -np.inf], True),
        ([0.5, 0.0, -np.inf], False),   # 0 - tol < 0 needs a division
        ([0.5, -0.3, -np.inf], False),
    ])
    def test_leaky_preimage_rules(self, lower, kept):
        net = _with_final(random_relu_network([2, 3], seed=0,
                                              final_activation=True),
                          LeakyReLU(0.1))
        target = Box(np.array(lower), np.full(3, 4.0))
        behind = _behind_activation(net, target, self.TOL)
        assert (behind is not None) == kept
        if kept:
            assert np.array_equal(behind[1].lower, target.lower)

    def test_linear_output_stays_on_the_network(self):
        net = random_relu_network([2, 4, 3], seed=0)
        target = Box(np.zeros(3), np.ones(3))
        assert _behind_activation(net, target, self.TOL) is None

    def test_relu_head_searches_pre_activations(self, head, box4,
                                                monkeypatch):
        """Pinned by content: no output neuron is relaxed or branched on,
        and fewer LPs are solved than by the screened searches on the
        real network, with the same decision."""
        config = VerifyConfig()
        post = output_box(head, box4, "symbolic")
        target = Box(np.zeros(6), 0.8 * post.upper)
        real = NetworkEncoding(head, box4)
        assert {k for k, _ in real.unstable_neurons()} == {0, 1}
        encodings = []
        maximize = BaBSolver.maximize
        maximize_thresholds = BaBSolver.maximize_thresholds

        def spy(self, c, *args, **kwargs):
            encodings.append(self.encoding)
            return maximize(self, c, *args, **kwargs)

        def spy_check(self, objectives):
            encodings.append(self.encoding)
            return maximize_thresholds(self, objectives)

        monkeypatch.setattr(BaBSolver, "maximize", spy)
        monkeypatch.setattr(BaBSolver, "maximize_thresholds", spy_check)
        res = _check_exact(head, box4, target, config)
        assert encodings
        for enc in encodings:
            assert enc.network.block(enc.network.num_blocks - 1) \
                .activation is None
            assert {k for k, _ in enc.unstable_neurons()} == {0}
        encodings.clear()
        holds, detail, lp_solves = _reference_containment(
            head, box4, target, config, screen=post)
        assert all(enc.network.block(1).activation is not None
                   for enc in encodings)  # the reference's real network
        assert (res.holds, res.detail) == (holds, detail) == (True, "")
        assert 0 < res.lp_solves < lp_solves

    def test_refutation_is_measured_on_the_real_network(self, head, box4):
        post = output_box(head, box4, "symbolic")
        for target, side in (
                (Box(np.zeros(6), 0.5 * post.upper), "exceeds upper"),
                (Box(np.full(6, 0.01), np.full(6, np.inf)), "below lower")):
            res = _check_exact(head, box4, target, VerifyConfig())
            holds, detail, _ = _reference_containment(head, box4, target,
                                                      VerifyConfig())
            assert (res.holds, res.detail) == (holds, detail)
            assert res.holds is False and side in res.detail
            assert box4.contains_point(res.counterexample, tol=0.0)
            i = int(res.detail.split()[1])
            y = head.forward(res.counterexample)[i]
            if side == "exceeds upper":
                assert res.violation == y - target.upper[i] > self.TOL
            else:
                # The witness drives the pre-activation below 0, where the
                # real output is 0: the violation is the bound itself.
                assert y == 0.0
                assert res.violation == target.lower[i] == 0.01

    def test_relu_lower_within_tol_of_zero_holds(self, head, box4):
        """``relu(z) >= lo - tol`` always holds for ``0 < lo <= tol``,
        though ``z >= lo`` does not."""
        target = Box(np.full(6, 5e-7), np.full(6, np.inf))
        res = _check_exact(head, box4, target, VerifyConfig())
        holds, detail, _ = _reference_containment(head, box4, target,
                                                  VerifyConfig())
        assert (res.holds, res.detail) == (holds, detail) == (True, "")


@st.composite
def _final_activation_cases(draw):
    """A small uniform-weight net ending in a ReLU or LeakyReLU over a
    radius-0.1 box, and a target mixing kept, dropped and fallback
    bounds: ``lo > 0``, ``lo`` within ``tol`` of 0, ``hi < 0`` and
    negative LeakyReLU lower bounds.  Only output ``hot`` (none in a
    ``safe`` target) may draw a bound inside the sampled output range, so
    most of the other bounds hold and ``hot``'s decides."""
    seed = draw(st.integers(0, 2 ** 16))
    dims = draw(st.sampled_from([(3, 6, 4), (4, 8, 3), (2, 5, 4, 3)]))
    alpha = draw(st.sampled_from([None, 0.0, 0.1, 0.5]))
    net = random_relu_network(list(dims), seed=seed, weight_scale=1.0,
                              final_activation=True)
    hot = draw(st.sampled_from([None] + list(range(net.output_dim))))
    if alpha is not None:
        net = _with_final(net, LeakyReLU(alpha))
    rng = np.random.default_rng(seed)
    center = rng.uniform(-1.0, 1.0, size=dims[0])
    box = Box(center - 0.1, center + 0.1)
    outputs = net.forward(box.sample(128, rng))
    seen_lo, seen_hi = outputs.min(axis=0), outputs.max(axis=0)
    lower, upper = [], []
    for i in range(net.output_dim):
        safe = i != hot
        span = max(seen_hi[i] - seen_lo[i], 0.05)
        frac = draw(st.floats(0.0, 0.6))
        above, below = seen_hi[i] + frac * span, seen_lo[i] - frac * span
        hi = {"inf": np.inf, "above": above, "below": seen_hi[i] - frac * span,
              "zero": 0.0, "negative": -0.05}[draw(st.sampled_from(
                  ["inf", "above"] if safe else
                  ["inf", "above", "below", "zero", "negative"]))]
        lo = {"-inf": -np.inf, "below": below,
              "above": seen_lo[i] + frac * span, "zero": 0.0, "tiny": 5e-7,
              "negative": -0.05}[draw(st.sampled_from(
                  ["-inf", "below", "above", "zero", "tiny", "negative"]))]
        upper.append(hi)
        lower.append(min(lo, below) if safe else lo)
    lower = np.minimum(lower, upper)
    return net, box, Box(lower, np.array(upper))


def _milp_range(net, box, i):
    """Exact ``(min, max)`` of output ``i`` from the big-M MILP oracle."""
    enc = NetworkEncoding(net, box)
    system = enc.build_milp()
    c = np.zeros(net.output_dim)
    c[i] = 1.0
    objective = enc.output_objective(c, num_vars=system.num_vars)
    values = []
    for maximize in (False, True):
        res = solve_milp(objective, system, maximize=maximize)
        assert res.status == "optimal"
        values.append(res.value)
    return values


@settings(max_examples=50, deadline=None)
@given(_final_activation_cases())
def test_behind_activation_matches_searches_on_the_real_network(case):
    net, box, target = case
    config = VerifyConfig()
    res = _check_exact(net, box, target, config)
    holds, detail, _ = _reference_containment(net, box, target, config)
    assert (res.holds, res.detail) == (holds, detail)
    if res.holds is False:
        x = res.counterexample
        assert box.contains_point(x, tol=0.0)
        i = int(res.detail.split()[1])
        y = net.forward(x)[i]
        expected = y - target.upper[i] if "exceeds" in res.detail \
            else target.lower[i] - y
        assert res.violation == expected > 0
    elif res.holds:
        for i in range(net.output_dim):
            low, high = _milp_range(net, box, i)
            assert high <= target.upper[i] + 2 * config.tol
            assert low >= target.lower[i] - 2 * config.tol


def _searches_one_by_one(net, box, target, config, stop=True):
    """``_check_exact``'s open searches run one by one with
    ``BaBSolver.maximize``/``minimize``, in search order: ``(fields,
    runs)`` where ``fields`` are the check's ``(holds, detail,
    counterexample bytes, violation, lp_solves, nodes)`` when the loop
    stops at the first refuted or node-limit search, and ``runs`` the
    ``(status, rounds, lp_solves)`` of every search run (all of them
    unless ``stop``)."""
    behind = _behind_activation(net, target, config.tol)
    searched, bounds = behind if behind is not None else (net, target)
    screen = output_box(searched, box, "symbolic")
    solver = BaBSolver.from_config(searched, box, config)
    d = net.output_dim
    fields = None
    runs = []
    lp_solves = nodes = 0
    for i in range(d):
        c = np.zeros(d)
        c[i] = 1.0
        for sense, bound in (("max", float(bounds.upper[i])),
                             ("min", float(bounds.lower[i]))):
            if not np.isfinite(bound) or (
                    screen.upper[i] <= bound if sense == "max"
                    else screen.lower[i] >= bound):
                continue
            res = solver.maximize(c, threshold=bound) if sense == "max" \
                else solver.minimize(c, threshold=bound)
            runs.append((res.status, res.rounds, res.lp_solves))
            if fields is not None:
                continue
            lp_solves += res.lp_solves
            nodes += res.nodes
            if res.status == BAB_REFUTED:
                y = float(net.forward(res.witness)[i])
                violation, side = (y - bound, "exceeds upper") \
                    if sense == "max" else (bound - y, "below lower")
                fields = (False, f"output {i} {side} bound",
                          res.witness.tobytes(), violation, lp_solves, nodes)
            elif res.status == BAB_NODE_LIMIT:
                fields = (None, f"node limit on output {i} ({sense})", None,
                          0.0, lp_solves, nodes)
            if fields is not None and stop:
                return fields, runs
    return fields or (True, "", None, 0.0, lp_solves, nodes), runs


@functools.lru_cache(maxsize=None)
def _generated_range(seed):
    """A generated 4-16-12-3 net, ``[-1, 1]^4`` and its exact range."""
    net = random_relu_network([4, 16, 12, 3], seed=seed)
    box = Box(-np.ones(4), np.ones(4))
    exact, _, _ = _output_range_exact(net, box, VerifyConfig(node_limit=5000))
    return net, box, exact


def _fields(res):
    return (res.holds, res.detail, None if res.counterexample is None
            else res.counterexample.tobytes(), res.violation, res.lp_solves,
            res.nodes)


class TestLockstepCheck:
    """``_check_exact`` runs its threshold searches in shared frontier
    rounds, and reports what running them one by one reports: the same
    decision, detail, witness bits, violation, ``lp_solves`` and
    ``nodes``, with the LPs of searches the one-by-one order never runs
    left out."""

    PROVED = ("threshold_proved", "optimal")

    @staticmethod
    def _case(seed, margins, node_limit):
        """A generated 4-16-12-3 net over ``[-1, 1]^4`` and a target
        ``margins`` (fractions of each output's exact range) above its
        maxima, well below its minima."""
        net, box, exact = _generated_range(seed)
        span = exact.upper - exact.lower
        target = Box(exact.lower - 0.3 * span,
                     exact.upper + np.asarray(margins) * span)
        return net, box, target, VerifyConfig(node_limit=node_limit)

    def _check(self, case):
        net, box, target, config = case
        res = _check_exact(net, box, target, config)
        expected, _ = _searches_one_by_one(net, box, target, config)
        assert _fields(res) == expected
        return res

    def test_every_search_proved(self):
        case = self._case(0, [0.002, 0.002, 0.002], 4000)
        _, runs = _searches_one_by_one(*case, stop=False)
        assert len(runs) >= 3
        assert all(status in self.PROVED for status, _, _ in runs)
        assert sum(rounds > 1 for _, rounds, _ in runs) >= 2
        assert self._check(case).holds is True

    def test_later_root_refutes_while_an_earlier_search_proves(self):
        case = self._case(0, [0.002, 0.002, -0.5], 4000)
        _, runs = _searches_one_by_one(*case, stop=False)
        statuses = [status for status, _, _ in runs]
        first = statuses.index("threshold_refuted")
        # It refutes at its root; an earlier search is still open after
        # its own root and then proves.
        assert runs[first][1] == 1
        assert all(status in self.PROVED for status in statuses[:first])
        assert any(rounds > 1 for _, rounds, _ in runs[:first])
        res = self._check(case)
        assert res.holds is False and res.detail == \
            "output 2 exceeds upper bound"

    def test_earlier_search_refutes_after_a_later_root_refuted(self):
        case = self._case(0, [0.002, -0.02, -0.5], 4000)
        _, runs = _searches_one_by_one(*case, stop=False)
        statuses = [status for status, _, _ in runs]
        first = statuses.index("threshold_refuted")
        later = statuses.index("threshold_refuted", first + 1)
        assert runs[first][1] > 1 and runs[later][1] == 1
        assert all(status in self.PROVED for status in statuses[:first])
        res = self._check(case)
        assert res.detail == "output 1 exceeds upper bound"
        # The later search's root LP, and any LP of the searches between
        # them, counts in no total.
        assert res.lp_solves == sum(lp for _, _, lp in runs[:first + 1])
        assert res.lp_solves < sum(lp for _, _, lp in runs[:later + 1])

    def test_earlier_search_hits_its_node_limit(self):
        case = self._case(2, [0.3, 0.002, 0.002], 6)
        _, runs = _searches_one_by_one(*case, stop=False)
        statuses = [status for status, _, _ in runs]
        first = statuses.index("node_limit")
        assert first > 0
        assert all(status in self.PROVED for status in statuses[:first])
        assert "node_limit" in statuses[first + 1:]
        res = self._check(case)
        assert res.holds is None and res.detail == \
            "node limit on output 0 (min)"

    @pytest.mark.parametrize("margins,node_limit", [
        ([0.002, 0.002, 0.002], 4000),
        ([0.002, -0.02, -0.5], 4000),
        ([0.3, 0.002, 0.002], 6),
    ])
    def test_workers_are_byte_identical(self, margins, node_limit):
        net, box, target, config = self._case(
            2 if node_limit == 6 else 0, margins, node_limit)
        results = [_fields(_check_exact(net, box, target,
                                        config.replace(workers=w)))
                   for w in (1, 2, 8)]
        assert results[0] == results[1] == results[2]
