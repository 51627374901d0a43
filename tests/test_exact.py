"""Tests for the exact verification stack: LP, MILP, BaB, splitting."""

import numpy as np
import pytest

from repro.api import (ContainmentSpec, MaximizeSpec, OutputRangeSpec,
                       VerificationEngine, VerifyConfig)
from repro.domains import Box
from repro.domains.propagate import output_box
from repro.errors import DomainError
from repro.exact import (
    BaBSolver,
    NetworkEncoding,
    check_containment_split,
    solve_lp,
    solve_milp,
)
from repro.exact.verify import _check_exact
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

    def test_auto_cascades_to_exact(self, fig2, enlarged_box2):
        target = Box(np.array([0.0]), np.array([6.5]))
        res = _containment(fig2, enlarged_box2, target, method="auto")
        assert res.holds is True
        assert "exact" in res.method

    def test_dim_mismatch(self, fig2, enlarged_box2):
        with pytest.raises(DomainError):
            _containment(fig2, enlarged_box2, Box(np.zeros(2), np.ones(2)))

    def test_unknown_method(self, fig2, enlarged_box2):
        with pytest.raises(DomainError):
            _containment(fig2, enlarged_box2,
                         Box(np.zeros(1), np.ones(1)), method="magic")


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
        """``(output, "max"|"min")`` of every BaB search run (``minimize``
        maximises the negated objective)."""
        runs = []
        maximize = BaBSolver.maximize

        def spy(self, c, *args, **kwargs):
            res = maximize(self, c, *args, **kwargs)
            i = int(np.flatnonzero(c)[0])
            runs.append((i, "max" if c[i] > 0 else "min"))
            return res

        monkeypatch.setattr(BaBSolver, "maximize", spy)
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
                                                     searches):
        # Output 0 is proved by the screen; output 1's max (~3.02) breaks
        # the upper bound 2.
        target = Box(np.array([-5.0, -np.inf, -np.inf]),
                     np.array([3.0, 2.0, np.inf]))
        config = VerifyConfig()
        screened = _check_exact(net3, box3, target, config)
        assert searches == [(1, "max")]
        unbounded = Box(np.full(3, -np.inf), np.full(3, np.inf))
        unscreened = _check_exact(net3, box3, target, config, unbounded)
        assert searches[1:] == [(0, "max"), (0, "min"), (1, "max")]
        for res in (screened, unscreened):
            assert res.holds is False
            assert res.detail == "output 1 exceeds upper bound"
            assert net3.forward(res.counterexample)[1] > 2.0
        assert np.array_equal(screened.counterexample,
                              unscreened.counterexample)
        assert screened.violation == unscreened.violation

    def test_auto_propagates_symbolically_once(self, fig2, enlarged_box2,
                                               monkeypatch):
        from repro.exact import verify

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2] if len(args) > 2 else kwargs["domain"])
            return output_box(*args, **kwargs)

        monkeypatch.setattr(verify, "output_box", counting)
        target = Box(np.array([0.0]), np.array([6.5]))  # symbolic ~8.8
        res = _containment(fig2, enlarged_box2, target, method="auto")
        assert (res.holds, res.method) == (True, "auto(exact)")
        assert calls == ["symbolic"]
