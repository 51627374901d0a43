"""The fixed node layout: one LP layout for every branch-and-bound node.

Every node LP shares the encoding's one sparse base (the phase-free
triangle relaxation plus two vacuous phase rows per unstable neuron);
fixing a phase only moves bounds.  These tests pin that layout down --
shared matrices, phase fixing as bound changes, fully-stable networks,
the contradictory-phase bugfix -- check the hot-started node kernel
against the ``linprog`` oracle on it, keep the big-M MILP consistent with
the same rows, and cover the solver-side regressions: one encoding (and
one base assembly and one kernel model) per branch-and-bound solve, and
the fingerprint-keyed encoding cache.
"""

import numpy as np
import pytest

from repro.domains import Box
from repro.exact import (
    BaBSolver,
    LinearSystem,
    NetworkEncoding,
    clear_encoding_cache,
    encoding_cache_stats,
    solve_milp,
    solve_system,
)
from repro.exact.highs import NodeKernel
from repro.nn import Dense, LeakyReLU, Network, ReLU, random_relu_network


def _random_net(dims, seed, weight_scale=1.0, leaky_alpha=None):
    """Random ReLU or LeakyReLU net with a linear output block."""
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        din, dout = dims[i], dims[i + 1]
        layers.append(Dense(
            din, dout,
            weight=rng.uniform(-weight_scale, weight_scale, size=(dout, din)),
            bias=rng.uniform(-weight_scale, weight_scale, size=dout)))
        if i < len(dims) - 2:
            layers.append(ReLU() if leaky_alpha is None
                          else LeakyReLU(leaky_alpha))
    return Network(layers, input_dim=dims[0])


def _dense_copy(system):
    """The same system with dense constraint matrices."""
    return LinearSystem(system.num_vars, system.a_ub.toarray(), system.b_ub,
                        system.a_eq.toarray(), system.b_eq,
                        list(system.bounds))


def _random_phase_maps(enc, rng, count=4):
    """A few branch-and-bound-style phase maps over the unstable neurons."""
    unstable = enc.unstable_neurons()
    maps = [{}]
    for _ in range(count):
        if not unstable:
            break
        size = int(rng.integers(1, min(len(unstable), 6) + 1))
        picks = rng.choice(len(unstable), size=size, replace=False)
        maps.append({unstable[int(j)]: int(rng.choice((-1, 1)))
                     for j in picks})
    return maps


def _assert_equivalent(enc, phases, objectives):
    """The node kernel (cold, then hot-started from the root basis) and
    ``linprog`` over ``build_lp`` agree on one node."""
    system = enc.build_lp(phases)
    assert system.is_sparse
    kernel = NodeKernel(enc.build_lp())
    for c in objectives:
        oracle = solve_system(c, system)
        root = kernel.solve(c, *enc.node_bounds())
        for basis in (None, root.basis):
            res = kernel.solve(c, *enc.node_bounds(phases), basis=basis)
            assert res.status == oracle.status
            if oracle.optimal:
                assert res.value == pytest.approx(oracle.value, rel=1e-9,
                                                  abs=1e-9)


class TestSparseDenseLP:
    @pytest.mark.parametrize("dims,act,seed", [
        ([3, 12, 8, 2], "relu", 0),
        ([4, 10, 10, 3], "relu", 1),
        ([3, 14, 6, 2], "leaky", 2),
        ([2, 8, 8, 8, 1], "leaky", 3),
    ])
    def test_lp_equivalence_random_nets(self, dims, act, seed):
        rng = np.random.default_rng(seed)
        net = _random_net(dims, seed,
                          leaky_alpha=0.1 if act == "leaky" else None)
        box = Box(-np.ones(dims[0]), np.ones(dims[0]))
        enc = NetworkEncoding(net, box)
        objectives = [enc.output_objective(rng.normal(size=dims[-1]))
                      for _ in range(2)]
        for phases in _random_phase_maps(enc, rng):
            _assert_equivalent(enc, phases, objectives)

    def test_lp_matrices_match_exactly(self, fig2, enlarged_box2):
        """Every node shares the base matrices; only b_ub and the column
        bounds move, and the layout is the base rows plus 2 per unstable
        neuron."""
        enc = NetworkEncoding(fig2, enlarged_box2)
        base = enc.build_lp()
        unstable = enc.unstable_neurons()
        phase_rows = 2 * len(unstable)
        assert np.all(base.b_ub[-phase_rows:] == np.inf)
        assert np.all(np.isfinite(base.b_ub[:-phase_rows]))
        rng = np.random.default_rng(0)
        for phases in _random_phase_maps(enc, rng):
            node = enc.build_lp(phases)
            assert node.a_ub is base.a_ub and node.a_eq is base.a_eq
            np.testing.assert_array_equal(node.b_eq, base.b_eq)
            np.testing.assert_array_equal(node.b_ub[:-phase_rows],
                                          base.b_ub[:-phase_rows])
            assert np.count_nonzero(node.b_ub == 0.0) - \
                np.count_nonzero(base.b_ub == 0.0) == len(phases)
        assert base.nnz == base.a_ub.nnz + base.a_eq.nnz

    def test_fully_stable_net_has_no_inequalities(self):
        """All neurons stable: no triangle and no phase rows at all."""
        net = Network([
            Dense(2, 2, weight=np.array([[1.0, 0.5], [-0.5, 1.0]]),
                  bias=np.array([4.0, 5.0])),
            ReLU(),
            Dense(2, 1, weight=np.array([[1.0, 1.0]]), bias=np.array([0.0])),
        ], input_dim=2)
        box = Box(-np.ones(2), np.ones(2))
        enc = NetworkEncoding(net, box)
        assert enc.unstable_neurons() == []
        system = enc.build_lp()
        assert system.a_ub is None and system.b_ub is None
        c = enc.output_objective(np.array([1.0]))
        _assert_equivalent(enc, {}, [c])
        assert solve_system(c, system).value == pytest.approx(7.0, abs=1e-9)

    def test_forced_phase_only_moves_bounds(self, fig2, enlarged_box2):
        enc = NetworkEncoding(fig2, enlarged_box2)
        base = enc.build_lp()
        z = enc.z_slices[0].start
        active = enc.build_lp({(0, 0): 1})
        inactive = enc.build_lp({(0, 0): -1})
        for node in (active, inactive):
            assert node.a_ub.shape == base.a_ub.shape
            assert node.a_eq.shape == base.a_eq.shape
        first = base.b_ub.size - 2 * len(enc.unstable_neurons())
        # Active: z >= 0 and a - z <= 0; inactive: z <= 0, a - slope*z <= 0.
        assert active.bounds[z] == (0.0, None)
        assert active.b_ub[first] == 0.0 and active.b_ub[first + 1] == np.inf
        assert inactive.bounds[z] == (None, 0.0)
        assert inactive.b_ub[first] == np.inf and inactive.b_ub[first + 1] == 0.0

    def test_contradictory_phase_is_infeasible(self):
        """A forced phase fighting static stability must not be silently
        dropped (the historical dense builder took the stable branch)."""
        net = Network([
            Dense(2, 3, weight=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                  bias=np.array([3.0, -3.0, 0.0])),
            ReLU(),
            Dense(3, 1, weight=np.array([[1.0, 1.0, 1.0]]),
                  bias=np.array([0.0])),
        ], input_dim=2)
        box = Box(-np.ones(2), np.ones(2))
        enc = NetworkEncoding(net, box)
        assert enc.neuron_stability(0, 0) == "active"
        assert enc.neuron_stability(0, 1) == "inactive"
        assert enc.neuron_stability(0, 2) == "unstable"
        c = enc.output_objective(np.array([1.0]))
        kernel = NodeKernel(enc.build_lp())
        for phases in ({(0, 0): -1}, {(0, 1): 1},
                       {(0, 0): -1, (0, 2): 1}):
            res = solve_system(c, enc.build_lp(phases))
            assert res.status == "infeasible", phases
            assert kernel.solve(c, *enc.node_bounds(phases)).status == \
                "infeasible", phases
        # Consistent phases on stable neurons remain no-ops.
        free = solve_system(c, enc.build_lp()).value
        for phases in ({(0, 0): 1}, {(0, 1): -1}):
            _assert_equivalent(enc, phases, [c])
            assert solve_system(c, enc.build_lp(phases)).value == free


class TestSparseDenseMILP:
    @pytest.mark.parametrize("dims,seed", [([3, 8, 2], 0), ([2, 6, 4, 1], 4)])
    def test_milp_equivalence(self, dims, seed):
        """The big-M MILP optimum is the branch-and-bound optimum."""
        net = random_relu_network(dims, seed=seed, weight_scale=1.1)
        box = Box(-np.ones(dims[0]), np.ones(dims[0]))
        enc = NetworkEncoding(net, box)
        system = enc.build_milp()
        assert system.is_sparse
        c = enc.output_objective(np.ones(dims[-1]), num_vars=system.num_vars)
        milp = solve_milp(c, system, maximize=True)
        bab = BaBSolver(net, box, encoding=enc).maximize(np.ones(dims[-1]))
        assert milp.status == bab.status == "optimal"
        assert milp.value == pytest.approx(bab.optimum, abs=1e-6)

    def test_milp_matrices_match_exactly(self, fig2, enlarged_box2):
        """The MILP shares the LP's equality rows and continuous bounds;
        its binaries are exactly the appended columns."""
        enc = NetworkEncoding(fig2, enlarged_box2)
        lp = enc.build_lp()
        milp = enc.build_milp()
        n = enc.num_continuous
        np.testing.assert_array_equal(milp.a_eq.toarray()[:, :n],
                                      lp.a_eq.toarray())
        assert not milp.a_eq.toarray()[:, n:].any()
        np.testing.assert_array_equal(milp.b_eq, lp.b_eq)
        assert milp.bounds[:n] == lp.bounds
        assert milp.bounds[n:] == [(0.0, 1.0)] * len(enc.unstable_neurons())
        np.testing.assert_array_equal(np.flatnonzero(milp.integer_mask),
                                      np.arange(n, milp.num_vars))


class TestLinearSystemHelpers:
    def test_integer_mask_default_normalises(self):
        system = LinearSystem(3, None, None, None, None,
                              [(None, None)] * 3)
        assert system.integer_mask.dtype == bool
        assert not system.integer_mask.any()
        with pytest.raises(Exception):
            LinearSystem(3, None, None, None, None, [(None, None)] * 3,
                         integer_mask=np.zeros(2, dtype=bool))

    def test_nnz_and_is_sparse(self, fig2, enlarged_box2):
        enc = NetworkEncoding(fig2, enlarged_box2)
        sparse = enc.build_lp()
        dense = _dense_copy(sparse)
        assert sparse.is_sparse and not dense.is_sparse
        assert sparse.nnz == dense.nnz > 0
        assert sparse.num_constraints == dense.num_constraints

    def test_with_extra_ub_both_forms(self, fig2, enlarged_box2):
        """Extra rows keep the storage form, CSR or dense."""
        enc = NetworkEncoding(fig2, enlarged_box2)
        sparse = enc.build_lp()
        for system in (sparse, _dense_copy(sparse)):
            row = np.zeros(system.num_vars)
            row[enc.output_slice] = -1.0
            bigger = system.with_extra_ub(row, -100.0)
            assert bigger.a_ub.shape[0] == system.a_ub.shape[0] + 1
            c = enc.output_objective(np.array([1.0]))
            assert solve_system(c, bigger).status == "infeasible"


class TestEncodingReuse:
    def test_bab_builds_encoding_exactly_once_per_solve(self):
        """The counter hook: one encoding construction and one base
        assembly serve every node of a multi-node search."""
        clear_encoding_cache()
        net = random_relu_network([4, 24, 16, 2], seed=0, weight_scale=1.2)
        box = Box(-np.ones(4), np.ones(4))
        before = NetworkEncoding.builds
        solver = BaBSolver(net, box, node_limit=50)
        result = solver.maximize(np.array([1.0, -0.5]))
        assert NetworkEncoding.builds - before == 1
        assert solver.encoding.base_builds == 1
        # One kernel model serves every node LP of the search.
        assert result.lp_solves > 1
        assert solver.encoding.lp_builds == 1

    def test_for_problem_cache_hits_on_equal_weights(self):
        clear_encoding_cache()
        net = random_relu_network([3, 8, 2], seed=9, weight_scale=0.7)
        twin = net.copy()  # equal weights, different object
        box = Box(-np.ones(3), np.ones(3))
        before = encoding_cache_stats()
        first = NetworkEncoding.for_problem(net, box)
        again = NetworkEncoding.for_problem(net, box)
        from_twin = NetworkEncoding.for_problem(twin, box)
        after = encoding_cache_stats()
        assert first is again is from_twin
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 2

    def test_for_problem_distinguishes_weights_and_boxes(self):
        clear_encoding_cache()
        net = random_relu_network([3, 8, 2], seed=9, weight_scale=0.7)
        box = Box(-np.ones(3), np.ones(3))
        other_box = Box(-np.ones(3), 1.5 * np.ones(3))
        perturbed = net.perturb(0.05, np.random.default_rng(0))
        encodings = {
            id(NetworkEncoding.for_problem(net, box)),
            id(NetworkEncoding.for_problem(net, other_box)),
            id(NetworkEncoding.for_problem(perturbed, box)),
        }
        assert len(encodings) == 3


class TestBaBFormEquivalence:
    def test_node_tighten_stays_sound(self):
        net = random_relu_network([3, 12, 8, 1], seed=4, weight_scale=1.3)
        box = Box(-np.ones(3), np.ones(3))
        plain = BaBSolver(net, box, node_limit=200).maximize(np.ones(1))
        tight = BaBSolver(net, box, node_limit=200,
                          node_tighten=True).maximize(np.ones(1))
        # Tightened node LPs can only shrink upper bounds, never lose the
        # true optimum.
        assert tight.upper_bound <= plain.upper_bound + 1e-9
        if plain.status == tight.status == "optimal":
            assert tight.optimum == pytest.approx(plain.optimum, abs=1e-6)
