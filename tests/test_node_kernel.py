"""The persistent, hot-started HiGHS node kernel (``repro.exact.highs``).

Four properties: a node's result does not depend on what the kernel
solved before, and a kernel a thread comes back to after another
encoding solves as a new one (what keeps the frontier search
byte-identical across worker counts); a cutoff either ends a solve on a
dual bound no weaker than the LP value, or leaves the solve bitwise
unchanged; the kernel agrees with the ``linprog`` oracle over
``build_lp`` on generated networks and phase maps; and a scipy binding
without a required method fails loudly with a permanent taxonomy error
instead of falling back.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.domains import Box
from repro.domains.batch import phase_clamped_node_bounds
from repro.errors import SolverError
from repro.exact import BaBSolver, NetworkEncoding, solve_system
from repro.exact import highs
from repro.exact.highs import NodeKernel, check_binding
from repro.exact.lp import LP_CUTOFF, LP_OPTIMAL
from repro.nn import Dense, LeakyReLU, Network, ReLU, random_relu_network
from repro.serve.resilience import classify_failure


def _node_maps(enc, rng, count, depth=4):
    unstable = enc.unstable_neurons()
    maps = []
    for _ in range(count):
        picks = rng.choice(len(unstable), size=min(depth, len(unstable)),
                           replace=False)
        maps.append({unstable[int(j)]: int(rng.choice((-1, 1)))
                     for j in picks})
    return maps


def _same(a, b):
    assert a.status == b.status
    assert a.value == b.value or (np.isnan(a.value) and np.isnan(b.value))
    for left, right in ((a.x, b.x), (a.dual_ub, b.dual_ub),
                        (a.dual_eq, b.dual_eq)):
        assert (left is None) == (right is None)
        if left is not None:
            assert left.tobytes() == right.tobytes()


class TestHistoryIndependence:
    @pytest.fixture(scope="class")
    def problem(self):
        net = random_relu_network([4, 16, 12, 2], seed=1, weight_scale=1.2)
        box = Box(-np.ones(4), np.ones(4))
        return NetworkEncoding(net, box)

    def test_node_is_bitwise_identical_on_fresh_and_used_kernels(
            self, problem):
        enc = problem
        rng = np.random.default_rng(0)
        cost = -enc.output_objective(np.array([1.0, -0.5]))
        other = -enc.output_objective(np.array([-0.3, 1.0]))
        used = NodeKernel(enc.build_lp())
        root = used.solve(cost, *enc.node_bounds())
        assert root.optimal and root.basis is not None
        nodes = _node_maps(enc, rng, 12)
        for phases in nodes:
            for basis in (None, root.basis):
                # The used kernel first solves unrelated nodes, with
                # another objective, some hot-started.
                for noise in _node_maps(enc, rng, 3):
                    used.solve(other, *enc.node_bounds(noise),
                               basis=root.basis)
                    used.solve(cost, *enc.node_bounds(noise))
                fresh = NodeKernel(enc.build_lp()).solve(
                    cost, *enc.node_bounds(phases), basis=basis)
                again = used.solve(cost, *enc.node_bounds(phases),
                                   basis=basis)
                _same(fresh, again)

    def test_search_is_identical_on_fresh_and_used_kernels(self):
        net = random_relu_network([4, 16, 12, 2], seed=2, weight_scale=1.1)
        box = Box(-np.ones(4), np.ones(4))
        c = np.array([1.0, -0.5])
        results = []
        for warm_up in (False, True):
            enc = NetworkEncoding(net, box)
            if warm_up:
                BaBSolver(net, box, encoding=enc, node_limit=60).maximize(
                    np.array([-1.0, 0.2]))
            results.append(BaBSolver(net, box, encoding=enc,
                                     node_limit=120).maximize(c))
        fresh, used = results
        assert (fresh.status, fresh.nodes, fresh.lp_solves) == \
            (used.status, used.nodes, used.lp_solves)
        assert fresh.upper_bound == used.upper_bound
        assert fresh.incumbent == used.incumbent
        assert fresh.witness.tobytes() == used.witness.tobytes()


    def test_kernel_kept_across_another_encoding_solves_as_new(self):
        """A, B, A on one thread: the kernel kept for A solves A's nodes
        bitwise as a new kernel does, although its first solve (a
        six-term objective's root on this net) leaves HiGHS state that
        changes later cold solves on a kernel that is not reset."""
        net = random_relu_network([6, 16, 12, 6], seed=9, weight_scale=1.0,
                                  final_activation=True)
        box = Box(-np.ones(6), np.ones(6))
        enc_a = NetworkEncoding(net, box)
        enc_b = NetworkEncoding(random_relu_network([6, 16, 12, 6], seed=8),
                                box)
        rng = np.random.default_rng(3)
        dense = -enc_a.output_objective(np.linspace(1.0, -0.7, 6))
        costs = [-enc_a.output_objective(sign * np.eye(6)[i])
                 for i in range(6) for sign in (1.0, -1.0)]
        nodes = [{}] + _node_maps(enc_a, rng, 6)

        def solve_all(kernel):
            return [kernel.solve(cost, *enc_a.node_bounds(phases))
                    for cost in costs for phases in nodes]

        fresh = solve_all(NodeKernel(enc_a.build_lp()))
        tainted = NodeKernel(enc_a.build_lp())
        tainted.solve(dense, *enc_a.node_bounds())
        assert any(r.value != f.value
                   for r, f in zip(solve_all(tainted), fresh))

        kept = highs.kernel_for(enc_a)
        kept.solve(dense, *enc_a.node_bounds())
        b_cost = -enc_b.output_objective(np.ones(6))
        highs.kernel_for(enc_b).solve(b_cost, *enc_b.node_bounds())
        assert highs.kernel_for(enc_a) is kept
        for again, new in zip(solve_all(kept), fresh):
            _same(new, again)

    def test_each_thread_keeps_a_few_kernels(self):
        box = Box(-np.ones(3), np.ones(3))
        encodings = [NetworkEncoding(random_relu_network([3, 6, 2], seed=s),
                                     box)
                     for s in range(highs._KERNELS_PER_THREAD + 1)]
        kernels = [highs.kernel_for(enc) for enc in encodings]
        # The most recent ones are kept; the least recently used went.
        assert highs.kernel_for(encodings[-1]) is kernels[-1]
        assert highs.kernel_for(encodings[1]) is kernels[1]
        assert highs.kernel_for(encodings[0]) is not kernels[0]


class TestCutoff:
    """``cutoff`` (HiGHS ``objective_bound``): a cut solve settles on a dual
    bound with its multipliers, and the option never leaks into a later
    solve that does not ask for it."""

    @pytest.fixture(scope="class")
    def problem(self):
        net = random_relu_network([6, 16, 12, 2], seed=3, weight_scale=1.2)
        box = Box(-np.ones(6), np.ones(6))
        enc = NetworkEncoding(net, box)
        cost = -enc.output_objective(np.array([1.0, -0.5]))
        root = NodeKernel(enc.build_lp()).solve(cost, *enc.node_bounds())
        nodes = _node_maps(enc, np.random.default_rng(0), 20, depth=3)
        return enc, cost, root, nodes

    @staticmethod
    def _cutoff(root, full):
        # Well below the node's minimum, just above its parent's.
        return root.value + 0.3 * (full.value - root.value)

    def test_cut_solve_settles_with_finite_duals(self, problem):
        enc, cost, root, nodes = problem
        kernel = NodeKernel(enc.build_lp())
        cuts = 0
        for phases in nodes:
            bounds = enc.node_bounds(phases)
            full = kernel.solve(cost, *bounds, basis=root.basis)
            if not full.optimal:
                continue
            cutoff = self._cutoff(root, full)
            res = kernel.solve(cost, *bounds, basis=root.basis, cutoff=cutoff)
            if res.status == LP_OPTIMAL:
                _same(res, full)  # the check never moves a solve it spares
                continue
            assert res.status == LP_CUTOFF
            cuts += 1
            assert res.x is None and res.basis is None
            # Past the cutoff, and a lower bound on the LP minimum: as an
            # upper bound on the node's maximum, no weaker than the LP's.
            assert cutoff < res.value <= full.value
            for dual in (res.dual_ub, res.dual_eq):
                assert dual is not None and np.isfinite(dual).all()
        assert cuts > 0

    def test_plain_solve_after_a_cutoff_matches_a_fresh_kernel(self, problem):
        enc, cost, root, nodes = problem
        used = NodeKernel(enc.build_lp())
        cuts = 0
        for phases in nodes:
            bounds = enc.node_bounds(phases)
            full = NodeKernel(enc.build_lp()).solve(cost, *bounds,
                                                    basis=root.basis)
            if not full.optimal:
                continue
            cut = used.solve(cost, *bounds, basis=root.basis,
                             cutoff=self._cutoff(root, full))
            cuts += cut.status == LP_CUTOFF
            _same(full, used.solve(cost, *bounds, basis=root.basis))
        assert cuts > 0


# ----------------------------------------------------- differential oracle
@st.composite
def _node_problems(draw):
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    dims = [draw(st.integers(2, 3))] + \
        draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)) + \
        [draw(st.integers(1, 2))]
    alpha = draw(st.sampled_from([None, 0.01, 0.2]))
    layers = []
    for i in range(len(dims) - 1):
        layers.append(Dense(dims[i], dims[i + 1],
                            weight=rng.normal(size=(dims[i + 1], dims[i])),
                            bias=rng.normal(scale=0.5, size=dims[i + 1])))
        if i < len(dims) - 2:
            layers.append(ReLU() if alpha is None else LeakyReLU(alpha))
    net = Network(layers, input_dim=dims[0])
    box = Box(-np.ones(dims[0]), np.ones(dims[0]))
    # Random phases over *all* activation neurons: stable ones make
    # contradictory (empty) nodes.
    neurons = [(k, i) for k, block in enumerate(net.blocks())
               if block.activation is not None for i in range(block.out_dim)]
    chosen = draw(st.lists(st.sampled_from(neurons), unique=True,
                           max_size=min(4, len(neurons))))
    phases = {pair: draw(st.sampled_from([-1, 1])) for pair in chosen}
    tight = draw(st.sampled_from(["none", "clamped", "shrunk"]))
    c = rng.normal(size=dims[-1])
    return net, box, phases, tight, c, rng


def _tight_pre(net, box, phases, mode, rng):
    if mode == "none":
        return None
    _, _, lo, hi = phase_clamped_node_bounds(net, box, [phases])
    pairs = [(lo[k][0], hi[k][0]) for k in range(len(lo))]
    if mode == "shrunk":
        # Random sub-intervals, sometimes crossing: empty regions.
        pairs = [(l + rng.uniform(0, 0.6) * (h - l), h - rng.uniform(0, 0.6)
                  * (h - l)) for l, h in pairs]
    return pairs


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_node_problems())
def test_kernel_matches_linprog_oracle(problem):
    net, box, phases, mode, c, rng = problem
    enc = NetworkEncoding(net, box)
    tight = _tight_pre(net, box, phases, mode, rng)
    cost = -enc.output_objective(c)
    oracle = solve_system(cost, enc.build_lp(phases, tight_pre=tight))
    root = enc.solve_node(cost, {})
    for basis in (None, root.basis):
        res = enc.solve_node(cost, phases, tight, basis=basis)
        assert res.status == oracle.status
        if oracle.optimal:
            assert abs(res.value - oracle.value) <= \
                1e-7 * max(1.0, abs(oracle.value))


# ------------------------------------------------------------ capabilities
class TestBinding:
    def test_required_methods_are_present(self):
        check_binding()
        assert "setBasis" in highs.REQUIRED_METHODS

    @pytest.mark.parametrize("method", ["setBasis", "clearSolver",
                                        "changeColsBounds"])
    def test_missing_method_is_a_permanent_solver_error(self, monkeypatch,
                                                        fig2, enlarged_box2,
                                                        method):
        monkeypatch.delattr(highs._core._Highs, method)
        with pytest.raises(SolverError, match=method) as caught:
            check_binding()
        assert classify_failure(caught.value)[1] is False  # permanent
        enc = NetworkEncoding(fig2, enlarged_box2)
        with pytest.raises(SolverError, match=method):
            enc.solve_node(-enc.output_objective(np.ones(1)), {})
        with pytest.raises(SolverError, match=method):
            BaBSolver(fig2, enlarged_box2, encoding=enc).maximize(np.ones(1))
