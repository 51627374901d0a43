"""Additional coverage: error paths, encodings, and cross-module contracts
not exercised by the primary test modules."""

import numpy as np
import pytest

from repro.api import MaximizeSpec, PropositionSpec, VerificationEngine
from repro.domains import Box
from repro.errors import (
    ArtifactError,
    DomainError,
    ReproError,
    ShapeError,
    SolverError,
)
from repro.exact import NetworkEncoding, solve_milp
from repro.nn import (
    Dense,
    LeakyReLU,
    Network,
    ReLU,
    Sigmoid,
    random_relu_network,
)


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not Exception:
                assert issubclass(obj, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            Box(np.ones(2), np.zeros(2))


class TestEncodingEdgeCases:
    def test_sigmoid_rejected(self):
        net = Network(
            [Dense(2, 3, rng=np.random.default_rng(0)), Sigmoid(),
             Dense(3, 1, rng=np.random.default_rng(1))], input_dim=2)
        from repro.errors import UnsupportedLayerError

        with pytest.raises(UnsupportedLayerError):
            NetworkEncoding(net, Box(-np.ones(2), np.ones(2)))

    def test_box_dim_mismatch(self, small_net):
        with pytest.raises(DomainError):
            NetworkEncoding(small_net, Box(np.zeros(5), np.ones(5)))

    def test_wrong_pre_box_count(self, small_net):
        box = Box(-np.ones(3), np.ones(3))
        with pytest.raises(DomainError):
            NetworkEncoding(small_net, box, pre_boxes=[box])

    def test_leaky_relu_milp_exact(self, rng):
        """Big-M MILP with LeakyReLU matches brute force."""
        net = Network(
            [Dense(2, 4, rng=np.random.default_rng(3)), LeakyReLU(0.2),
             Dense(4, 1, rng=np.random.default_rng(4))], input_dim=2)
        box = Box(-np.ones(2), np.ones(2))
        enc = NetworkEncoding(net, box)
        system = enc.build_milp()
        c = enc.output_objective(np.array([1.0]), num_vars=system.num_vars)
        milp = solve_milp(c, system, maximize=True)
        vals = net.forward(box.sample(30000, rng)).reshape(-1)
        assert milp.value >= vals.max() - 1e-6
        assert milp.value - vals.max() < 0.05

    def test_linear_network_lp_is_exact(self):
        """A purely affine network needs no branching at all."""
        w = np.array([[1.0, -2.0], [0.5, 0.5]])
        net = Network([Dense(2, 2, weight=w, bias=np.zeros(2))], input_dim=2)
        box = Box(-np.ones(2), np.ones(2))
        res = VerificationEngine().verify(MaximizeSpec(
            network=net, input_box=box, objective=np.array([1.0, 1.0]))).result
        assert res.nodes <= 1
        corners = box.corners() @ w.T
        assert res.upper_bound == pytest.approx((corners @ [1, 1]).max())


class TestMILPSolverEdges:
    def test_unbounded_raises(self):
        from repro.exact.encoding import LinearSystem

        system = LinearSystem(num_vars=1, a_ub=None, b_ub=None,
                              a_eq=None, b_eq=None, bounds=[(None, None)],
                              integer_mask=np.array([False]))
        with pytest.raises(SolverError):
            solve_milp(np.array([-1.0]), system)

    def test_pure_binary_knapsack(self):
        """max 3a + 2b + 2c  s.t.  2a + b + 2c <= 3, binaries -> value 5."""
        from repro.exact.encoding import LinearSystem

        system = LinearSystem(
            num_vars=3,
            a_ub=np.array([[2.0, 1.0, 2.0]]), b_ub=np.array([3.0]),
            a_eq=None, b_eq=None,
            bounds=[(0, 1)] * 3,
            integer_mask=np.ones(3, dtype=bool))
        res = solve_milp(np.array([3.0, 2.0, 2.0]), system, maximize=True)
        assert res.optimal
        assert res.value == pytest.approx(5.0)
        np.testing.assert_allclose(res.x, [1, 1, 0])

    def test_node_limit_status(self):
        from repro.exact.encoding import LinearSystem

        rng = np.random.default_rng(0)
        n = 12
        weights = rng.uniform(1, 5, size=n)
        system = LinearSystem(
            num_vars=n,
            a_ub=weights[None, :], b_ub=np.array([weights.sum() / 2]),
            a_eq=None, b_eq=None,
            bounds=[(0, 1)] * n,
            integer_mask=np.ones(n, dtype=bool))
        values = rng.uniform(1, 5, size=n)
        res = solve_milp(values, system, maximize=True, node_limit=2)
        assert res.status in ("node_limit", "optimal")
        if res.status == "node_limit":
            assert res.bound >= res.value - 1e-9


class TestPropositionInteractions:
    """Cross-proposition contracts on a shared baseline."""

    @pytest.fixture(scope="class")
    def baseline(self):
        from repro.core import VerificationProblem
        from repro.domains.propagate import inductive_states

        net = random_relu_network([4, 10, 8, 1], seed=13, weight_scale=0.6)
        din = Box(np.zeros(4), 0.7 * np.ones(4))
        sn = inductive_states(net, din, 0.03)[-1]
        problem = VerificationProblem(net, din,
                                      sn.inflate(0.3 * sn.widths.max() + 0.1))
        out = VerificationEngine().baseline(problem, state_buffer=0.03,
                                            rigor="abstract")
        assert out.holds
        return problem, out.artifacts

    def test_prop2_subsumes_prop1_region(self, baseline):
        """Wherever Prop 1 succeeds, Prop 2 must also find a re-entry
        (j=1 is one of its candidates when block counts allow)."""
        problem, artifacts = baseline
        enlarged = problem.din.inflate(0.01)
        p1, p2 = (VerificationEngine().verify(PropositionSpec(
            kind=kind, artifacts=artifacts, enlarged_din=enlarged,
            method="exact")).result for kind in (1, 2))
        if p1.holds:
            assert p2.holds

    def test_prop5_with_all_cuts_equals_prop4(self, baseline):
        """Prop 5 with every boundary as a reuse point produces exactly the
        same subproblem structure as Prop 4 (modulo naming)."""
        problem, artifacts = baseline
        tuned = problem.network.perturb(1e-5, np.random.default_rng(0))
        n = tuned.num_blocks
        engine = VerificationEngine()
        p4 = engine.verify(PropositionSpec(
            kind=4, artifacts=artifacts, new_network=tuned,
            method="exact")).result
        p5 = engine.verify(PropositionSpec(
            kind=5, artifacts=artifacts, new_network=tuned,
            alphas=tuple(range(1, n)), method="exact")).result
        assert len(p4.subproblems) == len(p5.subproblems) == n
        assert p4.holds == p5.holds

    def test_verifier_rejects_unsafe_change(self, baseline):
        """A destructive 'fine-tune' must never be certified: either some
        strategy fails and the exact fallback refutes, or the sampled
        violation is caught."""
        from repro.core import ContinuousVerifier, SVbTV, VerificationProblem

        problem, artifacts = baseline
        wrecked = problem.network.copy()
        wrecked.blocks()[-1].dense.bias += 1e4  # blows past Dout
        cv = ContinuousVerifier(artifacts)
        res = cv.verify_new_version(SVbTV(problem, wrecked))
        assert res.holds is not True

    def test_artifact_problem_mismatch_flagged(self, baseline):
        from repro.core import ProofArtifacts, StateAbstractions

        problem, artifacts = baseline
        wrong = StateAbstractions(boxes=[Box(np.zeros(2), np.ones(2))])
        bad = ProofArtifacts(problem=problem, states=wrong)
        with pytest.raises(ArtifactError):
            bad.require_states()


class TestVehiclePaperScale:
    def test_paper_scale_config_builds(self):
        """The 224x224 geometry of the paper is constructible (feature
        extraction on one frame only -- full runs belong to benchmarks)."""
        from repro.vehicle import FeatureExtractor, PerceptionConfig

        config = PerceptionConfig.paper_scale()
        assert config.frame_size == 224
        extractor = FeatureExtractor(config)
        assert extractor.feature_dim > 100
        frame = np.zeros((3, 224, 224))
        feats = extractor.extract(frame)
        assert feats.shape == (extractor.feature_dim,)

    def test_paper_waypoint_formula_at_224(self):
        """(x, y) = (int(224 * vout), 75-ish) per the paper's formula."""
        from repro.vehicle import Perception, PerceptionConfig

        perception = Perception.build(PerceptionConfig.paper_scale())
        frame = np.zeros((3, 224, 224))
        (x, y), = perception.waypoint_pixels(frame[np.newaxis])
        assert 0 <= x <= 224
        assert y == 74  # int(224 / 3)
