"""Tests for Propositions 1-6: correctness of each reuse condition.

The soundness contract under test: whenever a checker returns
``holds=True``, dense random sampling of the *new* problem must find no
violation.  Conversely the checkers must reject/abstain in scenarios
engineered to break their premises.
"""

import numpy as np
import pytest

from repro.api import PropositionSpec, VerificationEngine
from repro.domains import Box
from repro.domains.propagate import inductive_states
from repro.nn import fine_tune, random_relu_network
from repro.core import (
    SVbTV,
    VerificationProblem,
    check_prop3,
    check_prop6,
)


@pytest.fixture(scope="module")
def setup():
    """A verified baseline with all artifacts, plus a small fine-tune."""
    net = random_relu_network([4, 10, 8, 6, 1], seed=3, weight_scale=0.6)
    din = Box(np.zeros(4), 0.8 * np.ones(4))
    sn = inductive_states(net, din, 0.02)[-1]
    dout = sn.inflate(0.25 * sn.widths.max() + 0.1)
    problem = VerificationProblem(net, din, dout)
    base = VerificationEngine().baseline(
        problem, with_network_abstraction=True, netabs_groups=3,
        netabs_margin=0.05)
    assert base.holds
    rng = np.random.default_rng(0)
    x = din.sample(200, rng)
    y = net.forward(x)
    tuned = fine_tune(net, x, y + rng.normal(0, 0.01, size=y.shape),
                      learning_rate=5e-4, epochs=1)
    return problem, base.artifacts, tuned


def _prop(kind, artifacts, **fields):
    """Proposition ``kind`` as an engine PropositionSpec (default config)."""
    return VerificationEngine().verify(
        PropositionSpec(kind=kind, artifacts=artifacts, **fields)).result


def _no_violation(network, box, dout, n=3000, seed=1):
    xs = box.sample(n, np.random.default_rng(seed))
    ys = np.atleast_2d(network.forward(xs))
    return bool(np.all(ys >= dout.lower - 1e-9) and np.all(ys <= dout.upper + 1e-9))


class TestProp1:
    def test_holds_on_small_enlargement(self, setup):
        problem, artifacts, _ = setup
        enlarged = problem.din.inflate(0.01)
        res = _prop(1, artifacts, enlarged_din=enlarged)
        assert res.holds is True
        assert _no_violation(problem.network, enlarged, problem.dout)
        assert len(res.subproblems) == 1

    def test_fails_on_huge_enlargement(self, setup):
        problem, artifacts, _ = setup
        res = _prop(1, artifacts, enlarged_din=problem.din.inflate(5.0))
        assert res.holds is not True

    def test_fig2_scenario(self, fig2, unit_box2, enlarged_box2):
        """The full paper walk-through: box abstraction on the enlarged
        domain fails (12.4 > 12) but Prop 1's exact local check succeeds."""
        from repro.core import StateAbstractions, ProofArtifacts
        from repro.domains.propagate import propagate_network

        boxes = propagate_network(fig2, unit_box2, "box")
        dout = Box(np.array([0.0]), np.array([12.0]))
        problem = VerificationProblem(fig2, unit_box2, dout)
        artifacts = ProofArtifacts(
            problem=problem,
            states=StateAbstractions(boxes=boxes, domain="box"),
            states_prove_safety=True,
        )
        # fig2 has exactly 2 blocks: prop1 abstains (S2 == output layer).
        res = _prop(1, artifacts, enlarged_din=enlarged_box2)
        assert res.holds is None  # needs >= 3 blocks
        # With a third (identity-ish) tail block the check becomes usable --
        # exercised in the dedicated fig2 benchmark; here we validate the
        # underlying exact check directly:
        from repro.api import ContainmentSpec

        head = fig2.subnetwork(0, 2)
        out = VerificationEngine().verify(ContainmentSpec(
            network=head, input_box=enlarged_box2, target=boxes[-1],
            method="exact")).result
        assert out.holds is True  # 6.2 <= 12

    def test_premise_missing(self, setup):
        problem, artifacts, _ = setup
        from repro.core import ProofArtifacts

        empty = ProofArtifacts(problem=problem)
        res = _prop(1, empty, enlarged_din=problem.din.inflate(0.01))
        assert res.holds is None


class TestProp2:
    def test_reenters_early(self, setup):
        problem, artifacts, _ = setup
        enlarged = problem.din.inflate(0.01)
        res = _prop(2, artifacts, enlarged_din=enlarged)
        assert res.holds is True
        assert "re-entered" in res.detail
        assert _no_violation(problem.network, enlarged, problem.dout)

    def test_fails_on_huge_enlargement(self, setup):
        problem, artifacts, _ = setup
        res = _prop(2, artifacts, enlarged_din=problem.din.inflate(10.0))
        assert res.holds is False
        assert len(res.subproblems) == problem.network.num_blocks - 2


class TestProp3:
    def test_paper_worked_example(self):
        """Din=[1,2]^2, kappa=0.02, ell=100, Sn=[1,8], Dout=[-10,10]:
        the inflated set is [-1, 10] which fits in Dout."""
        from repro.core import (LipschitzCertificate, ProofArtifacts,
                                StateAbstractions)

        net = random_relu_network([2, 3, 1], seed=0)  # placeholder function
        problem = VerificationProblem(
            net, Box(np.ones(2), 2 * np.ones(2)),
            Box(np.array([-10.0]), np.array([10.0])))
        artifacts = ProofArtifacts(
            problem=problem,
            states=StateAbstractions(
                boxes=[Box(np.zeros(3), np.ones(3)),
                       Box(np.array([1.0]), np.array([8.0]))]),
            lipschitz=LipschitzCertificate(ell=100.0),
        )
        enlarged = Box(np.ones(2) - 0.01414, 2 * np.ones(2) + 0.01414)
        res = check_prop3(artifacts, enlarged)
        assert res.holds is True
        # the same setup with a tighter Dout fails
        problem2 = VerificationProblem(
            net, problem.din, Box(np.array([-0.5]), np.array([9.0])))
        artifacts2 = ProofArtifacts(
            problem=problem2, states=artifacts.states,
            lipschitz=artifacts.lipschitz)
        res2 = check_prop3(artifacts2, enlarged)
        assert res2.holds is False

    def test_sound_on_real_network(self, setup):
        problem, artifacts, _ = setup
        enlarged = problem.din.inflate(1e-4)
        res = check_prop3(artifacts, enlarged)
        if res.holds:
            assert _no_violation(problem.network, enlarged, problem.dout)

    def test_no_enlargement_trivially_holds(self, setup):
        problem, artifacts, _ = setup
        res = check_prop3(artifacts, problem.din)
        assert res.holds is True


class TestProp4:
    def test_small_tune_passes_all_layers(self, setup):
        problem, artifacts, tuned = setup
        res = _prop(4, artifacts, new_network=tuned)
        assert res.holds is True
        assert len(res.subproblems) == tuned.num_blocks
        assert _no_violation(tuned, problem.din, problem.dout)

    def test_large_tune_fails_somewhere(self, setup):
        problem, artifacts, _ = setup
        big = problem.network.perturb(1.0, np.random.default_rng(9))
        res = _prop(4, artifacts, new_network=big)
        assert res.holds is not True

    def test_enlarged_domain_supported(self, setup):
        problem, artifacts, tuned = setup
        enlarged = problem.din.inflate(0.005)
        res = _prop(4, artifacts, new_network=tuned, enlarged_din=enlarged)
        if res.holds:
            assert _no_violation(tuned, enlarged, problem.dout)

    def test_stop_on_failure_short_circuits(self, setup):
        problem, artifacts, _ = setup
        big = problem.network.perturb(1.0, np.random.default_rng(9))
        full = _prop(4, artifacts, new_network=big, stop_on_failure=False)
        short = _prop(4, artifacts, new_network=big, stop_on_failure=True)
        assert len(short.subproblems) <= len(full.subproblems)


class TestProp5:
    def test_segments_pass_for_small_tune(self, setup):
        problem, artifacts, tuned = setup
        res = _prop(5, artifacts, new_network=tuned, alphas=[2])
        assert res.holds is True
        assert len(res.subproblems) == 2

    def test_paper_six_layer_decomposition_shape(self, setup):
        """alphas=(2,4) on a 6-block net gives exactly 3 subproblems."""
        net = random_relu_network([3, 8, 8, 8, 8, 8, 1], seed=1,
                                  weight_scale=0.4)
        din = Box(np.zeros(3), 0.5 * np.ones(3))
        sn = inductive_states(net, din, 0.02)[-1]
        problem = VerificationProblem(net, din, sn.inflate(1.0))
        base = VerificationEngine().baseline(problem, rigor="abstract")
        res = _prop(5, base.artifacts, new_network=net.copy(), alphas=[2, 4])
        assert len(res.subproblems) == 3
        assert res.holds is True

    def test_invalid_alphas(self, setup):
        problem, artifacts, tuned = setup
        from repro.errors import ArtifactError

        with pytest.raises(ArtifactError):
            _prop(5, artifacts, new_network=tuned, alphas=[0])
        with pytest.raises(ArtifactError):
            _prop(5, artifacts, new_network=tuned, alphas=[2, 2])


class TestProp6:
    def test_small_tune_transfers(self, setup):
        problem, artifacts, tuned = setup
        res = check_prop6(artifacts, tuned, recheck_safety=True)
        # transfer may legitimately fail if the abstraction is too coarse
        # for Dout; but the domination check itself must pass.
        assert res.subproblems[0].holds is True
        if res.holds:
            assert _no_violation(tuned, problem.din, problem.dout)

    def test_large_tune_rejected(self, setup):
        problem, artifacts, _ = setup
        big = problem.network.perturb(1.0, np.random.default_rng(5))
        res = check_prop6(artifacts, big)
        assert res.holds is False

    def test_missing_artifact(self, setup):
        problem, artifacts, tuned = setup
        from repro.core import ProofArtifacts
        from repro.errors import ArtifactError

        empty = ProofArtifacts(problem=problem)
        with pytest.raises(ArtifactError):
            check_prop6(empty, tuned)
