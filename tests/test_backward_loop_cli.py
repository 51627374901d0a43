"""Tests for backward refinement, the engineering loop, and the CLI."""

import numpy as np
import pytest

from repro.api import OutputRangeSpec, VerificationEngine
from repro.core import EngineeringLoop, VerificationProblem
from repro.domains import Box, refine_input_box
from repro.domains.propagate import inductive_states
from repro.nn import fine_tune, random_relu_network
from repro.cli import main as cli_main


@pytest.fixture(scope="module")
def net_and_box():
    net = random_relu_network([3, 10, 8, 1], seed=4, weight_scale=0.7)
    return net, Box(-0.7 * np.ones(3), 0.7 * np.ones(3))


class TestBackwardRefinement:
    def test_sound_overapproximation(self, net_and_box, rng):
        """Every input reaching the target stays in the refined box."""
        net, box = net_and_box
        rng_box = VerificationEngine().verify(OutputRangeSpec(
            network=net, input_box=box)).output_range
        target = Box(np.array([rng_box.upper[0] - 0.2]),
                     np.array([rng_box.upper[0] + 5.0]))
        res = refine_input_box(net, box, target)
        xs = box.sample(4000, rng)
        ys = net.forward(xs).reshape(-1)
        reaching = xs[ys >= target.lower[0]]
        if res.empty:
            assert reaching.shape[0] == 0
        else:
            for x in reaching:
                assert res.input_box.contains_point(x, tol=1e-7)

    def test_unreachable_target_proven_empty(self, net_and_box):
        """Emptiness is provable once the target leaves the *box* forward
        bound (box-based backward analysis cannot beat its own forward
        precision -- targets between the exact and the box bound need the
        exact solver)."""
        net, box = net_and_box
        from repro.domains import output_box

        top = output_box(net, box, "box").upper[0]
        impossible = Box(np.array([top + 1.0]), np.array([top + 2.0]))
        res = refine_input_box(net, box, impossible)
        assert res.empty
        assert res.volume_ratio == 0.0

    def test_full_range_target_changes_nothing_much(self, net_and_box):
        net, box = net_and_box
        huge = Box(np.array([-1e6]), np.array([1e6]))
        res = refine_input_box(net, box, huge)
        assert not res.empty
        assert res.input_box.contains_box(box)  # nothing removed

    def test_refinement_shrinks_on_tight_targets(self):
        """A monotone 1-D network: targeting the top of the range must cut
        away the bottom of the input box."""
        from repro.nn import Dense, Network, ReLU

        net = Network(
            [Dense(1, 1, weight=np.array([[1.0]]), bias=np.zeros(1)), ReLU(),
             Dense(1, 1, weight=np.array([[2.0]]), bias=np.zeros(1))],
            input_dim=1)
        box = Box(np.array([0.0]), np.array([1.0]))
        target = Box(np.array([1.0]), np.array([2.0]))  # y in [1,2] => x >= .5
        res = refine_input_box(net, box, target)
        assert not res.empty
        assert res.input_box.lower[0] == pytest.approx(0.5, abs=1e-9)
        assert res.volume_ratio == pytest.approx(0.5, abs=1e-9)


class TestEngineeringLoop:
    @pytest.fixture(scope="class")
    def loop(self):
        net = random_relu_network([4, 12, 10, 1], seed=6, weight_scale=0.55)
        din = Box(np.zeros(4), 0.8 * np.ones(4))
        sn = inductive_states(net, din, 0.03)[-1]
        dout = sn.inflate(0.5 * float(sn.widths.max()) + 0.2)
        problem = VerificationProblem(net, din, dout)
        loop = EngineeringLoop(problem, state_buffer=0.03, rigor="abstract")
        step = loop.initial_verification()
        assert step.holds is True
        return loop

    def test_domain_step_advances_baseline(self, loop):
        before = loop.problem.din
        step = loop.on_domain_enlarged(before.inflate(0.005))
        assert step.holds is True
        assert loop.problem.din.contains_box(before)
        assert loop.problem.din != before

    def test_version_step_advances_network(self, loop, rng):
        x = loop.problem.din.sample(150, rng)
        y = loop.problem.network.forward(x)
        tuned = fine_tune(loop.problem.network, x, y, learning_rate=5e-4,
                          epochs=1)
        step = loop.on_new_version(tuned)
        assert step.holds is True
        assert loop.problem.network is tuned

    def test_history_and_summary(self, loop):
        assert len(loop.history) >= 3
        text = loop.summary()
        assert "initial" in text and "settled by proof reuse" in text

    def test_multiple_rounds_mostly_reuse(self, loop, rng):
        reused = 0
        for i in range(3):
            x = loop.problem.din.sample(100, rng)
            y = loop.problem.network.forward(x)
            tuned = fine_tune(loop.problem.network, x, y, learning_rate=5e-4,
                              epochs=1, seed=i)
            step = loop.on_new_version(tuned)
            assert step.holds is True
            if not step.reverified:
                reused += 1
        assert reused >= 1

    def test_requires_initial_verification(self):
        net = random_relu_network([3, 6, 1], seed=0)
        problem = VerificationProblem(
            net, Box(np.zeros(3), np.ones(3)),
            Box(np.array([-1e5]), np.array([1e5])))
        loop = EngineeringLoop(problem)
        with pytest.raises(RuntimeError):
            loop.on_domain_enlarged(problem.din.inflate(0.1))


class TestCLI:
    def test_fig2_command(self, capsys):
        assert cli_main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "6.2" in out

    def test_prop3_command(self, capsys):
        assert cli_main(["prop3"]) == 0
        out = capsys.readouterr().out
        assert "True" in out

    def test_verify_command_roundtrip(self, tmp_path, capsys):
        from repro.nn import random_relu_network, save_network

        net = random_relu_network([3, 8, 1], seed=1, weight_scale=0.5)
        path = tmp_path / "net.npz"
        save_network(net, path)
        artifacts = tmp_path / "proof.npz"
        code = cli_main(["verify", str(path), "--din", "0", "1",
                         "--artifacts", str(artifacts)])
        assert code == 0
        assert artifacts.exists()
        out = capsys.readouterr().out
        assert "SAFE" in out
        from repro.core import load_artifacts

        loaded = load_artifacts(artifacts)
        assert loaded.states is not None

    def test_verify_command_unsafe_property(self, tmp_path, capsys):
        from repro.nn import random_relu_network, save_network

        net = random_relu_network([3, 8, 1], seed=1)
        path = tmp_path / "net.npz"
        save_network(net, path)
        code = cli_main(["verify", str(path), "--din", "0", "1",
                         "--dout", "0", "1e-9"])
        assert code == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])
