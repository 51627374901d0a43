"""Proposition 3 in action: Lipschitz-based proof reuse.

First replays the paper's worked numeric example (Din=[1,2]^2, ell=100,
kappa=0.02, Sn=[1,8], Dout=[-10,10] -> inflated set [-1,10] fits), then
shows the same mechanism on a real trained network, sweeping the domain
enlargement until the Lipschitz argument stops applying -- the point where
the orchestrator would move on to Proposition 1's exact local check.

Run:  python examples/lipschitz_reuse.py
"""

import numpy as np

from repro.api import VerificationEngine
from repro.core import (
    ContinuousVerifier,
    LipschitzCertificate,
    ProofArtifacts,
    StateAbstractions,
    SVuDC,
    VerificationProblem,
    check_prop3,
)
from repro.domains import Box, box_kappa
from repro.domains.propagate import inductive_states
from repro.lipschitz import empirical_lipschitz, global_lipschitz_bound
from repro.nn import TrainConfig, random_relu_network, train


def paper_example() -> None:
    print("== the paper's worked example ==")
    net = random_relu_network([2, 3, 1], seed=0)  # stand-in body
    problem = VerificationProblem(
        net, Box(np.ones(2), 2 * np.ones(2)),
        Box(np.array([-10.0]), np.array([10.0])))
    artifacts = ProofArtifacts(
        problem=problem,
        states=StateAbstractions(boxes=[Box(np.zeros(3), np.ones(3)),
                                        Box(np.array([1.0]), np.array([8.0]))]),
        lipschitz=LipschitzCertificate(ell=100.0),
    )
    enlarged = problem.din.inflate(0.01)
    kappa = box_kappa(problem.din, enlarged)
    print(f"Din=[1,2]^2, ring 0.01 per side -> kappa = {kappa:.4f} "
          "(paper rounds to 0.02)")
    res = check_prop3(artifacts, enlarged)
    print(f"ell*kappa = {100 * kappa:.3g}; inflate Sn=[1,8] -> "
          f"[{1 - 100 * kappa:.3g}, {8 + 100 * kappa:.3g}] ⊆ [-10,10]: "
          f"{res.holds}")


def trained_example() -> None:
    print("\n== on a trained network ==")
    rng = np.random.default_rng(0)
    net = random_relu_network([4, 14, 10, 1], seed=1)
    x = rng.uniform(size=(300, 4))
    y = (x @ np.array([0.6, -0.4, 0.8, 0.1]))[:, None]
    train(net, x, y, TrainConfig(epochs=40, learning_rate=3e-3,
                                 optimizer="adam"))
    din = Box(np.zeros(4), np.ones(4))
    sn = inductive_states(net, din, 0.03)[-1]
    problem = VerificationProblem(net, din, sn.inflate(0.5))
    baseline = VerificationEngine().baseline(problem,
                                             state_buffer=0.03).result
    ell = baseline.artifacts.lipschitz.ell
    print(f"certified ell = {ell:.4g}  "
          f"(empirical witness {empirical_lipschitz(net, din.sample(200, rng)):.4g}, "
          f"recomputed {global_lipschitz_bound(net):.4g})")

    verifier = ContinuousVerifier(baseline.artifacts)
    print(f"{'ring':>8}  {'kappa':>8}  strategy used")
    for ring in (1e-4, 1e-3, 5e-3, 2e-2, 1e-1):
        enlarged = din.inflate(ring)
        result = verifier.verify_domain_change(SVuDC(problem, enlarged))
        kappa = box_kappa(din, enlarged)
        print(f"{ring:>8.0e}  {kappa:>8.2e}  {result.strategy} "
              f"({'safe' if result.holds else 'not proved'})")


if __name__ == "__main__":
    paper_example()
    trained_example()
