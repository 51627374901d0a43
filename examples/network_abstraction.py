"""Proposition 6 in action: network-abstraction reuse across fine-tuning.

Builds the Elboher/Gottschlich/Katz-style abstraction of a trained network
over a non-negative input domain, verifies safety *once* on the (smaller)
abstract networks, then repeatedly fine-tunes the concrete network and
settles each new version with the purely syntactic ``f' -> f̂`` transfer
check -- until the accumulated drift exceeds the stored margin and the
orchestrator has to fall back to state-abstraction reuse.

Run:  python examples/network_abstraction.py
"""

import numpy as np

from repro.api import VerificationEngine
from repro.core import check_prop6, VerificationProblem
from repro.domains import Box
from repro.domains.propagate import inductive_states
from repro.netabs import build_abstraction
from repro.nn import TrainConfig, fine_tune, random_relu_network, train


def main() -> None:
    rng = np.random.default_rng(0)
    net = random_relu_network([5, 18, 14, 1], seed=2)
    x = rng.uniform(size=(300, 5))
    y = (np.tanh(x @ np.array([1.0, -0.5, 0.3, 0.8, -0.2])))[:, None]
    train(net, x, y, TrainConfig(epochs=50, learning_rate=3e-3,
                                 optimizer="adam"))
    din = Box(np.zeros(5), np.ones(5))

    print("building the network abstraction (margin 0.02 for tuning slack)")
    absn = build_abstraction(net, din, num_groups=4, margin=0.02)
    sizes = absn.abstraction_sizes()
    print(f"  split network: {sizes['split']} neurons -> "
          f"abstraction: {sizes['merged']} neurons")
    bounds = absn.output_bounds(din)
    print(f"  abstract output bounds over Din: {bounds}")

    sn = inductive_states(net, din, 0.03)[-1]
    dout = bounds.union(sn).inflate(0.2)
    problem = VerificationProblem(net, din, dout)
    baseline = VerificationEngine().baseline(
        problem, state_buffer=0.03, with_network_abstraction=True,
        netabs_groups=4, netabs_margin=0.02).result
    print(f"  original verification: safe={baseline.holds} "
          f"in {baseline.elapsed:.3f}s "
          f"(abstraction proves safety: "
          f"{baseline.artifacts.notes.get('netabs_proves_safety')})")

    print("\nfine-tuning repeatedly; checking Prop 6 transfer each step:")
    current = net
    for step in range(1, 7):
        jitter = rng.normal(0, 0.02, size=y.shape)
        current = fine_tune(current, x, y + jitter, learning_rate=2e-3,
                            epochs=2, seed=step)
        drift = net.max_weight_delta(current)
        res = check_prop6(baseline.artifacts, current, recheck_safety=False)
        verdict = "transfers" if res.holds else "REJECTED (margin exhausted)"
        print(f"  step {step}: cumulative drift {drift:.4f} -> {verdict} "
              f"[{res.elapsed * 1e3:.2f} ms]")
        if not res.holds:
            print("  -> the orchestrator would now fall back to "
                  "Proposition 4/5 or rebuild the abstraction")
            break


if __name__ == "__main__":
    main()
