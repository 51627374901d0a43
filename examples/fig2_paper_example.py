"""The paper's Fig. 2 / Equation 2 worked example, end to end.

Reconstructs every number printed in the figure: the box-abstraction
bounds on the original and enlarged domains, the big-M MILP of Equation 2,
and the branch-and-bound proof that ``max n4 = 6.2 < 12`` -- so the old
state abstraction ``S2 = [0, 12]`` absorbs the enlarged domain and
Proposition 1 transfers the proof.

Run:  python examples/fig2_paper_example.py
"""

import numpy as np

from repro.api import ContainmentSpec, MaximizeSpec, VerificationEngine
from repro.domains import Box, propagate_network
from repro.exact import NetworkEncoding, solve_milp
from repro.nn import fig2_network


def main() -> None:
    net = fig2_network()
    original = Box(-np.ones(2), np.ones(2))
    enlarged = Box(-np.ones(2), np.array([1.1, 1.1]))

    print("Fig. 2 network: n1=ReLU(x1-2x2)  n2=ReLU(-2x1+x2)  n3=ReLU(x1-x2)")
    print("                n4=ReLU(2n1+2n2-n3)\n")

    states = propagate_network(net, original, domain="box")
    print(f"box abstraction on [-1,1]^2   : layer1={states[0]}  n4={states[1]}")
    states_big = propagate_network(net, enlarged, domain="box")
    print(f"box abstraction on [-1,1.1]^2 : layer1={states_big[0]}  "
          f"n4={states_big[1]}   <- exceeds [0, 12], abstraction cannot reuse")

    print("\nEquation 2 (big-M MILP), maximise n4 over the enlarged domain:")
    enc = NetworkEncoding(net, enlarged)
    system = enc.build_milp()
    c = enc.output_objective(np.array([1.0]), num_vars=system.num_vars)
    milp = solve_milp(c, system, maximize=True)
    print(f"  MILP optimum  : {milp.value:.4g}  ({milp.nodes} B&B nodes)")

    engine = VerificationEngine()
    bab = engine.verify(MaximizeSpec(network=net, input_box=enlarged,
                                     objective=np.array([1.0]))).result
    print(f"  BaB optimum   : {bab.upper_bound:.4g}  "
          f"(witness x = {np.round(bab.witness, 3)})")

    s2 = Box(np.array([0.0]), np.array([12.0]))
    res = engine.verify(ContainmentSpec(network=net, input_box=enlarged,
                                        target=s2, method="exact"))
    print(f"\nProposition 1 condition g2(g1(Din ∪ Δin)) ⊆ S2 = [0, 12]: "
          f"{'HOLDS' if res.holds else 'fails'}  "
          f"(exact max {bab.upper_bound:.4g} < 12)")
    print("=> the old proof transfers to the enlarged domain; "
          "no full re-verification needed.")


if __name__ == "__main__":
    main()
