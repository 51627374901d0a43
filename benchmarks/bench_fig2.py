"""Fig. 2 / Equation 2: the paper's worked Proposition 1 example.

Replays the exact numbers printed in the figure:

* box abstraction bounds ``n4`` by ``[0, 12]`` on ``[-1, 1]^2``;
* on the enlarged ``[-1, 1.1]^2`` the box bound degrades to ``[0, 12.4]``,
  so abstraction alone cannot reuse the proof;
* the exact encodings (big-M MILP of Equation 2, and ReLU branch-and-bound)
  prove ``max n4 = 6.2 < 12``, so Proposition 1 applies.

Benchmarked: box propagation, the MILP solve, and the BaB solve.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import MaximizeSpec, VerificationEngine
from repro.domains import Box, output_box
from repro.exact import NetworkEncoding, solve_milp
from repro.nn import fig2_network

ORIGINAL = Box(-np.ones(2), np.ones(2))
ENLARGED = Box(-np.ones(2), np.array([1.1, 1.1]))


def _exact_max(network):
    """``max n4`` over the enlarged domain through the engine."""
    return VerificationEngine().verify(MaximizeSpec(
        network=network, input_box=ENLARGED,
        objective=np.array([1.0]))).result


@pytest.fixture(scope="module")
def fig2():
    return fig2_network()


def test_box_bound_original_domain(fig2):
    out = output_box(fig2, ORIGINAL, "box")
    np.testing.assert_allclose([out.lower[0], out.upper[0]], [0.0, 12.0])


def test_box_bound_enlarged_domain(fig2):
    out = output_box(fig2, ENLARGED, "box")
    np.testing.assert_allclose(out.upper[0], 12.4)


def test_exact_max_is_6_2(fig2):
    res = _exact_max(fig2)
    assert res.upper_bound == pytest.approx(6.2, abs=1e-6)


def test_equation2_milp_infeasible_above_12(fig2):
    """The paper encodes ``n4 >= 12`` and asks for feasibility: the MILP
    must be infeasible (max is 6.2)."""
    enc = NetworkEncoding(fig2, ENLARGED)
    system = enc.build_milp()
    # add n4 >= 12 as the CSR row -n4 <= -12
    row = np.zeros((1, system.num_vars))
    row[0, enc.output_slice] = -1.0
    constrained = dataclasses.replace(
        system, a_ub=sp.vstack([system.a_ub, row], format="csr"),
        b_ub=np.append(system.b_ub, -12.0))
    res = solve_milp(np.zeros(system.num_vars), constrained)
    assert res.status == "infeasible"


def test_benchmark_box_propagation(fig2, benchmark):
    benchmark(lambda: output_box(fig2, ENLARGED, "box"))


def test_benchmark_bab_exact_max(fig2, benchmark):
    benchmark(lambda: _exact_max(fig2))


def test_benchmark_milp_exact_max(fig2, benchmark):
    enc = NetworkEncoding(fig2, ENLARGED)
    system = enc.build_milp()
    c = enc.output_objective(np.array([1.0]), num_vars=system.num_vars)

    benchmark(lambda: solve_milp(c, system, maximize=True))


def test_report_fig2(fig2, capsys):
    box_orig = output_box(fig2, ORIGINAL, "box")
    box_enl = output_box(fig2, ENLARGED, "box")
    exact = _exact_max(fig2)
    with capsys.disabled():
        print("\nFig. 2 worked example")
        print(f"  box bound, original domain : n4 in [{box_orig.lower[0]:.1f}, "
              f"{box_orig.upper[0]:.1f}]   (paper: [0, 12])")
        print(f"  box bound, enlarged domain : n4 in [{box_enl.lower[0]:.1f}, "
              f"{box_enl.upper[0]:.1f}] (paper: [0, 12.4])")
        print(f"  exact max (Equation 2)     : {exact.upper_bound:.4g}"
              "          (paper: 6.2 < 12 -> Prop 1 reusable)")
