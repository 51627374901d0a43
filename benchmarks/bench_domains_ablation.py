"""Fig. 1 insight ablation: abstract transformers vs exact local solving.

Proposition 1 needs ``g2(g1(Din ∪ Δin)) ⊆ S2``.  Fig. 1 illustrates why a
plain abstract transformer often cannot show this (its image of the
enlarged domain is a *larger* abstract set than S2) while the true reachable
set still fits -- which exact methods detect.  This ablation quantifies the
effect across the three abstract domains and the exact solver: for growing
enlargements, which method can still reuse S2?

Also benchmarks each method's runtime on the two-layer head subproblem.
"""

import numpy as np
import pytest

from repro.api import ContainmentSpec, OutputRangeSpec, VerificationEngine
from repro.domains import Box, output_box
from repro.nn import fig2_network, random_relu_network

DOMAIN_METHODS = ("box", "zonotope", "symbolic", "deeppoly")


@pytest.fixture(scope="module")
def workload():
    """Two-layer heads + the S2 boxes their original-domain proofs stored."""
    cases = []
    for seed in range(5):
        net = random_relu_network([3, 8, 6, 1], seed=seed, weight_scale=0.7)
        head = net.subnetwork(0, 2)
        din = Box(-0.8 * np.ones(3), 0.8 * np.ones(3))
        # S2 as an exact-method proof would store it: the true reachable
        # range of the head over Din, padded slightly.
        s2 = VerificationEngine().verify(OutputRangeSpec(
            network=head, input_box=din)).output_range.inflate(0.05)
        cases.append((head, din, s2))
    fig2 = fig2_network()
    fig2_din = Box(-np.ones(2), np.ones(2))
    s2_fig2 = Box(np.array([0.0]), np.array([12.0]))
    cases.append((fig2, fig2_din, s2_fig2))
    return cases


def _reusable(head, enlarged, s2, method):
    if method == "exact":
        return VerificationEngine().verify(ContainmentSpec(
            network=head, input_box=enlarged, target=s2,
            method="exact")).holds is True
    return s2.contains_box(output_box(head, enlarged, method))


@pytest.mark.parametrize("method", DOMAIN_METHODS + ("exact",))
def test_all_methods_agree_without_enlargement_on_fig2(workload, method):
    """With Δin = ∅ the stored S2 is reusable by construction for exact and
    for the domain that generated it (box, on the Fig. 2 instance)."""
    head, din, s2 = workload[-1]
    if method in ("box", "exact"):
        assert _reusable(head, din, s2, method)


def test_exact_dominates_domains(workload):
    """Wherever any abstract domain proves reuse, exact proves it too."""
    for head, din, s2 in workload:
        for ring in (0.01, 0.05, 0.1):
            enlarged = din.inflate(ring)
            if any(_reusable(head, enlarged, s2, m) for m in DOMAIN_METHODS):
                assert _reusable(head, enlarged, s2, "exact")


def test_report_reuse_frontier(workload, capsys):
    """For each method, the largest enlargement that still reuses S2
    (aggregated over the workload) -- the Fig. 1-b vs Fig. 1-c gap."""
    rings = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
    lines = ["\nProposition-1 reuse success by method (cases reusing S2 / total)"]
    header = "  ring:   " + "".join(f"{r:>8.2f}" for r in rings)
    lines.append(header)
    wins = {}
    for method in DOMAIN_METHODS + ("exact",):
        row = []
        for ring in rings:
            ok = sum(
                1 for head, din, s2 in workload
                if _reusable(head, din.inflate(ring), s2, method))
            row.append(ok)
        wins[method] = row
        lines.append(f"  {method:>7}: " + "".join(f"{k:>8d}" for k in row))
    with capsys.disabled():
        print("\n".join(lines))
    n = len(workload)
    # Exact reuses everything at Δin = 0 and dominates every domain at
    # every ring (Fig. 1's point).
    assert wins["exact"][0] == n
    for method in DOMAIN_METHODS:
        for k_dom, k_exact in zip(wins[method], wins["exact"]):
            assert k_dom <= k_exact


@pytest.mark.parametrize("method", DOMAIN_METHODS + ("exact",))
def test_benchmark_head_check(workload, benchmark, method):
    head, din, s2 = workload[0]
    enlarged = din.inflate(0.05)
    benchmark(lambda: _reusable(head, enlarged, s2, method))
