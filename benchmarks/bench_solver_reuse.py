"""Solver-level proof reuse (Section VI): branching certificates + presolve.

The paper's concluding remarks ask how exact solvers can be engineered to
enable proof reuse, observing that MILP *cuts* lose validity upon domain
enlargement.  Branching decisions, unlike cuts, are partitions -- they
survive both fine-tuning and enlargement.  This bench measures:

* **cold vs warm threshold proofs**: LP count and wall time of a full
  branch-and-bound proof vs re-proving the fine-tuned network from the
  stored branching certificate;
* **LP bound tightening**: the node-count reduction exact search gains from
  optimisation-based presolve, against its LP cost.
"""

import numpy as np
import pytest

from repro.api import (MaximizeSpec, ThresholdSpec, VerificationEngine,
                       VerifyConfig)
from repro.domains import Box
from repro.exact import (
    BaBSolver,
    prove_with_certificate,
    tighten_preactivation_bounds,
)
from repro.exact.encoding import NetworkEncoding
from repro.nn import random_relu_network


@pytest.fixture(scope="module")
def hard_instance():
    """An instance whose threshold proof needs a non-trivial tree."""
    net = random_relu_network([5, 14, 12, 1], seed=11, weight_scale=0.9)
    box = Box(-0.8 * np.ones(5), 0.8 * np.ones(5))
    opt = VerificationEngine(VerifyConfig(node_limit=20000)).verify(
        MaximizeSpec(network=net, input_box=box,
                     objective=np.array([1.0]))).result
    threshold = opt.upper_bound + 1e-3  # tight: forces real bounding work
    return net, box, threshold


def _certify(net, box, threshold):
    """Cold threshold proof: ``(BaBResult, BranchCertificate | None)``."""
    verdict = VerificationEngine().verify(ThresholdSpec(
        network=net, input_box=box, objective=np.array([1.0]),
        threshold=threshold))
    return verdict.result, verdict.certificate


def test_certificate_roundtrip(hard_instance):
    net, box, threshold = hard_instance
    res, cert = _certify(net, box, threshold)
    assert cert is not None
    tuned = net.perturb(1e-5, np.random.default_rng(0))
    warm = prove_with_certificate(tuned, box, cert)
    assert warm.status in ("threshold_proved", "optimal")


def test_report_cold_vs_warm(hard_instance, capsys):
    net, box, threshold = hard_instance
    cold_res, cert = _certify(net, box, threshold)
    tuned = net.perturb(1e-5, np.random.default_rng(0))
    cold_again, _ = _certify(tuned, box, threshold)
    warm = prove_with_certificate(tuned, box, cert)
    with capsys.disabled():
        print("\nBranching-certificate reuse (fine-tuned network, "
              f"threshold {threshold:.4g})")
        print(f"  cold proof : {cold_again.lp_solves:>5} LPs, "
              f"{cold_again.nodes:>4} nodes")
        print(f"  warm proof : {warm.lp_solves:>5} LPs, "
              f"{warm.nodes:>4} nodes  "
              f"(certificate: {cert.num_leaves} leaves)")
    assert warm.status in ("threshold_proved", "optimal")
    # Warm re-proof never *branches* more than the cold proof did.
    assert warm.nodes <= max(cold_again.nodes, 1)


def test_report_tightening(hard_instance, capsys):
    net, box, _ = hard_instance
    plain = BaBSolver(net, box, node_limit=20000).maximize(np.array([1.0]))
    tightened, stats = tighten_preactivation_bounds(net, box)
    enc = NetworkEncoding(net, box, pre_boxes=tightened)
    boosted = BaBSolver(net, box, encoding=enc,
                        node_limit=20000).maximize(np.array([1.0]))
    with capsys.disabled():
        print("\nLP bound tightening (presolve) on exact optimisation")
        print(f"  presolve   : {stats.lp_solves} LPs, "
              f"{stats.neurons_stabilized} neurons stabilised, "
              f"{stats.width_reduction:.1%} width removed")
        print(f"  plain BaB  : {plain.nodes:>4} nodes, {plain.lp_solves:>5} LPs")
        print(f"  boosted BaB: {boosted.nodes:>4} nodes, "
              f"{boosted.lp_solves:>5} LPs")
    assert boosted.upper_bound == pytest.approx(plain.upper_bound, abs=1e-5)
    # Node counts are not monotone (tightened bounds change the branching
    # order); the invariant is identical optima from fewer *unstable*
    # neurons to ever branch on.
    assert stats.neurons_stabilized >= 0


def test_benchmark_cold_proof(hard_instance, benchmark):
    net, box, threshold = hard_instance
    benchmark.pedantic(
        lambda: _certify(net, box, threshold),
        rounds=3, iterations=1)


def test_benchmark_warm_proof(hard_instance, benchmark):
    net, box, threshold = hard_instance
    _, cert = _certify(net, box, threshold)
    tuned = net.perturb(1e-5, np.random.default_rng(0))
    benchmark.pedantic(
        lambda: prove_with_certificate(tuned, box, cert),
        rounds=3, iterations=1)


def test_benchmark_tightening_pass(hard_instance, benchmark):
    net, box, _ = hard_instance
    benchmark.pedantic(
        lambda: tighten_preactivation_bounds(net, box, max_lp_solves=200),
        rounds=3, iterations=1)
