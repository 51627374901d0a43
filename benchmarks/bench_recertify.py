"""Delta verification: LP solves saved by certificate reuse (PR 9).

The continuous-engineering premise: after every fine-tuning step the
property must be re-proved, and consecutive networks differ by a small
perturbation.  This benchmark replays that loop -- a 10-step weight
perturbation sequence over one threshold property -- twice:

* **from scratch**: every step pays the full branch-and-bound search;
* **certificate reuse**: every step warm-starts from the stored frontier
  (``certs="reuse"`` against a real in-memory :class:`JobStore`), paying
  one batched dual re-screen plus delta-LPs only for leaves whose bounds
  actually moved.

Three gates, all asserted (CI runs ``--smoke``):

1. every verdict is byte-identical to its from-scratch twin
   (:func:`verdict_decision_json` -- reuse must never buy speed with
   soundness);
2. the reuse track saves LP solves -- ``lp_solves_saved > 0`` in smoke
   mode, and >= 5x fewer total LP solves over the full sequence;
3. every recorded certificate re-encodes byte-identically, and its
   leaves pass the covering check (:func:`repro.certs.leaves_cover`,
   which accepts only partitions).

Run standalone for the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_recertify.py [out.json] [--smoke]
"""

import sys
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # standalone: make src/ and repo root importable
    _ROOT = Path(__file__).resolve().parent.parent
    for entry in (str(_ROOT / "src"), str(_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

from repro.api import (
    MaximizeSpec,
    ThresholdSpec,
    VerificationEngine,
    VerifyConfig,
    verdict_decision_json,
)
from repro.api.serialize import certificate_to_json
from repro.certs import leaves_cover, load_certificate
from repro.domains import Box
from repro.nn import random_relu_network
from repro.serve import JobStore

from benchmarks.common import emit_json

#: Perturbation steps after the initial recording solve (the paper's
#: incremental-tuning loop, extended past Table I's four cases).
STEPS = 10
SMOKE_STEPS = 3
PERTURB_SCALE = 0.002
#: The PR contract: certificate reuse must cut total LP solves by at
#: least this factor over the full sequence.
MIN_LP_RATIO = 5.0


def _problem(seed=3):
    """A threshold instance whose proof needs a real BaB search."""
    network = random_relu_network([4, 12, 8, 1], seed=seed)
    box = Box(-np.ones(4), np.ones(4))
    c = np.ones(1)
    opt = VerificationEngine(VerifyConfig()).verify(
        MaximizeSpec(network=network, input_box=box,
                     objective=c)).result.upper_bound
    threshold = opt + 0.1 * abs(opt)
    return network, box, c, threshold


class CheckedCerts:
    """Certificate provider forwarding to a store, checking every
    certificate as it is recorded (gate 3)."""

    def __init__(self, store):
        self.store = store
        self.checked = 0

    def cert_get(self, cert_key):
        return self.store.cert_get(cert_key)

    def cert_put(self, cert_key, cert_json):
        cert = load_certificate(cert_json)
        assert certificate_to_json(cert) == cert_json, (
            "recorded certificate did not re-encode byte-identically")
        assert leaves_cover(cert.leaves), (
            "recorded certificate leaves are not a partition")
        self.checked += 1
        self.store.cert_put(cert_key, cert_json)


def bench_recertify(steps=STEPS):
    network, box, c, threshold = _problem()
    store = JobStore()  # the real certificate table, in memory
    checked = CheckedCerts(store)
    warm_engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                     certs=checked)
    cold_engine = VerificationEngine(VerifyConfig())
    rng = np.random.default_rng(7)

    rows = []
    warm_total = cold_total = saved_total = reused_total = 0
    current = network
    for step in range(steps + 1):
        spec = ThresholdSpec(network=current, input_box=box, objective=c,
                             threshold=threshold)
        warm = warm_engine.verify(spec)
        cold = cold_engine.verify(spec)
        assert verdict_decision_json(warm) == verdict_decision_json(cold), (
            f"step {step}: warm-started decision diverged from scratch")
        warm_total += warm.result.lp_solves
        cold_total += cold.result.lp_solves
        saved_total += warm.provenance.lp_solves_saved
        reused_total += warm.provenance.nodes_reused
        rows.append({
            "step": step,
            "cert_hit": warm.provenance.cert_hit,
            "warm_lp_solves": warm.result.lp_solves,
            "cold_lp_solves": cold.result.lp_solves,
            "nodes_reused": warm.provenance.nodes_reused,
            "lp_solves_saved": warm.provenance.lp_solves_saved,
        })
        current = current.perturb(PERTURB_SCALE, rng=rng)

    assert saved_total > 0, "certificate reuse saved no LP solves"
    assert reused_total > 0, "no frontier leaves were ever reused"
    assert checked.checked > 0, "no certificate was ever recorded"
    ratio = cold_total / max(warm_total, 1)
    if steps >= STEPS:
        assert ratio >= MIN_LP_RATIO, (
            f"LP-solve ratio {ratio:.2f}x below the {MIN_LP_RATIO:g}x gate "
            f"(warm {warm_total}, cold {cold_total})")
    cert_stats = store.cert_stats()
    store.close()
    return {
        "steps": steps,
        "perturb_scale": PERTURB_SCALE,
        "warm_lp_total": warm_total,
        "cold_lp_total": cold_total,
        "lp_ratio": ratio,
        "lp_solves_saved": saved_total,
        "nodes_reused": reused_total,
        "verdicts_identical": True,
        "cert_store": cert_stats,
        "per_step": rows,
    }


def main(argv):
    smoke = "--smoke" in argv
    argv = [a for a in argv if a != "--smoke"]
    out = argv[0] if argv else None
    results = {
        "smoke": smoke,
        "recertify": bench_recertify(SMOKE_STEPS if smoke else STEPS),
        "gate_lp_ratio": MIN_LP_RATIO,
    }
    emit_json("bench_recertify", results, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
