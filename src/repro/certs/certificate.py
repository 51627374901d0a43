"""The certificate artifact: what a proved threshold solve leaves behind.

A :class:`Certificate` extends the solver-level
:class:`~repro.exact.incremental.BranchCertificate` (a bare covering set
of phase-map leaves) with everything a *store* needs to hand it to a
future, slightly different problem:

* per-leaf bounds and verdicts from the batched float64 screen at record
  time (provenance -- the reuse path re-derives them, never trusts them);
* per-leaf LP **dual multipliers**, the delta-verification workhorse: on
  reuse they re-certify leaves against the *new* weights via one LP-free
  Lagrangian evaluation each, sound for any multipliers (weak duality);
* a **structural** network fingerprint (architecture only, no weights) so
  lookups tolerate weight-only changes -- the whole point of delta
  verification -- plus the **content** fingerprint of the exact network
  that was proved, for provenance;
* the solver-config digest and the from-scratch ``lp_solves`` baseline
  the savings are measured against.

Keys and fingerprints are plain sha256 hex strings over canonical
RFC-8259 JSON, so any JSON-speaking peer can compute them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import CertificateError, ReproError
from repro.nn.network import Network
from repro.api.serialize import (
    array_to_jsonable,
    box_to_jsonable,
    float_to_jsonable,
    network_to_jsonable,
)

__all__ = [
    "CERT_VERSION",
    "Certificate",
    "certificate_key",
    "content_fingerprint",
    "leaves_cover",
    "load_certificate",
    "structural_fingerprint",
    "validate_certificate",
]

#: Wire/key version: bump when the certificate payload or the key recipe
#: changes incompatibly (old entries then simply miss, never mislead).
#: Version 2: node-LP duals follow the fixed node layout (base rows plus
#: two phase rows per unstable neuron).
CERT_VERSION = 2

#: Split budget of the covering check: an adversarial leaf set can force
#: exponential work, so the check gives up (rejecting the certificate --
#: the sound direction) after this many recursive splits.
_COVER_SPLIT_BUDGET = 100_000


def _sha256(payload: Dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, allow_nan=False).encode("utf-8")
    ).hexdigest()


def structural_fingerprint(network: Network) -> str:
    """Architecture-only fingerprint: dims and activations, **no weights**.

    Two networks that differ only in their Dense parameters -- the
    retrain/fine-tune case delta verification targets -- share this
    fingerprint, so a certificate recorded for one is *found* for the
    other (and then re-validated against the actual weights).
    """
    payload = {
        "input_dim": int(network.input_dim),
        "blocks": [
            {
                "out_dim": int(blk.out_dim),
                "activation": None if blk.activation is None
                else type(blk.activation).__name__,
                "alpha": None if blk.activation is None
                else float(getattr(blk.activation, "alpha", 0.0)),
            }
            for blk in network.blocks()
        ],
    }
    return _sha256(payload)


def content_fingerprint(network: Network) -> str:
    """Exact-weights fingerprint of the canonical wire form -- identifies
    the one network a certificate was actually proved on (provenance
    only; lookups key on :func:`structural_fingerprint`)."""
    return _sha256(network_to_jsonable(network))


def certificate_key(network: Network, input_box, objective: np.ndarray,
                    threshold: float, config) -> str:
    """The store key of a threshold certificate.

    ``(structural network fingerprint, spec, config)``: the network enters
    only through its architecture so weight-only updates hit the same
    slot, while box / objective / threshold / solver config changes miss
    (a certificate proves one property under one solver configuration).
    The :attr:`~repro.api.config.VerifyConfig.certs` policy field is
    excluded -- whether a run records or reuses must not change *which*
    certificate it finds.
    """
    config_dict = {k: v for k, v in config.to_dict().items() if k != "certs"}
    payload = {
        "v": CERT_VERSION,
        "network": structural_fingerprint(network),
        "input_box": box_to_jsonable(input_box),
        "objective": array_to_jsonable(np.asarray(objective,
                                                  dtype=np.float64)),
        "threshold": float_to_jsonable(threshold),
        "config": config_dict,
    }
    return _sha256(payload)


@dataclass
class Certificate:
    """A persistable, re-checkable record of one proved threshold solve.

    ``leaves`` is the covering frontier of settled phase maps (the same
    invariant as :class:`~repro.exact.incremental.BranchCertificate`);
    ``leaf_bounds`` / ``leaf_verdicts`` are the batched-screen results at
    record time.  All of it is advisory: the reuse path re-screens every
    leaf in float64 against the network it is actually given.
    """

    objective: np.ndarray
    threshold: float
    leaves: List[Dict] = field(default_factory=list)
    #: Screened objective upper bound per leaf at record time.
    leaf_bounds: List[float] = field(default_factory=list)
    #: Screen verdict per leaf at record time: "proved" (closed below the
    #: threshold on intervals alone), "empty", or "open" (needed its LP).
    leaf_verdicts: List[str] = field(default_factory=list)
    #: Optimal LP dual multipliers per leaf, ``(dual_ub, dual_eq)`` arrays
    #: or ``None`` -- the delta-verification workhorse.  On reuse they are
    #: evaluated as a Lagrangian bound against the *new* network's
    #: constraint data, which is sound for **any** multipliers (weak
    #: duality): corrupt or stale duals loosen the bound and cost an LP,
    #: never an unsound verdict.
    leaf_duals: List[Optional[tuple]] = field(default_factory=list)
    block_dims: List[int] = field(default_factory=list)
    #: Architecture fingerprint lookups key on (weight-tolerant).
    structural_fp: str = ""
    #: Exact-weights fingerprint of the proved network (provenance).
    content_fp: str = ""
    #: sha256 of the recording config (minus the cert policy field).
    config_digest: str = ""
    #: BaB status / sound bound of the recording solve.
    status: str = ""
    upper_bound: float = 0.0
    #: From-scratch LP count of the recording solve -- the denominator
    #: ``lp_solves_saved`` is compared against.
    lp_solves: int = 0
    version: int = CERT_VERSION

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    def compatible_with(self, network: Network) -> bool:
        return network.block_dims() == list(self.block_dims)


def config_digest(config) -> str:
    """Digest of a :class:`~repro.api.config.VerifyConfig` minus the cert
    policy field (same exclusion rule as :func:`certificate_key`)."""
    return _sha256({k: v for k, v in config.to_dict().items()
                    if k != "certs"})


def leaves_cover(leaves: List[Dict], max_splits: int = _COVER_SPLIT_BUDGET
                 ) -> bool:
    """Do these partial phase assignments jointly cover the whole space?

    The warm-start contract of :meth:`BaBSolver.maximize` requires
    ``initial_nodes`` to cover the search space -- a certificate with a
    *gap* could prove a threshold while a violation hides in the uncovered
    region.  Since stored certificates are untrusted input, the covering
    property is re-derived here before any reuse.

    Recursive partition check: an empty assignment covers its region;
    otherwise split on one constrained neuron and require both sides
    covered (assignments not mentioning the neuron cover both).  The
    split budget bounds adversarial blow-up -- exhausting it returns
    ``False``, which merely rejects the certificate (sound direction).
    """
    budget = max_splits

    def covers(maps: List[Dict]) -> bool:
        nonlocal budget
        if any(not m for m in maps):
            return True
        if not maps or budget <= 0:
            return False
        budget -= 1
        # Split on the first leaf's first constrained neuron: every map
        # either constrains it (one side) or covers both sides as-is.
        var = next(iter(maps[0]))
        for side in (1, -1):
            sub: List[Dict] = []
            for m in maps:
                phase = m.get(var)
                if phase is None:
                    sub.append(m)
                elif phase == side:
                    sub.append({k: v for k, v in m.items() if k != var})
            if not covers(sub):
                return False
        return True

    # Dedupe first: repeated leaves are legal output of the solver but
    # pure waste for the partition recursion.
    unique = {tuple(sorted(m.items())): m for m in leaves}
    return covers([dict(m) for m in unique.values()])


def validate_certificate(cert: Certificate, network: Network,
                         objective: np.ndarray, threshold: float,
                         config) -> None:
    """Reject a certificate that does not match the problem at hand.

    Raises :class:`~repro.errors.CertificateError` on any mismatch; the
    caller falls back to a from-scratch solve.  Passing validation does
    *not* make the stored bounds trusted -- it only establishes that the
    leaves are a well-formed covering partition for this architecture, so
    they are safe to hand to the solver as warm starts.
    """
    if int(cert.version) != CERT_VERSION:
        raise CertificateError(
            f"certificate version {cert.version} != {CERT_VERSION}")
    if cert.structural_fp != structural_fingerprint(network):
        raise CertificateError(
            "certificate was recorded for a different architecture "
            "(structural fingerprint mismatch)")
    dims = network.block_dims()
    if list(cert.block_dims) != dims:
        raise CertificateError(
            f"certificate block dims {cert.block_dims} != network {dims}")
    if cert.config_digest != config_digest(config):
        raise CertificateError(
            "certificate was recorded under a different solver config")
    obj = np.asarray(objective, dtype=np.float64).reshape(-1)
    if not np.array_equal(np.asarray(cert.objective,
                                     dtype=np.float64).reshape(-1), obj):
        raise CertificateError("certificate objective differs")
    if float(cert.threshold) != float(threshold):
        raise CertificateError(
            f"certificate threshold {cert.threshold} != {threshold}")
    if not cert.leaves:
        raise CertificateError("certificate has no leaves")
    n_blocks = len(dims) - 1
    for leaf in cert.leaves:
        for (block, unit), phase in leaf.items():
            if phase not in (1, -1):
                raise CertificateError(f"leaf phase {phase!r} is not +/-1")
            if not (0 <= block < n_blocks and 0 <= unit < dims[block + 1]):
                raise CertificateError(
                    f"leaf names neuron ({block}, {unit}) outside the "
                    f"architecture {dims}")
    if cert.leaf_duals and len(cert.leaf_duals) != len(cert.leaves):
        raise CertificateError(
            f"{len(cert.leaf_duals)} dual entries for "
            f"{len(cert.leaves)} leaves")
    if not leaves_cover(cert.leaves):
        raise CertificateError(
            "certificate leaves do not cover the search space "
            "(gap or covering check budget exhausted)")


def load_certificate(cert_json: str) -> Certificate:
    """Parse an *untrusted* certificate wire string.

    Every malformation -- garbage bytes, wrong shapes, missing keys --
    surfaces as one :class:`~repro.errors.CertificateError`, so callers
    have a single rejection path (and the taxonomy stays visible: the
    original error rides along as the cause).
    """
    from repro.api.serialize import certificate_from_json

    try:
        return certificate_from_json(cert_json)
    except (ReproError, ValueError, TypeError, KeyError) as exc:
        raise CertificateError(
            f"unreadable certificate payload: {type(exc).__name__}: {exc}"
        ) from exc
