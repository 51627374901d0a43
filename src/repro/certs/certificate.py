"""The certificate artifact: what a proved threshold solve leaves behind.

A :class:`Certificate` is the covering set of leaves a threshold proof
settled (one int8 row of a phase matrix each) -- all a verdict carries --
plus everything a *store* needs to hand it to a future, slightly
different problem:

* per-leaf LP **dual multipliers**, the delta-verification workhorse: on
  reuse they re-certify leaves against the *new* weights via one LP-free,
  batched Lagrangian evaluation, sound for any multipliers (weak duality);
* a **structural** network fingerprint (architecture only, no weights) so
  lookups tolerate weight-only changes -- the whole point of delta
  verification;
* the solver-config digest and the from-scratch ``lp_solves`` baseline
  the savings are measured against.

Keys and fingerprints are plain sha256 hex strings over canonical
RFC-8259 JSON, so any JSON-speaking peer can compute them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CertificateError, ReproError
from repro.exact.encoding import PackedDuals
from repro.nn.network import Network
from repro.api.serialize import (
    array_to_jsonable,
    box_to_jsonable,
    float_to_jsonable,
)

__all__ = [
    "CERT_VERSION",
    "Certificate",
    "certificate_key",
    "leaves_cover",
    "load_certificate",
    "structural_fingerprint",
    "validate_certificate",
]

#: Wire/key version: bump when the certificate payload or the key recipe
#: changes incompatibly (old entries then simply miss, never mislead).
#: Version 2: node-LP duals follow the fixed node layout (base rows plus
#: two phase rows per unstable neuron).  Version 3: the duals travel as
#: one packed little-endian float64 matrix instead of JSON number lists.
#: Version 4: the leaves travel as one packed int8 phase matrix instead of
#: per-leaf ``[block, unit, phase]`` triples.  Version 5: the record-time
#: per-leaf screen bounds and verdicts, the content fingerprint and the
#: recording solve's status and bound are gone (nothing read them), and
#: a threshold verdict packs its leaves the same way.
CERT_VERSION = 5

#: Memory bound of one chunk of the pairwise disjointness test (bytes of
#: the ``chunk x n x words`` bit tensor).
_COVER_CHUNK_BYTES = 1 << 22


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

    ``leaves`` is the covering frontier of settled regions as one
    read-only ``(N, W)`` int8 phase matrix (one row per leaf, one column
    per neuron in block order, ``W = sum(block_dims[1:])``; 0 free, +-1
    fixed -- :func:`~repro.exact.encoding.phase_matrix`).  Leaves and
    duals are advisory: the reuse path re-screens every leaf in float64
    against the network it is actually given.

    The search (:func:`repro.certs.reuse._certify_threshold`) returns one
    with only ``objective``, ``threshold``, ``leaves``, ``leaf_duals`` and
    ``block_dims`` set, and a threshold verdict carries that certificate
    (without its duals on the wire);
    :func:`~repro.certs.reuse.extract_certificate` adds the fingerprint,
    config digest and LP baseline the store needs.

    The covering verdict of the leaves (:meth:`covers`) is kept on the
    object while its leaves cannot change, so a decoded certificate used
    again pays the covering check once.
    """

    objective: np.ndarray
    threshold: float
    leaves: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), dtype=np.int8))
    #: Optimal LP dual multipliers per leaf, packed: ``leaf_duals[j]`` is
    #: leaf ``j``'s ``(dual_ub, dual_eq)`` or ``None`` -- the
    #: delta-verification workhorse.  On reuse they are evaluated as a
    #: Lagrangian bound against the *new* network's constraint data, which
    #: is sound for **any** multipliers (weak duality): corrupt or stale
    #: duals loosen the bound and cost an LP, never an unsound verdict.
    leaf_duals: Optional[PackedDuals] = None
    block_dims: List[int] = field(default_factory=list)
    #: Architecture fingerprint lookups key on (weight-tolerant).
    structural_fp: str = ""
    #: sha256 of the recording config (minus the cert policy field).
    config_digest: str = ""
    #: From-scratch LP count of the recording solve -- the denominator
    #: ``lp_solves_saved`` is compared against.
    lp_solves: int = 0
    version: int = CERT_VERSION
    #: ``(leaves, leaves_cover(leaves))`` from the last :meth:`covers`
    #: call on an immutable leaf matrix.
    _cover: Optional[Tuple[np.ndarray, bool]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    def covers(self) -> bool:
        """:func:`leaves_cover` of ``leaves``, computed once per immutable
        leaf matrix -- a read-only view of ``bytes``, as the wire decoder
        returns -- so the verdict cannot go stale.  Writeable leaves, or a
        matrix swapped in since, are checked afresh.  (Threads sharing one
        certificate may both compute it; either stores the same value.)"""
        leaves = self.leaves
        memo = self._cover
        if memo is not None and memo[0] is leaves:
            return memo[1]
        verdict = leaves_cover(leaves)
        if _immutable(leaves):
            self._cover = (leaves, verdict)
        return verdict

    def compatible_with(self, network: Network) -> bool:
        return network.block_dims() == list(self.block_dims)


def _immutable(array) -> bool:
    """Is ``array`` read-only down to an immutable ``bytes`` buffer (so no
    one can make it writeable again)?"""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return isinstance(array, bytes)


def config_digest(config) -> str:
    """Digest of a :class:`~repro.api.config.VerifyConfig` minus the cert
    policy field (same exclusion rule as :func:`certificate_key`)."""
    return _sha256({k: v for k, v in config.to_dict().items()
                    if k != "certs"})


def leaves_cover(leaves) -> bool:
    """Do these leaves jointly cover the whole space?

    ``leaves`` is an ``(N, W)`` int8 phase matrix, or a list of phase-map
    dicts (whose neurons then get columns in order of first mention).

    The warm-start contract of :meth:`BaBSolver.maximize` requires
    ``initial_nodes`` to cover the search space -- a certificate with a
    *gap* could prove a threshold while a violation hides in the uncovered
    region.  Since stored certificates are untrusted input, the covering
    property is re-derived here before any reuse.

    Every producer of leaves is a branch-and-bound frontier, i.e. a
    partition, so the check is exact for partitions and rejects anything
    else.  Each leaf is a cube of ``{+-1}^D`` over the ``D`` neurons any
    leaf names; one fixing ``d`` of them holds ``2^(D-d)`` points.  Two
    cubes are disjoint iff some neuron has opposite phases in them, so
    disjointness of every pair is proved from the matrix (as bit rows, in
    chunks of bounded memory, no BLAS), and disjoint cubes cover iff their
    volumes sum to exactly ``2^D``.  Volumes are Python ints, so the count
    is exact.  Duplicate leaves are dropped first (repeats are legal
    solver output); leaves that still overlap, or a phase outside +-1,
    return ``False`` -- which merely rejects the certificate (sound
    direction: the solve runs cold).
    """
    if not isinstance(leaves, np.ndarray):
        column: Dict = {}
        rows: List[int] = []
        cols: List[int] = []
        phases: List[int] = []
        for i, leaf in enumerate(leaves):
            for var, phase in leaf.items():
                if phase not in (1, -1):
                    return False
                rows.append(i)
                cols.append(column.setdefault(var, len(column)))
                phases.append(phase)
        leaves = np.zeros((len(leaves), len(column)), dtype=np.int8)
        leaves[rows, cols] = phases
    if leaves.ndim != 2 or not len(leaves) or \
            ((leaves < -1) | (leaves > 1)).any():
        return False
    leaves = leaves.astype(np.int8, copy=False)
    if leaves.shape[1]:
        # Rows as opaque byte strings: a 1-D unique, far cheaper than
        # np.unique(axis=0).
        rows = np.ascontiguousarray(leaves).view(
            np.dtype((np.void, leaves.shape[1])))
        leaves = leaves[np.unique(rows.ravel(), return_index=True)[1]]
    else:
        leaves = leaves[:1]  # every leaf is the whole (0-neuron) space
    fixed = leaves != 0
    dim = int(fixed.any(axis=0).sum())
    volume = sum(1 << (dim - d) for d in fixed.sum(axis=1).tolist())
    if volume != 1 << dim:
        return False  # a disjoint set must fill exactly the whole volume
    n = len(leaves)
    pos = _bit_rows(leaves > 0)
    neg = _bit_rows(leaves < 0)
    chunk = max(1, _COVER_CHUNK_BYTES // max(1, n * pos.shape[1] * 8))
    for i0 in range(0, n, chunk):
        i1 = min(n, i0 + chunk)
        clash = ((pos[i0:i1, None] & neg[None]) |
                 (neg[i0:i1, None] & pos[None])).any(axis=2)
        clash[np.arange(i1 - i0), np.arange(i0, i1)] = True  # self-pairs
        if not clash.all():
            return False
    return True


def _bit_rows(mask: np.ndarray) -> np.ndarray:
    """``(n, D)`` bool -> ``(n, max(1, ceil(D/64)))`` uint64 bit rows."""
    packed = np.packbits(mask, axis=1)
    pad = -packed.shape[1] % 8
    if pad or not packed.shape[1]:
        packed = np.pad(packed, ((0, 0), (0, pad or 8)))
    return packed.view(np.uint64)


def validate_certificate(cert: Certificate, network: Network,
                         objective: np.ndarray, threshold: float,
                         config) -> None:
    """Reject a certificate that does not match the problem at hand.

    Raises :class:`~repro.errors.CertificateError` on any mismatch; the
    caller falls back to a from-scratch solve.  Passing validation does
    *not* make the stored bounds trusted -- it only establishes that the
    leaves are a well-formed covering partition for this architecture, so
    they are safe to hand to the solver as warm starts.

    Every check runs on every call except the covering check, whose
    verdict depends on the leaves alone and is kept on ``cert`` once its
    leaves are immutable (:meth:`Certificate.covers`).
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
    leaves = cert.leaves
    width = sum(dims[1:])
    if not isinstance(leaves, np.ndarray) or leaves.dtype != np.int8 or \
            leaves.ndim != 2 or leaves.shape[1] != width:
        raise CertificateError(
            f"certificate leaves are not an int8 phase matrix with one "
            f"column per neuron of the architecture {dims}")
    if not len(leaves):
        raise CertificateError("certificate has no leaves")
    if cert.leaf_duals is not None and len(cert.leaf_duals) != len(leaves):
        raise CertificateError(
            f"{len(cert.leaf_duals)} dual entries for {len(leaves)} leaves")
    if not cert.covers():
        raise CertificateError(
            "certificate leaves do not partition the search space "
            "(gap or overlap)")


def load_certificate(cert_json: str) -> Certificate:
    """Parse an *untrusted* certificate wire string.

    Every malformation -- garbage bytes, wrong shapes, missing keys,
    numbers too large for an int (JSON ``1e400`` is ``inf``), nesting too
    deep to parse -- surfaces as one
    :class:`~repro.errors.CertificateError`, so callers have a single
    rejection path (and the taxonomy stays visible: the original error
    rides along as the cause).
    """
    from repro.api.serialize import certificate_from_json

    try:
        return certificate_from_json(cert_json)
    except ReproError as exc:  # the codec raises nothing else
        raise CertificateError(
            f"unreadable certificate payload: {type(exc).__name__}: {exc}"
        ) from exc
