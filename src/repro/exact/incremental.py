"""Solver-level proof reuse: warm-starting branch and bound across versions.

Section VI of the paper asks "how exact solvers based on MILP or SMT can be
engineered to enable proof reuse".  This module implements the natural
answer for ReLU branch and bound: the *branching certificate*.

When a threshold proof completes, the set of settled leaves -- each a
partial phase assignment -- jointly covers the whole input region.  For the
*modified* problem (fine-tuned weights and/or enlarged domain, same
architecture), each leaf's LP can simply be re-solved under the new
encoding:

* if every leaf's relaxation stays below the threshold, the new property is
  proved immediately -- the expensive part of the search (discovering which
  neurons to branch on) is fully reused;
* leaves that no longer close seed a fresh search *from that leaf only*,
  so work is proportional to how much the problem actually changed.

Soundness: phase constraints are region restrictions (``z >= 0`` /
``z <= 0``), so they transfer verbatim to any network with the same block
shapes; a covering set of regions for the old problem covers the new one
too (the input box may even grow -- each leaf's LP is re-built over the new
box).  The same idea is why the paper observes that MILP *cuts* do NOT
transfer under domain enlargement: a cut is a consequence of the old
feasible set, while a branching decision is a partition -- partitions
survive, consequences do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ArtifactError
from repro.api.config import VerifyConfig
from repro.domains.box import Box
from repro.exact.bab import BaBResult, BaBSolver, CoveringLeaves
from repro.exact.encoding import NetworkEncoding, PackedDuals
from repro.nn.network import Network

__all__ = ["BranchCertificate", "prove_with_certificate"]


@dataclass
class BranchCertificate:
    """A covering set of settled branch-and-bound leaves.

    ``leaves`` is their ``(N, W)`` int8 phase matrix (one row per leaf,
    one column per neuron, see :func:`~repro.exact.encoding.
    phase_matrix`); ``block_dims`` pins the architecture the columns refer
    to; ``threshold`` and ``objective`` record what was proved.
    """

    objective: np.ndarray
    threshold: float
    leaves: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), dtype=np.int8))
    block_dims: List[int] = field(default_factory=list)
    #: Per-leaf node-LP dual multipliers captured during the proving
    #: solve, packed by the rows of ``leaves`` -- advisory bookkeeping for
    #: certificate recording (:mod:`repro.certs`), never consulted when
    #: re-proving from the leaves alone.
    leaf_duals: Optional[PackedDuals] = None

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    def compatible_with(self, network: Network) -> bool:
        return network.block_dims() == self.block_dims


def _certify_threshold(network: Network, input_box: Box, c: np.ndarray,
                       threshold: float,
                       encoding: Optional[NetworkEncoding] = None,
                       config: Optional[VerifyConfig] = None,
                       collect_duals: bool = False) -> tuple:
    """Internal threshold certification: the engine path.

    Returns ``(BaBResult, BranchCertificate | None)`` -- the certificate is
    ``None`` unless the proof succeeded.  ``encoding`` lets a caller supply
    a pre-built :class:`NetworkEncoding`; by default one is drawn per the
    config's encoding-cache policy, so certifying several thresholds or
    objectives over one ``(network, box)`` pair builds the LP base exactly
    once.  The search's settled leaves form the covering certificate,
    whatever ``config.workers`` is.
    ``collect_duals`` additionally captures each leaf's optimal node-LP
    dual multipliers, which ride back packed on the returned certificate's
    ``leaf_duals`` -- the raw material certificate recording
    (:mod:`repro.certs`) persists.
    """
    config = config or VerifyConfig()
    # Certificates are global proofs: run under the full budget.
    solver = BaBSolver.from_config(
        network, input_box,
        config.replace(node_limit=config.effective_full_node_limit),
        encoding=encoding)
    leaves = CoveringLeaves(solver.encoding, duals=collect_duals)
    result = solver.maximize(np.asarray(c, dtype=np.float64),
                             threshold=threshold, collect_leaves=leaves)
    if result.status not in ("threshold_proved", "optimal") or \
            result.upper_bound > threshold + config.tol:
        return result, None
    certificate = BranchCertificate(
        objective=np.asarray(c, dtype=np.float64).copy(),
        threshold=float(threshold),
        leaves=leaves.matrix(),
        block_dims=network.block_dims(),
        leaf_duals=leaves.duals(),
    )
    return result, certificate


def prove_with_certificate(network: Network, input_box: Box,
                           certificate: BranchCertificate,
                           threshold: Optional[float] = None,
                           encoding: Optional[NetworkEncoding] = None,
                           config: Optional[VerifyConfig] = None) -> BaBResult:
    """Re-prove the threshold on a *modified* problem, warm-started from the
    certificate's leaves.

    ``network`` may be a fine-tuned version (same block shapes) and
    ``input_box`` an enlarged domain.  ``threshold`` defaults to the
    certified one.  The search runs under ``config``'s (default
    :class:`VerifyConfig`) full node budget, ``tol`` and ``workers``.

    Every leaf LP is a *delta* on one shared encoding (phase rows over the
    cached phase-free base), and the encoding itself is memoised across
    calls: when the continuous-verification loop re-proves with the same
    weights and box -- only phases or the threshold changed -- neither
    symbolic propagation nor base assembly is repeated.  A leaf whose phase
    now contradicts the new network's static stability names an empty
    region and settles as an immediately-infeasible LP.
    """
    if not certificate.compatible_with(network):
        raise ArtifactError(
            "branch certificate was built for a different architecture")
    threshold = certificate.threshold if threshold is None else float(threshold)
    config = config or VerifyConfig()
    solver = BaBSolver.from_config(
        network, input_box,
        config.replace(node_limit=config.effective_full_node_limit),
        encoding=encoding)
    # The leaf re-solve is the frontier warm start: every certificate leaf
    # is screened in one batched pass and the surviving leaf LPs are solved
    # as one batch against the (possibly new) encoding.
    return solver.maximize(certificate.objective, threshold=threshold,
                           initial_nodes=certificate.leaves)
