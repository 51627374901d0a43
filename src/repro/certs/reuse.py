"""Recording and replaying certificates: the delta-verification core.

Every threshold proof, cold or warm, runs one search,
:func:`_certify_threshold`.  :func:`extract_certificate` turns one
proved threshold solve (its covering leaves) into a
:class:`~repro.certs.certificate.Certificate`, keeping for every leaf
the delta-verification workhorse: its node LP's **dual multipliers** at
record time, captured by the search itself.
:func:`reverify_with_certificate` is the other direction: given a
(possibly perturbed) network, warm-start the solver from the stored
leaves, settling them with :func:`dual_start_screen` -- one
batched float64 re-screen against the new weights that combines the
phase-clamped interval/affine bounds with the exact layer's weak-duality
evaluator, :meth:`repro.exact.encoding.NetworkEncoding.lagrangian_uppers`,
run once over all stored leaves at a time.  Only the leaves whose bounds
actually moved past the threshold pay a delta-LP (and, if needed, further
branching).  Leaves travel as rows of one int8 phase matrix from the wire
to the Lagrangian, and each stored dual row is matched to its leaf by
index, so no step loops over the leaves in Python.

Why duals, and why this is sound
--------------------------------
A leaf the solver settled by *LP* bound sits far below the depth where
any forward/backward propagation pass closes it (the relaxation honours
the phase constraints as half-spaces cutting the input region; no
interval or affine pass does).  Weak duality bridges the gap: for the
node LP ``min c'x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, l <= x <= u``,
*any* multipliers ``lambda >= 0``/``mu`` give the bound

    ``min >= -lambda' b_ub - mu' b_eq + min_{l<=x<=u} (c' + lambda' A_ub
    + mu' A_eq) x``

evaluated in closed form.  The matrices, right-hand sides, and variable
bounds are rebuilt in float64 from the network actually being verified;
only the multipliers come from the store.  At the recorded weights the
optimal duals reproduce the LP bound exactly (strong duality), and under
a small weight perturbation the bound moves by O(perturbation) -- so
almost every stored leaf re-certifies LP-free.  A corrupt, stale, or
adversarial certificate can only supply *worse* multipliers, which
loosen the bound and cost an LP, never flip a verdict; a malformed dual
row (non-finite, missing) evaluates to ``+inf`` for its own leaf only,
so it costs that one leaf its LP.

Why the leaves transfer
-----------------------
Section VI of the paper asks how exact solvers can be engineered to
reuse their proofs; for ReLU branch and bound the answer is the covering
set of settled leaves.  Phase constraints are region restrictions
(``z >= 0`` / ``z <= 0``), so they transfer verbatim to any network with
the same block shapes, and a covering set of regions for the old problem
covers the new one too (the input box may even grow -- each leaf's LP is
re-built over the new box).  If every leaf still closes below the
threshold the new property is proved at once; a leaf that no longer
closes seeds a fresh search from that leaf only, so work is proportional
to how much the problem changed.  The same idea is why the paper
observes that MILP *cuts* do not transfer under domain enlargement: a
cut is a consequence of the old feasible set, while a branching decision
is a partition -- partitions survive, consequences do not.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import CertificateError
from repro.api.config import VerifyConfig
from repro.certs.certificate import (
    CERT_VERSION,
    Certificate,
    config_digest,
    structural_fingerprint,
)
from repro.domains.batch import phase_clamped_affine_bounds
from repro.domains.box import Box
from repro.exact.bab import BaBResult, BaBSolver, CoveringLeaves
from repro.exact.encoding import NetworkEncoding, PackedDuals, as_phase_matrix
from repro.nn.network import Network

__all__ = ["extract_certificate", "reverify_with_certificate",
           "dual_start_screen"]


def dual_start_screen(solver: BaBSolver, cert: Certificate,
                      objective: np.ndarray) -> Callable:
    """The warm-start re-screen of certificate reuse, shaped like
    :meth:`BaBSolver._screen_nodes` (an ``(upper, feasible)`` pair) so
    :meth:`BaBSolver.maximize` can use it verbatim for its
    ``initial_nodes`` batch (the certificate's phase matrix).

    Everything is recomputed in float64 from ``solver``'s actual network:
    feasibility and pre-activation bounds by the batched phase-clamped
    pass, the per-leaf upper bound as the minimum of the interval/affine
    bound and the weak-duality bound of the stored duals
    (:meth:`~repro.exact.encoding.NetworkEncoding.lagrangian_uppers`, one
    evaluation over every leaf still open, each matched to its dual row
    by index).  The certificate contributes multipliers only -- hints
    whose worst case is a loose bound.
    """
    c_vec = np.asarray(objective, dtype=np.float64).reshape(-1)

    def screen(phases: np.ndarray):
        upper, feasible, pre_lo, pre_hi = phase_clamped_affine_bounds(
            solver.network, solver.input_box, phases, c_vec)
        duals = cert.leaf_duals
        if duals is not None and len(duals) == len(phases):
            enc = solver.encoding
            threshold = float(cert.threshold) + solver.tol
            # Leaves already settled, empty, or without duals keep theirs.
            todo = np.flatnonzero(feasible & duals.present &
                                  (upper > threshold))
            if todo.size:
                upper[todo] = np.minimum(upper[todo], enc.lagrangian_uppers(
                    -enc.output_objective(c_vec), phases[todo],
                    [lo[todo] for lo in pre_lo], [hi[todo] for hi in pre_hi],
                    duals.take(todo)))
        return upper, feasible

    return screen


def extract_certificate(network: Network, input_box: Box,
                        objective: np.ndarray, threshold: float,
                        result: BaBResult, leaves,
                        config: Optional[VerifyConfig] = None,
                        lp_baseline: Optional[int] = None,
                        duals: Optional[PackedDuals] = None) -> Certificate:
    """Package a proved solve's covering leaves (their phase matrix, or a
    list of phase maps) as a store-ready artifact.

    ``duals`` is the multiplier capture of the proving solve, packed by
    leaf row as :func:`_certify_threshold`'s certificate carries it (the
    :class:`~repro.exact.bab.CoveringLeaves` of the search, which takes a
    warm start the screen settled whole as one block of rows and their
    stored duals).  Recording costs **zero extra LP solves**: every leaf
    that was settled by an LP already has its multipliers captured.
    Leaves settled without an LP (screen-closed) carry no duals; if a
    future perturbation drifts one open, it pays a single delta-LP whose
    duals the re-record then picks up -- lazy, self-healing refresh.  The
    stored rows are picked from ``duals`` by one row selection: those of
    leaves the batched phase-clamped pass finds feasible, when the rows
    are sized for this encoding's node layout.  Duals sized for another
    layout (carried over from a certificate recorded under another
    unstable-neuron set, or from a malformed one) are dropped: they bound
    nothing here, and the wire packs one row width for every leaf.

    ``lp_baseline`` overrides the stored from-scratch LP count (the
    savings denominator): when a *warm-started* solve re-records, the
    original cold baseline is carried forward instead of the warm run's
    own, smaller count.
    """
    config = config or VerifyConfig()
    c_vec = np.asarray(objective, dtype=np.float64).reshape(-1)
    enc = NetworkEncoding.for_problem(network, input_box)
    leaves = np.array(as_phase_matrix(leaves, enc.phase_widths))
    leaves.setflags(write=False)
    feasible = phase_clamped_affine_bounds(network, input_box, leaves,
                                           c_vec)[1]
    sizes = enc.dual_rows()
    present = np.zeros(len(leaves), dtype=bool)
    if duals is not None and len(duals) == len(leaves) and duals.fits(sizes):
        present = duals.present & feasible
    # No row present packs as the empty ``split = width = 0`` matrix.
    packed = PackedDuals(
        duals.matrix[feasible[duals.present]], present, sizes[0]) \
        if present.any() else PackedDuals.absent(len(leaves), (0, 0))
    return Certificate(
        objective=c_vec.copy(),
        threshold=float(threshold),
        leaves=leaves,
        leaf_duals=packed,
        block_dims=network.block_dims(),
        structural_fp=structural_fingerprint(network),
        config_digest=config_digest(config),
        lp_solves=int(result.lp_solves if lp_baseline is None
                      else lp_baseline),
        version=CERT_VERSION,
    )


def _certify_threshold(network: Network, input_box: Box,
                       objective: np.ndarray, threshold: float,
                       config: Optional[VerifyConfig] = None,
                       start: Optional[Certificate] = None,
                       collect_duals: bool = False,
                       ) -> Tuple[BaBResult, Optional[Certificate]]:
    """The one threshold search, cold and warm: ``(BaBResult,
    Certificate | None)``, the certificate (``None`` unless proved)
    holding the search's covering leaves at any ``config.workers``.
    Certificates are global proofs, so the search runs under ``config``'s
    full node budget.

    With no ``start`` the search begins at the root; with one (same
    architecture, else :class:`CertificateError`) it begins from
    ``start.leaves``, settled by :func:`dual_start_screen` -- ``network``
    may be fine-tuned and ``input_box`` enlarged.  ``collect_duals``
    captures each leaf's node-LP multipliers on ``leaf_duals`` (the raw
    material of :func:`extract_certificate`); warm-start leaves the
    screen settles keep their stored rows.
    """
    config = config or VerifyConfig()
    c_vec = np.asarray(objective, dtype=np.float64)
    solver = BaBSolver.from_config(
        network, input_box,
        config.replace(node_limit=config.effective_full_node_limit))
    warm = {}
    if start is not None:
        if not start.compatible_with(network):
            raise CertificateError(
                "certificate was built for a different architecture")
        warm = dict(initial_nodes=start.leaves,
                    initial_duals=start.leaf_duals,
                    start_screen=dual_start_screen(solver, start, objective))
    leaves = CoveringLeaves(solver.encoding, duals=collect_duals)
    result = solver.maximize(c_vec, threshold=float(threshold),
                             collect_leaves=leaves, **warm)
    if result.status not in ("threshold_proved", "optimal") or \
            result.upper_bound > float(threshold) + config.tol:
        return result, None
    return result, Certificate(
        objective=c_vec.copy(),
        threshold=float(threshold),
        leaves=leaves.matrix(),
        leaf_duals=leaves.duals(),
        block_dims=network.block_dims(),
    )


def reverify_with_certificate(network: Network, input_box: Box,
                              objective: np.ndarray, threshold: float,
                              cert: Certificate,
                              config: Optional[VerifyConfig] = None,
                              ) -> Tuple[BaBResult, Optional[Certificate]]:
    """Threshold solve warm-started from a validated certificate:
    :func:`_certify_threshold` from ``cert``, collecting duals.  The
    returned certificate (``None`` unless proved) carries the *new*
    covering frontier, which the caller re-records so the store always
    warm-starts from the latest proved version.

    Soundness: the screen re-derives every bound in float64 against
    ``network``'s actual weights before settling a leaf, and the solver
    completes the search for any leaf left open -- the stored payload is
    hints, not evidence.  ``result.nodes_reused`` / ``lp_solves_saved``
    report how much of the warm start paid off.
    """
    return _certify_threshold(network, input_box, objective, threshold,
                              config=config, start=cert, collect_duals=True)
