"""Recording and replaying certificates: the delta-verification core.

:func:`extract_certificate` turns one proved threshold solve (its
covering leaves) into a :class:`~repro.certs.certificate.Certificate`,
annotating every leaf with its node-LP bound, verdict, and -- the
delta-verification workhorse -- the LP's optimal **dual multipliers** at
record time.  :func:`reverify_with_certificate` is the other direction:
given a (possibly perturbed) network, warm-start the solver from the
stored leaves, settling them with :func:`dual_start_screen` -- one
batched float64 re-screen against the new weights that combines the
phase-clamped interval/affine bounds with a per-leaf Lagrangian
evaluation of the stored duals.  Only the leaves whose bounds actually
moved past the threshold pay a delta-LP (and, if needed, further
branching).

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
loosen the bound and cost an LP, never flip a verdict.

Branching decisions are weights-independent partitions, which is why
they transfer across weight perturbations at all: a covering set of
phase regions for the old network covers the new one verbatim
("partitions survive, consequences do not" --
:mod:`repro.exact.incremental`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.api.config import VerifyConfig
from repro.certs.certificate import (
    CERT_VERSION,
    Certificate,
    config_digest,
    content_fingerprint,
    structural_fingerprint,
)
from repro.domains.batch import _block_slope, phase_clamped_affine_bounds
from repro.domains.box import Box
from repro.exact.bab import BaBResult, BaBSolver
from repro.exact.encoding import PhaseMap
from repro.exact.incremental import BranchCertificate
from repro.nn.network import Network

__all__ = ["extract_certificate", "reverify_with_certificate",
           "dual_start_screen"]


def _screen_batch(solver: BaBSolver, phase_maps: List[PhaseMap],
                  c_vec: np.ndarray):
    """One batched interval+affine pass: uppers, feasibility, per-block
    pre-activation bounds, and the ``tight_pre`` lists both the node LPs
    and the Lagrangian evaluation feed on."""
    upper, feasible, pre_lo, pre_hi = phase_clamped_affine_bounds(
        solver.network, solver.input_box, phase_maps, c_vec)
    tights = [[(pre_lo[k][j], pre_hi[k][j]) for k in range(len(pre_lo))]
              for j in range(len(phase_maps))]
    return upper, feasible, tights


def _finite_var_bounds(solver: BaBSolver, tight: List[Tuple[np.ndarray,
                                                            np.ndarray]],
                       system) -> Tuple[np.ndarray, np.ndarray]:
    """Finite ``[lo, hi]`` per LP variable, from the leaf's phase-clamped
    bounds (``x`` from the box, ``z`` from the pre-activation intervals,
    ``a`` from the activation image), intersected with the system's own.
    Finiteness everywhere is what keeps the Lagrangian's box-minimisation
    term finite when perturbed reduced costs drift off exact zero."""
    enc = solver.encoding
    lo = np.full(enc.num_continuous, -np.inf)
    hi = np.full(enc.num_continuous, np.inf)
    lo[enc.input_slice] = solver.input_box.lower
    hi[enc.input_slice] = solver.input_box.upper
    for k, block in enumerate(solver.network.blocks()):
        zl, zu = tight[k]
        lo[enc.z_slices[k]] = zl
        hi[enc.z_slices[k]] = zu
        if block.activation is not None:
            s = _block_slope(block.activation)
            # y = max(z, s*z) is nondecreasing for s in [0, 1].
            lo[enc.a_slices[k]] = np.maximum(zl, s * zl)
            hi[enc.a_slices[k]] = np.maximum(zu, s * zu)
    for i, (sys_lo, sys_hi) in enumerate(system.bounds):
        if sys_lo is not None:
            lo[i] = max(lo[i], sys_lo)
        if sys_hi is not None:
            hi[i] = min(hi[i], sys_hi)
    return lo, hi


def _lagrangian_upper(system, neg_obj: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray, dual) -> float:
    """Weak-duality upper bound on the node *maximum* from stored
    multipliers -- sound for any ``dual`` (negative ``lambda`` entries are
    clipped; shape mismatches and non-finite inputs return ``+inf``, i.e.
    "screen says nothing", the leaf just pays its LP).

    Rows with an infinite right-hand side -- the unfixed phase rows of the
    fixed node layout -- are vacuous and get multiplier 0 (otherwise
    ``lambda @ b_ub`` would be ``0 * inf = nan`` and the leaf would always
    pay its LP)."""
    if dual is None:
        return np.inf
    lam, mu = dual
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    n_ub = 0 if system.b_ub is None else len(system.b_ub)
    n_eq = 0 if system.b_eq is None else len(system.b_eq)
    if lam.size != n_ub or mu.size != n_eq:
        return np.inf
    if not (np.isfinite(lam).all() and np.isfinite(mu).all()):
        return np.inf
    lam = np.maximum(lam, 0.0)  # lambda >= 0 is what makes any value sound
    g = neg_obj.copy()
    rhs = 0.0
    if n_ub:
        b_ub = np.asarray(system.b_ub, dtype=np.float64)
        finite = np.isfinite(b_ub)
        lam = np.where(finite, lam, 0.0)
        g = g + system.a_ub.T @ lam
        rhs += float(lam[finite] @ b_ub[finite])
    if n_eq:
        g = g + system.a_eq.T @ mu
        rhs += float(mu @ system.b_eq)
    g = np.asarray(g).reshape(-1)
    term = np.where(g > 0, g * lo, g * hi)  # min of g'x over the var box
    if not np.isfinite(term).all():
        return np.inf
    return rhs - float(term.sum())


def dual_start_screen(solver: BaBSolver, cert: Certificate,
                      objective: np.ndarray) -> Callable:
    """The warm-start re-screen of certificate reuse, shaped like
    :meth:`BaBSolver._screen_nodes` so :meth:`BaBSolver.maximize` can use
    it verbatim for its ``initial_nodes`` batch.

    Everything is recomputed in float64 from ``solver``'s actual network:
    feasibility and pre-activation bounds by the batched phase-clamped
    pass, the per-leaf upper bound as the minimum of the interval/affine
    bound and the Lagrangian evaluation of the stored duals against the
    freshly built node-LP data.  The certificate contributes multipliers
    only -- hints whose worst case is a loose bound.
    """
    c_vec = np.asarray(objective, dtype=np.float64).reshape(-1)

    def screen(phase_maps: List[PhaseMap]):
        if not solver.interval_prune:
            # Without pruning the solver ignores screen bounds entirely;
            # keep its stock behaviour byte-identical.
            return solver._screen_nodes(phase_maps, c_vec)
        upper, feasible, tights = _screen_batch(solver, phase_maps, c_vec)
        duals = cert.leaf_duals
        if len(duals) == len(phase_maps):
            enc = solver.encoding
            neg_obj = -enc.output_objective(c_vec)
            threshold = float(cert.threshold) + solver.tol
            for j, leaf in enumerate(phase_maps):
                if not bool(feasible[j]) or duals[j] is None or \
                        float(upper[j]) <= threshold:
                    continue  # already settled, or nothing stored
                system = enc.build_lp(leaf, tight_pre=tights[j])
                lo, hi = _finite_var_bounds(solver, tights[j], system)
                upper[j] = min(float(upper[j]), _lagrangian_upper(
                    system, neg_obj, lo, hi, duals[j]))
        return upper, feasible, tights if solver.node_tighten else None

    return screen


def _leaf_key(leaf: PhaseMap) -> tuple:
    return tuple(sorted(leaf.items()))


def extract_certificate(network: Network, input_box: Box,
                        objective: np.ndarray, threshold: float,
                        result: BaBResult, leaves: List[PhaseMap],
                        config: Optional[VerifyConfig] = None,
                        lp_baseline: Optional[int] = None,
                        duals: Optional[dict] = None) -> Certificate:
    """Package a proved solve's covering leaves as a store-ready artifact.

    ``duals`` is the ``collect_duals`` capture of the proving solve (each
    node LP's optimal multipliers, keyed by canonical phase-map items, as
    carried by ``BranchCertificate.leaf_duals``).  Recording costs **zero
    extra LP solves**: every leaf that was settled by an LP already has
    its multipliers captured, and each is annotated here with one LP-free
    Lagrangian evaluation (which at the recording weights reproduces the
    LP bound exactly -- strong duality).  Leaves settled without an LP
    (screen-closed) carry no duals; if a future perturbation drifts one
    open, it pays a single delta-LP whose duals the re-record then picks
    up -- lazy, self-healing refresh.

    ``lp_baseline`` overrides the stored from-scratch LP count (the
    savings denominator): when a *warm-started* solve re-records, the
    original cold baseline is carried forward instead of the warm run's
    own, smaller count.
    """
    config = config or VerifyConfig()
    c_vec = np.asarray(objective, dtype=np.float64).reshape(-1)
    solver = BaBSolver.from_config(network, input_box, config)
    enc = solver.encoding
    neg_obj = -enc.output_objective(c_vec)
    upper, feasible, tights = _screen_batch(solver, leaves, c_vec)
    duals = duals or {}
    bounds: List[float] = []
    verdicts: List[str] = []
    stored: List[Optional[tuple]] = []
    for j, leaf in enumerate(leaves):
        if not bool(feasible[j]):
            bounds.append(-np.inf)
            verdicts.append("empty")
            stored.append(None)
            continue
        dual = duals.get(_leaf_key(leaf))
        bound = float(upper[j])
        if dual is not None:
            system = enc.build_lp(leaf, tight_pre=tights[j])
            lo, hi = _finite_var_bounds(solver, tights[j], system)
            bound = min(bound, _lagrangian_upper(
                system, neg_obj, lo, hi, dual))
            dual = (np.asarray(dual[0], dtype=np.float64),
                    np.asarray(dual[1], dtype=np.float64))
        bounds.append(bound)
        verdicts.append("proved" if bound <= float(threshold) + config.tol
                        else "open")
        stored.append(dual)
    return Certificate(
        objective=c_vec.copy(),
        threshold=float(threshold),
        leaves=[dict(leaf) for leaf in leaves],
        leaf_bounds=bounds,
        leaf_verdicts=verdicts,
        leaf_duals=stored,
        block_dims=network.block_dims(),
        structural_fp=structural_fingerprint(network),
        content_fp=content_fingerprint(network),
        config_digest=config_digest(config),
        status=result.status,
        upper_bound=float(result.upper_bound),
        lp_solves=int(result.lp_solves if lp_baseline is None
                      else lp_baseline),
        version=CERT_VERSION,
    )


def reverify_with_certificate(network: Network, input_box: Box,
                              objective: np.ndarray, threshold: float,
                              cert: Certificate,
                              config: Optional[VerifyConfig] = None,
                              ) -> Tuple[BaBResult,
                                         Optional[BranchCertificate]]:
    """Threshold solve warm-started from a validated certificate.

    Mirrors :func:`repro.exact.incremental._certify_threshold` exactly --
    full node budget, covering-leaf collection, same proof condition --
    except the search starts from ``cert.leaves`` instead of the root,
    and the start batch is settled by :func:`dual_start_screen`.  The
    returned :class:`BranchCertificate` (``None`` unless proved) carries
    the *new* covering frontier, which the caller re-records so the store
    always warm-starts from the latest proved version.

    Soundness: the screen re-derives every bound in float64 against
    ``network``'s actual weights before settling a leaf, and the solver
    completes the search for any leaf left open -- the stored payload is
    hints, not evidence.  ``result.nodes_reused`` / ``lp_solves_saved``
    report how much of the warm start paid off.
    """
    config = config or VerifyConfig()
    solver = BaBSolver.from_config(
        network, input_box,
        config.replace(node_limit=config.effective_full_node_limit))
    new_leaves: List[PhaseMap] = []
    new_duals: dict = {}
    result = solver.maximize(
        np.asarray(objective, dtype=np.float64), threshold=float(threshold),
        initial_nodes=[dict(leaf) for leaf in cert.leaves],
        collect_leaves=new_leaves,
        start_screen=dual_start_screen(solver, cert, objective),
        collect_duals=new_duals)
    # Leaves the screen settled LP-free keep their stored multipliers for
    # the re-record (still the freshest available); leaves the search
    # re-solved get this run's (setdefault: fresh captures win).
    for j, leaf in enumerate(cert.leaves):
        if j < len(cert.leaf_duals) and cert.leaf_duals[j] is not None:
            new_duals.setdefault(_leaf_key(leaf), cert.leaf_duals[j])
    if result.status not in ("threshold_proved", "optimal") or \
            result.upper_bound > float(threshold) + config.tol:
        return result, None
    certificate = BranchCertificate(
        objective=np.asarray(objective, dtype=np.float64).copy(),
        threshold=float(threshold),
        leaves=new_leaves,
        block_dims=network.block_dims(),
        leaf_duals=new_duals,
    )
    return result, certificate
