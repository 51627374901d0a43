"""Batched interval screens: one stacked numpy pass over N regions at once.

Branch and bound bounds hundreds of sibling regions per round, certificate
reuse re-screens a whole frontier of leaves, and the Proposition 4/5
decompositions check one containment per subproblem.  Doing those one
region at a time pays full Python/numpy dispatch overhead per region, so
the screens here stack the regions as ``(N, d)`` bound arrays and push the
whole stack through each layer with a single matmul -- the stacked interval
arithmetic that gives ReluVal/Neurify-style tools their throughput:

* :func:`phase_clamped_node_bounds` -- clamped interval bounds (objective
  upper bound, feasibility and per-block pre-activation ranges) for N
  branch-and-bound nodes (phase-constrained regions) in one pass, the
  pre-LP pruning device of :mod:`repro.exact.bab`;
* :func:`phase_clamped_affine_bounds` -- the same regions with a backward
  affine (CROWN-style) objective bound, the leaf re-screen of
  :mod:`repro.certs.reuse`;
* :func:`screen_containments` -- N heterogeneous ``(network, source,
  target)`` containment subproblems screened in a single dimension-padded
  stacked pass, the Proposition 4/5 pre-screen of
  :mod:`repro.core.propositions`.

Whole-network state abstractions ``[S_1, ..., S_n]`` of one input box come
from the scalar propagators behind
:func:`repro.domains.propagate.get_propagator`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import UnsupportedLayerError
from repro.domains.box import Box
from repro.nn.layers import LeakyReLU, ReLU
from repro.nn.network import Network

__all__ = [
    "phase_clamped_node_bounds",
    "phase_clamped_affine_bounds",
    "screen_containments",
]


def _block_slope(act) -> float:
    """Unified negative-side slope of ``y = max(x, slope * x)``: 0 for ReLU,
    ``alpha`` for LeakyReLU, 1 for a linear (identity) block."""
    if act is None:
        return 1.0
    if isinstance(act, ReLU):
        return 0.0
    if isinstance(act, LeakyReLU):
        return act.alpha
    raise UnsupportedLayerError(
        f"batched screens support ReLU/LeakyReLU/linear, not {type(act).__name__}"
    )


def phase_clamped_node_bounds(
        network: Network, input_box: Box, phases,
        c: Optional[np.ndarray] = None,
        groups: Optional[Sequence[int]] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """One clamped interval pass over N phase-constrained regions, returning
    everything a branch-and-bound node needs.

    ``phases`` is the ``(N, W)`` int8 phase matrix of the regions (one
    column per neuron in block order, 0 free, +-1 fixed; see
    :func:`repro.exact.encoding.phase_matrix`, which also converts a
    sequence of ``PhaseMap`` dicts passed here instead).  Row ``j``'s
    region is the subset of ``input_box`` where its signed pre-activation
    constraints hold.  The batch propagates plain intervals, clamping each
    fixed neuron's pre-activation range to its half-line -- sound because
    every real execution of the region satisfies both the interval
    enclosure and the sign constraint.

    ``c`` is one objective ``(d,)`` for every region, or a ``(G, d)``
    matrix of G objectives.  With ``groups``, G row counts summing to N,
    objective ``g`` bounds the ``g``-th run of rows: the rows of several
    branch-and-bound searches screened in one pass.  Without ``groups``
    every objective bounds every region.

    Returns ``(upper, feasible, pre_lo, pre_hi)``:

    * ``upper`` -- interval upper bounds of the objective per region, or
      ``(N, G)`` for a matrix without ``groups`` (``None`` when no
      objective is supplied; ``-inf`` on infeasible rows);
    * ``feasible`` -- rows whose clamp empties some pre-activation interval
      are marked infeasible (their region is empty);
    * ``pre_lo`` / ``pre_hi`` -- per-block ``(N, d_k)`` post-clamp
      pre-activation bounds, valid ``z``-variable bounds on each region,
      which certificate reuse passes to
      :meth:`repro.exact.encoding.NetworkEncoding.lagrangian_uppers`
      (meaningless on infeasible rows).

    A row's bounds keep their bits when it is stacked with other rows as
    long as BLAS rounds each row of a matrix product alone, which the
    tests check on the project's networks.  numpy multiplies a one-row or
    one-column operand as a matrix-vector product instead, whose rounding
    of a row depends on its place in the batch; with ``groups``, those
    products and the objective's are taken run by run, so every run gets
    the bits of a call with its rows alone.
    """
    from repro.exact.encoding import as_phase_matrix

    phases = as_phase_matrix(phases, network.block_dims()[1:])
    n = len(phases)
    if n == 0:
        empty_upper = None if c is None else np.empty(0)
        return empty_upper, np.empty(0, dtype=bool), [], []
    lo = np.tile(input_box.lower, (n, 1))
    hi = np.tile(input_box.upper, (n, 1))
    feasible = np.ones(n, dtype=bool)
    pre_lo: List[np.ndarray] = []
    pre_hi: List[np.ndarray] = []
    if groups is None:
        runs = [slice(0, n)]
    else:
        ends = np.cumsum(groups).tolist()
        runs = [slice(end - size, end) for end, size in zip(ends, groups)]
    one_row_run = len(runs) > 1 and \
        min(run.stop - run.start for run in runs) == 1

    def product(x: np.ndarray, m: np.ndarray) -> np.ndarray:
        """``x @ m``, run by run where numpy would take a matrix-vector
        product of the stack."""
        if len(runs) == 1 or not (one_row_run or m.shape[1] == 1):
            return x @ m
        return np.concatenate([x[run] @ m for run in runs])

    offset = 0
    for k, block in enumerate(network.blocks()):
        w, b = block.dense.weight, block.dense.bias
        center = 0.5 * (lo + hi)
        radius = 0.5 * (hi - lo)
        zc = product(center, w.T) + b
        zr = product(radius, np.abs(w).T)
        zl, zu = zc - zr, zc + zr
        fixed = phases[:, offset:offset + block.out_dim]
        offset += block.out_dim
        act = block.activation
        if act is None:
            pre_lo.append(zl)
            pre_hi.append(zu)
            lo, hi = zl, zu
            continue
        slope = _block_slope(act)

        if fixed.any():
            zl = np.where(fixed == 1, np.maximum(zl, 0.0), zl)
            zu = np.where(fixed == -1, np.minimum(zu, 0.0), zu)
            empty = zl > zu
            if empty.any():
                feasible &= ~np.any(empty, axis=1)
                zl = np.minimum(zl, zu)  # keep the arithmetic well-formed
        pre_lo.append(zl)
        pre_hi.append(zu)
        # Post-clamp, the standard interval activation is exact for fixed
        # neurons too: active rows have zl >= 0, inactive rows zu <= 0.
        lo = np.where(zl > 0, zl, slope * zl)
        hi = np.where(zu > 0, zu, slope * zu)

    if c is None:
        return None, feasible, pre_lo, pre_hi
    c = np.asarray(c, dtype=np.float64)
    if c.ndim == 1:
        upper = _objective_upper(lo, hi, c)
    elif groups is None:
        upper = np.stack([_objective_upper(lo, hi, row) for row in c], axis=1)
    else:
        upper = np.concatenate([_objective_upper(lo[run], hi[run], row)
                                for run, row in zip(runs, c)])
    upper[~feasible] = -np.inf
    return upper, feasible, pre_lo, pre_hi


def _objective_upper(lo: np.ndarray, hi: np.ndarray,
                     c: np.ndarray) -> np.ndarray:
    """Interval upper bound of ``c @ y`` for every row of ``[lo, hi]``."""
    return hi @ np.maximum(c, 0.0) + lo @ np.minimum(c, 0.0)


def phase_clamped_affine_bounds(
        network: Network, input_box: Box, phases,
        c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Backward affine (CROWN-style) upper bounds over N phase-constrained
    regions -- the near-LP-tight screen certificate reuse warm-starts on.

    Same contract as :func:`phase_clamped_node_bounds` (whose forward pass
    supplies feasibility and the per-block pre-activation intervals), but
    the objective bound comes from one batched *backward* pass: starting
    from ``A = c`` at the output, each activation is replaced per-unit by a
    sound linear enclosure of ``y = max(z, slope * z)`` over its clamped
    pre-activation interval -- exact for stable or phase-fixed units, the
    chord/line relaxation for unstable ones, chosen per the sign of the
    accumulated coefficient -- and each dense layer folds in exactly.  The
    result concretises against the input box in closed form, so a frontier
    of leaves the solver settled at *LP*-bound depth (where plain intervals
    still read "open" -- the dependency problem) re-screens to "proved"
    without a single LP.  Returned uppers are the elementwise minimum of
    the interval and affine bounds; both are sound, so the minimum is.
    """
    upper_iv, feasible, pre_lo, pre_hi = phase_clamped_node_bounds(
        network, input_box, phases, c)
    n = len(feasible)
    if n == 0:
        return upper_iv, feasible, pre_lo, pre_hi
    c_vec = np.asarray(c, dtype=np.float64).reshape(-1)
    blocks = list(network.blocks())

    # A row j holds the coefficients of a sound upper bound
    # ``A[j] @ (post-activation of block k) + bias[j]`` on c @ f(x); the
    # backward pass rewrites it block by block until it is affine in x.
    a_mat = np.tile(c_vec, (n, 1))
    bias = np.zeros(n)
    for k in range(len(blocks) - 1, -1, -1):
        block = blocks[k]
        act = block.activation
        if act is not None:
            slope = _block_slope(act)
            lo_k, hi_k = pre_lo[k], pre_hi[k]
            # Per-unit enclosure of y = max(z, slope*z) on [lo, hi]:
            # stable-active (lo >= 0, includes phase-fixed +1): y = z exact;
            # stable-inactive (hi <= 0, includes phase-fixed -1): y = slope*z
            # exact; unstable: upper chord through the endpoints, lower line
            # through the origin (the steeper of the two exact pieces).
            up_w = np.ones_like(lo_k)
            up_b = np.zeros_like(lo_k)
            low_w = np.ones_like(lo_k)
            inactive = hi_k <= 0.0
            up_w = np.where(inactive, slope, up_w)
            low_w = np.where(inactive, slope, low_w)
            unstable = (lo_k < 0.0) & (hi_k > 0.0)
            denom = np.where(unstable, hi_k - lo_k, 1.0)
            chord_w = (hi_k - slope * lo_k) / denom
            chord_b = hi_k * (1.0 - chord_w)
            up_w = np.where(unstable, chord_w, up_w)
            up_b = np.where(unstable, chord_b, up_b)
            low_w = np.where(
                unstable, np.where(hi_k >= -lo_k, 1.0, slope), low_w)
            # Upper-bounding A @ y: positive coefficients take the upper
            # relaxation, negative ones the lower (both have zero intercept
            # except the chord).
            pos = a_mat >= 0.0
            bias += np.sum(np.where(pos, a_mat * up_b, 0.0), axis=1)
            a_mat = a_mat * np.where(pos, up_w, low_w)
        w, b = block.dense.weight, block.dense.bias
        bias += a_mat @ b
        a_mat = a_mat @ w
    center = 0.5 * (input_box.lower + input_box.upper)
    radius = 0.5 * (input_box.upper - input_box.lower)
    upper_aff = a_mat @ center + np.abs(a_mat) @ radius + bias
    upper = np.minimum(upper_iv, upper_aff)
    upper[~feasible] = -np.inf
    return upper, feasible, pre_lo, pre_hi


def screen_containments(
        subproblems: Sequence[Tuple[Network, Box, Box]],
        tol: float = 1e-9) -> List[Optional[bool]]:
    """Screen N containment subproblems ``∀x ∈ source : f(x) ∈ target`` in
    one dimension-padded stacked interval pass.

    The subproblems may involve different (sub)networks of different widths
    and depths: sources are zero-padded to the widest dimension, every
    block's weights are embedded in a stacked ``(N, dmax, dmax)`` tensor,
    and exhausted (shorter) networks carry their values through identity
    blocks.  Verdicts are ``True`` (containment proved by the sound interval
    bound -- exact for single-block subproblems) or ``None`` (inconclusive;
    the caller falls back to its exact check).  Rows with activations the
    screen cannot express are also ``None``.
    """
    n = len(subproblems)
    if n == 0:
        return []
    supported = []
    for network, source, target in subproblems:
        ok = source.dim == network.input_dim and target.dim == network.output_dim
        if ok:
            try:
                for block in network.blocks():
                    _block_slope(block.activation)
            except UnsupportedLayerError:
                ok = False
        supported.append(ok)
    if not any(supported):
        return [None] * n

    all_dims = [d for (net, _, __), ok in zip(subproblems, supported) if ok
                for d in net.block_dims()]
    dmax = max(all_dims)
    depth = max(net.num_blocks
                for (net, _, __), ok in zip(subproblems, supported) if ok)

    lo = np.zeros((n, dmax))
    hi = np.zeros((n, dmax))
    for j, (network, source, _) in enumerate(subproblems):
        if supported[j]:
            lo[j, :source.dim] = source.lower
            hi[j, :source.dim] = source.upper

    eye = np.eye(dmax)
    for t in range(depth):
        weights = np.zeros((n, dmax, dmax))
        biases = np.zeros((n, dmax))
        slopes = np.ones((n, dmax))
        for j, (network, _, __) in enumerate(subproblems):
            if not supported[j]:
                continue
            blocks = network.blocks()
            if t < len(blocks):
                block = blocks[t]
                d_out, d_in = block.dense.weight.shape
                weights[j, :d_out, :d_in] = block.dense.weight
                biases[j, :d_out] = block.dense.bias
                slopes[j, :d_out] = _block_slope(block.activation)
            else:
                weights[j] = eye  # finished network: carry values through
        center = 0.5 * (lo + hi)
        radius = 0.5 * (hi - lo)
        zc = np.einsum("nij,nj->ni", weights, center) + biases
        zr = np.einsum("nij,nj->ni", np.abs(weights), radius)
        zl, zu = zc - zr, zc + zr
        # y = max(x, slope * x); slope 1 on padding keeps identities exact.
        lo = np.where(zl > 0, zl, slopes * zl)
        hi = np.where(zu > 0, zu, slopes * zu)

    verdicts: List[Optional[bool]] = []
    for j, (_, __, target) in enumerate(subproblems):
        if not supported[j]:
            verdicts.append(None)
            continue
        d = target.dim
        contained = bool(
            np.all(lo[j, :d] >= target.lower - tol)
            and np.all(hi[j, :d] <= target.upper + tol)
        )
        verdicts.append(True if contained else None)
    return verdicts
