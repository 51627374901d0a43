"""LP-based bound tightening (optimisation-based presolve).

The triangle relaxation and the big-M constants of the exact encodings are
only as good as the pre-activation bounds ``[l, u]`` they are built from.
Symbolic propagation gives sound but sometimes loose bounds; this module
tightens them the way modern complete verifiers do: for each (or each
*unstable*) neuron, minimise and maximise its pre-activation subject to the
LP relaxation of the layers *before* it, layer by layer, feeding each
tightened layer into the next.

Tightening is optional (it costs two LP solves per tightened neuron) and
pays off when it flips unstable neurons to stable — every stabilised neuron
halves the branch-and-bound search space.  The trade-off is measured in
``benchmarks/bench_solver_reuse.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SolverError
from repro.domains.box import Box
from repro.domains.symbolic import SymbolicPropagator
from repro.exact.lp import LP_OPTIMAL, solve_lp
from repro.nn.network import Network

__all__ = ["TightenStats", "tighten_preactivation_bounds"]


@dataclass
class TightenStats:
    """What a tightening pass achieved."""

    lp_solves: int = 0
    neurons_tightened: int = 0
    neurons_stabilized: int = 0
    total_width_before: float = 0.0
    total_width_after: float = 0.0

    @property
    def width_reduction(self) -> float:
        """Fraction of total pre-activation interval width removed."""
        if self.total_width_before <= 0:
            return 0.0
        return 1.0 - self.total_width_after / self.total_width_before


def _prefix_lp_system(network: Network, input_box: Box,
                      pre_boxes: List[Box], upto_block: int) -> tuple:
    """Sparse triangle-relaxation LP of blocks ``0..upto_block``.

    Built *once per block* and reused for every neuron tightened in it --
    within a block all neurons share the same prefix bounds, so the system
    is identical and only the objective changes (this is where the sparse
    kernel turns optimisation-based presolve from O(neurons) encodings into
    O(blocks))."""
    from repro.exact.encoding import NetworkEncoding

    prefix = network.subnetwork(0, upto_block + 1)
    enc = NetworkEncoding(prefix, input_box, pre_boxes=pre_boxes[:upto_block + 1])
    return enc, enc.build_lp()


def _prefix_lp_bounds(enc, system, upto_block: int,
                      neuron: int) -> Optional[tuple]:
    """Min/max of block ``upto_block``'s ``neuron`` pre-activation under the
    prefix LP built by :func:`_prefix_lp_system`.

    Returns ``None`` when either LP fails to solve (the caller keeps the
    existing bound -- tightening must never loosen or break soundness).
    """
    objective = np.zeros(system.num_vars)
    objective[enc.z_slices[upto_block].start + neuron] = 1.0
    lo_res = solve_lp(objective, system.a_ub, system.b_ub,
                      system.a_eq, system.b_eq, system.bounds)
    hi_res = solve_lp(-objective, system.a_ub, system.b_ub,
                      system.a_eq, system.b_eq, system.bounds)
    if lo_res.status != LP_OPTIMAL or hi_res.status != LP_OPTIMAL:
        return None
    return float(lo_res.value), float(-hi_res.value)


def tighten_preactivation_bounds(network: Network, input_box: Box,
                                 pre_boxes: Optional[List[Box]] = None,
                                 only_unstable: bool = True,
                                 max_lp_solves: int = 2000,
                                 ) -> tuple:
    """Tighten per-neuron pre-activation bounds with prefix LPs.

    Returns ``(tightened_boxes, stats)``.  ``only_unstable=True`` (default)
    spends LPs only where stability is undecided -- the neurons that
    actually cost branch-and-bound nodes.  ``max_lp_solves`` caps the
    presolve budget; remaining neurons keep their propagated bounds.
    """
    if pre_boxes is None:
        pre_boxes = SymbolicPropagator().preactivation_boxes(network, input_box)
    boxes = [Box(b.lower.copy(), b.upper.copy()) for b in pre_boxes]
    stats = TightenStats(
        total_width_before=float(sum(b.widths.sum() for b in boxes)))

    for k, block in enumerate(network.blocks()):
        if block.activation is None and k < network.num_blocks - 1:
            continue
        lower = boxes[k].lower.copy()
        upper = boxes[k].upper.copy()
        enc = system = None  # prefix LP assembled lazily, once per block
        for i in range(block.out_dim):
            unstable = lower[i] < 0.0 < upper[i]
            if only_unstable and not unstable:
                continue
            if stats.lp_solves + 2 > max_lp_solves:
                break
            if system is None:
                enc, system = _prefix_lp_system(network, input_box, boxes, k)
            result = _prefix_lp_bounds(enc, system, k, i)
            stats.lp_solves += 2
            if result is None:
                continue
            new_lo, new_hi = result
            if new_lo > new_hi:
                raise SolverError(
                    f"tightening produced inverted bounds at block {k}, "
                    f"neuron {i}: [{new_lo}, {new_hi}]")
            new_lo = max(new_lo, lower[i])
            new_hi = min(new_hi, upper[i])
            if new_lo > lower[i] + 1e-12 or new_hi < upper[i] - 1e-12:
                stats.neurons_tightened += 1
                if unstable and (new_lo >= 0.0 or new_hi <= 0.0):
                    stats.neurons_stabilized += 1
            lower[i], upper[i] = new_lo, new_hi
        boxes[k] = Box(lower, upper)

    stats.total_width_after = float(sum(b.widths.sum() for b in boxes))
    return boxes, stats
