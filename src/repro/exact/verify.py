"""Exact containment and output-range decisions behind the engine.

Two primitives cover everything the continuous-verification core needs:

* :func:`_output_range_exact` -- the exact per-output min/max box of a
  (sub)network over a box of inputs (branch and bound per output neuron).
* :func:`_check_containment` -- decide ``∀x ∈ box : f(x) ∈ target`` where
  ``target`` is a box; this *is* the paper's local reuse condition with
  ``target = S_{i+1}`` (Propositions 1, 2, 4, 5) or ``target = Dout``.

``_check_containment`` supports three methods mirroring Fig. 1's insight:
``"symbolic"`` (cheap one-shot abstract transformer, may lose), ``"split"``
(abstraction with refinement), and ``"exact"`` (complete branch and bound,
the default).

``"exact"`` screens each target bound symbolically first: one
symbolic-interval pass (ReluVal, Wang et al., 2018) gives an output box,
and only the bounds that box does not already prove get a
branch-and-bound search.  A bound the screen proves cannot be refuted, so
the screen never changes which output a refutation names.

When the network ends in a ReLU or LeakyReLU, ``"exact"`` checks the
target on the final pre-activations instead, whenever every finite
target bound has an exact float64 preimage under that monotone
activation (:func:`_behind_activation`): the screen and the searches
then run on the network without it, so the output neurons are never
relaxed or branched on.  The decision, the search order and the detail
text are those of the check on the real network; a counterexample is
still an input, and its ``violation`` is measured on the real network.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import DomainError
from repro.api.config import DEFAULT_METHOD, METHODS, VerifyConfig
from repro.domains.box import Box
from repro.domains.propagate import output_box
from repro.exact.bab import (
    BAB_NODE_LIMIT,
    BAB_REFUTED,
    BaBSolver,
)
from repro.exact.splitting import check_containment_split
from repro.nn.layers import LeakyReLU, ReLU
from repro.nn.network import Network

__all__ = ["ContainmentResult"]


@dataclass
class ContainmentResult:
    """Verdict of a containment check.

    ``holds`` is ``True`` (proved), ``False`` (refuted with a concrete
    ``counterexample``), or ``None`` (inconclusive -- only possible for the
    incomplete methods or when the exact solver hits its node limit).
    ``violation`` quantifies how far outside the target the analysis got
    (0 when proved).  ``elapsed`` is wall-clock seconds, the quantity the
    Table I reproduction aggregates.
    """

    holds: Optional[bool]
    method: str
    counterexample: Optional[np.ndarray] = None
    violation: float = 0.0
    elapsed: float = 0.0
    lp_solves: int = 0
    nodes: int = 0
    detail: str = ""


def _check_symbolic(screen: Box, target: Box) -> ContainmentResult:
    if target.contains_box(screen):
        return ContainmentResult(holds=True, method="symbolic")
    return ContainmentResult(
        holds=None,
        method="symbolic",
        violation=target.containment_violation(screen),
        detail="symbolic over-approximation exceeds target",
    )


def _check_split(network: Network, box: Box, target: Box,
                 max_boxes: int) -> ContainmentResult:
    res = check_containment_split(network, box, target, max_boxes=max_boxes)
    holds = {"safe": True, "unsafe": False, "unknown": None}[res.status]
    return ContainmentResult(
        holds=holds,
        method="split",
        counterexample=res.counterexample,
        nodes=res.boxes_processed,
        detail=f"split status={res.status}",
    )


def _behind_activation(network: Network, target: Box,
                       tol: float) -> Optional[Tuple[Network, Box]]:
    """``(head, pre_target)``: ``network`` without its final activation
    and the bounds its final pre-activations ``z`` must meet for
    ``act(z) ∈ target`` -- or ``None`` when some bound has no exact
    float64 preimage and the check stays on ``network``.

    A threshold search decides a bound up to ``tol``, so the preimage is
    taken of the widened bounds ``hi + tol`` and ``lo - tol``, where the
    activation is monotone and the identity on ``[0, inf)``:

    * ``hi >= 0`` stays ``z <= hi``; ``hi < 0`` has no such preimage;
    * ``lo`` stays ``z >= lo`` when ``lo - tol >= 0`` (``> 0`` under a
      ReLU, where ``act(z) < 0`` is impossible);
    * under a ReLU, ``lo - tol <= 0`` always holds and is dropped;
      under a LeakyReLU, ``lo - tol < 0`` needs a division by its slope
      and has no exact preimage.
    """
    act = network.block(network.num_blocks - 1).activation
    if isinstance(act, ReLU):
        slope = 0.0
    elif isinstance(act, LeakyReLU):
        slope = act.alpha
    else:
        return None
    lower, upper = target.lower, target.upper
    if np.any(np.isfinite(upper) & (upper < 0)):
        return None
    widened = lower - tol
    if slope == 0.0:
        lower = np.where(widened <= 0, -np.inf, lower)
    elif np.any(np.isfinite(lower) & (widened < 0)):
        return None
    head = Network(network.layers[:-1], input_dim=network.input_dim)
    return head, Box(lower, upper)


def _check_exact(network: Network, box: Box, target: Box,
                 config: VerifyConfig) -> ContainmentResult:
    """Exact containment: one threshold search per finite target bound
    that the symbolic-interval screen does not already prove.

    Searches are ordered output ``i``, its max then its min, and decided
    as running them one by one in that order and stopping at the first
    refuted (or node-limited) one would: a refutation names the
    lowest-index violated output whether or not the screen proved other
    bounds.  :meth:`BaBSolver.maximize_thresholds` runs them together.
    It solves their roots one at a time, in order, and starts no search
    after an earlier one has ended refuted or at its node limit; the
    searches whose roots leave them open then share frontier rounds.  A
    search the one-by-one order would never have run -- it comes after a
    search that refutes during those rounds -- is abandoned, and its LPs
    and nodes are not counted: ``lp_solves`` and ``nodes`` are those of
    the one-by-one order.

    When :func:`_behind_activation` moves the check onto the final
    pre-activations, the screen and the searches bound those, against
    the preimage bounds; otherwise they bound the outputs against
    ``target``.  Either way a refutation's ``violation`` is measured on
    ``network`` itself at the witness input."""
    behind = _behind_activation(network, target, float(config.tol))
    searched, bounds = behind if behind is not None else (network, target)
    screen = output_box(searched, box, domain="symbolic")
    d = network.output_dim
    # (output, bound, sense) of every bound left open, in search order.  A
    # bound is proved only when the screen's own bound lies inside it,
    # with no tolerance.
    searches = []
    for i in range(d):
        hi = float(bounds.upper[i])
        lo = float(bounds.lower[i])
        if np.isfinite(hi) and not screen.upper[i] <= hi:
            searches.append((i, hi, "max"))
        if np.isfinite(lo) and not screen.lower[i] >= lo:
            searches.append((i, lo, "min"))
    if not searches:
        return ContainmentResult(holds=True, method="exact")
    objectives = []
    for i, bound, sense in searches:
        c = np.zeros(d)
        c[i] = 1.0
        # A min search maximises the negated objective, as minimize does.
        objectives.append((c, bound) if sense == "max" else (-c, -bound))
    solver = BaBSolver.from_config(searched, box, config)
    results = solver.maximize_thresholds(objectives)
    lp_total = sum(res.lp_solves for res in results)
    node_total = sum(res.nodes for res in results)
    # Status discipline (see BaBResult.optimum): only REFUTED, NODE_LIMIT
    # and the witness are consumed here -- never the off-optimal
    # "optimum".  Only the last search can have ended either way.
    res = results[-1]
    i, bound, sense = searches[len(results) - 1]
    if res.status == BAB_REFUTED:
        # The real network's value at the witness; a bound searched
        # behind the activation keeps the target's value.
        value = float(network.forward(res.witness)[i])
        violation, side = (value - bound, "exceeds upper") \
            if sense == "max" else (bound - value, "below lower")
        return ContainmentResult(
            holds=False, method="exact", counterexample=res.witness,
            violation=violation, lp_solves=lp_total, nodes=node_total,
            detail=f"output {i} {side} bound",
        )
    if res.status == BAB_NODE_LIMIT:
        return ContainmentResult(
            holds=None, method="exact", lp_solves=lp_total,
            nodes=node_total, detail=f"node limit on output {i} ({sense})",
        )
    return ContainmentResult(holds=True, method="exact",
                             lp_solves=lp_total, nodes=node_total)


def _check_containment(network: Network, input_box: Box, target: Box,
                       method: str = DEFAULT_METHOD,
                       config: Optional[VerifyConfig] = None) -> ContainmentResult:
    """Internal containment decision: the engine path.

    ``config.workers > 1`` solves the exact branch-and-bound legs' node
    LPs concurrently (:mod:`repro.exact.parallel_bab`) -- same verdicts.
    """
    config = config or VerifyConfig()
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {METHODS}")
    if target.dim != network.output_dim:
        raise DomainError(
            f"target dim {target.dim} != network output dim {network.output_dim}"
        )
    start = time.perf_counter()
    if method == "symbolic":
        result = _check_symbolic(
            output_box(network, input_box, domain="symbolic"), target)
    elif method == "split":
        result = _check_split(network, input_box, target, config.max_boxes)
    else:
        result = _check_exact(network, input_box, target, config)
    result.elapsed = time.perf_counter() - start
    return result


def _output_range_exact(network: Network, input_box: Box,
                        config: Optional[VerifyConfig] = None):
    """Internal exact output range: ``(box, lp_solves, nodes)``.

    Runs one branch-and-bound maximisation and minimisation per output
    neuron, sharing the encoding.  Raises :class:`DomainError` if any solve
    hits the node limit (callers wanting partial answers use ``BaBSolver``).
    """
    solver = BaBSolver.from_config(network, input_box,
                                   config or VerifyConfig())
    d = network.output_dim
    lows: List[float] = []
    highs: List[float] = []
    lp_solves = 0
    nodes = 0
    for i in range(d):
        c = np.zeros(d)
        c[i] = 1.0
        hi = solver.maximize(c)
        lo = solver.minimize(c)
        lp_solves += hi.lp_solves + lo.lp_solves
        nodes += hi.nodes + lo.nodes
        if hi.status == BAB_NODE_LIMIT or lo.status == BAB_NODE_LIMIT:
            raise DomainError(
                f"branch-and-bound node limit reached on output {i}; "
                "raise node_limit or shrink the input box"
            )
        # ``optimum`` (not ``upper_bound``) so an unexpected off-optimal
        # status raises instead of silently storing a non-tight range.
        highs.append(hi.optimum)
        lows.append(lo.optimum)
    return Box(np.asarray(lows), np.asarray(highs)), lp_solves, nodes
