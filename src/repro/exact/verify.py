"""Exact containment and output-range decisions behind the engine.

Two primitives cover everything the continuous-verification core needs:

* :func:`_output_range_exact` -- the exact per-output min/max box of a
  (sub)network over a box of inputs (branch and bound per output neuron).
* :func:`_check_containment` -- decide ``∀x ∈ box : f(x) ∈ target`` where
  ``target`` is a box; this *is* the paper's local reuse condition with
  ``target = S_{i+1}`` (Propositions 1, 2, 4, 5) or ``target = Dout``.

``_check_containment`` supports three methods mirroring Fig. 1's insight:
``"symbolic"`` (cheap one-shot abstract transformer, may lose), ``"split"``
(abstraction with refinement), and ``"exact"`` (complete branch and bound);
``"auto"`` cascades cheap-to-exact, stopping at the first conclusive answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import DomainError
from repro.api.config import DEFAULT_METHOD, VerifyConfig
from repro.domains.box import Box
from repro.domains.propagate import output_box
from repro.exact.bab import (
    BAB_NODE_LIMIT,
    BAB_REFUTED,
    BaBSolver,
)
from repro.exact.splitting import check_containment_split
from repro.nn.network import Network

__all__ = ["ContainmentResult"]

METHODS = ("symbolic", "split", "exact", "auto")


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

    @property
    def conclusive(self) -> bool:
        return self.holds is not None


def _check_symbolic(network: Network, box: Box, target: Box) -> ContainmentResult:
    out = output_box(network, box, domain="symbolic")
    if target.contains_box(out):
        return ContainmentResult(holds=True, method="symbolic")
    return ContainmentResult(
        holds=None,
        method="symbolic",
        violation=target.containment_violation(out),
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


def _check_exact(network: Network, box: Box, target: Box,
                 config: VerifyConfig) -> ContainmentResult:
    solver = BaBSolver.from_config(network, box, config)
    lp_total = 0
    node_total = 0
    d = network.output_dim
    for i in range(d):
        c = np.zeros(d)
        c[i] = 1.0
        hi = float(target.upper[i])
        lo = float(target.lower[i])
        if np.isfinite(hi):
            # Status discipline (see BaBResult.optimum): only REFUTED,
            # NODE_LIMIT and the sound ``upper_bound`` are consumed here --
            # never the off-optimal "optimum".
            res = solver.maximize(c, threshold=hi)
            lp_total += res.lp_solves
            node_total += res.nodes
            if res.status == BAB_REFUTED:
                return ContainmentResult(
                    holds=False, method="exact", counterexample=res.witness,
                    violation=res.incumbent - hi, lp_solves=lp_total,
                    nodes=node_total, detail=f"output {i} exceeds upper bound",
                )
            if res.status == BAB_NODE_LIMIT:
                return ContainmentResult(
                    holds=None, method="exact", lp_solves=lp_total,
                    nodes=node_total, detail=f"node limit on output {i} (max)",
                )
        if np.isfinite(lo):
            res = solver.minimize(c, threshold=lo)
            lp_total += res.lp_solves
            node_total += res.nodes
            if res.status == BAB_REFUTED:
                return ContainmentResult(
                    holds=False, method="exact", counterexample=res.witness,
                    violation=lo - res.incumbent, lp_solves=lp_total,
                    nodes=node_total, detail=f"output {i} below lower bound",
                )
            if res.status == BAB_NODE_LIMIT:
                return ContainmentResult(
                    holds=None, method="exact", lp_solves=lp_total,
                    nodes=node_total, detail=f"node limit on output {i} (min)",
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
        result = _check_symbolic(network, input_box, target)
    elif method == "split":
        result = _check_split(network, input_box, target, config.max_boxes)
    elif method == "exact":
        result = _check_exact(network, input_box, target, config)
    else:  # auto: cheap first, exact as the decider
        result = _check_symbolic(network, input_box, target)
        if not result.conclusive:
            result = _check_exact(network, input_box, target, config)
            result.method = "auto(exact)"
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
