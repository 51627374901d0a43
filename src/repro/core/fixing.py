"""Incremental abstraction fixing (Section IV.C).

When Proposition 4's layer checks fail at exactly one state abstraction
``S_{i+1}``, full re-verification is still avoidable:

1. replace ``S_{i+1}`` by a freshly computed ``S'_{i+1}`` that does cover
   ``g'_{i+1}(S_i)``;
2. propagate ``S'`` forward and, at every subsequent boundary ``k``, check
   (exactly) whether ``g'_{k+1}(S'_k) ⊆ S_{k+1}`` -- *re-entering* the old
   proof as soon as the enlarged approximation is swallowed again;
3. if no re-entry happens before the last layer, verify the remaining
   sub-network traditionally from ``S'`` (and when the very first
   abstraction broke, nothing is reusable: re-verify the whole network).

Returns enough bookkeeping (replaced layer, re-entry layer, subproblems)
for the decomposition ablation and the report tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.api.config import (
    DEFAULT_DOMAIN,
    DEFAULT_METHOD,
    VerifyConfig,
)
from repro.domains.box import Box
from repro.domains.propagate import get_propagator
from repro.exact.verify import _check_containment
from repro.nn.network import Network
from repro.core.artifacts import ProofArtifacts
from repro.core.propositions import PropositionResult, SubproblemReport

__all__ = ["FIXING_STRATEGIES", "FixingResult", "incremental_fix"]

NOTHING_TO_FIX = "nothing to fix"
#: ``{n}`` is the count of broken layers.
LAYERS_BROKEN = "{n} layers broken -> full re-verification"
FIRST_BROKEN = "first abstraction broken -> full re-verification"
OUTPUT_REPAIR = "output layer repair"
REPAIR_REENTRY = "single-layer repair with re-entry"
REPAIR_TAIL = "single-layer repair, no re-entry (tail verified)"
#: Every strategy a :class:`FixingResult` can name; the wire decodes no
#: other.
FIXING_STRATEGIES = (NOTHING_TO_FIX, LAYERS_BROKEN, FIRST_BROKEN,
                     OUTPUT_REPAIR, REPAIR_REENTRY, REPAIR_TAIL)


@dataclass
class FixingResult:
    """Outcome of the fixing procedure."""

    holds: Optional[bool]
    strategy: str
    replaced_layer: Optional[int] = None
    reentry_layer: Optional[int] = None
    subproblems: List[SubproblemReport] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def max_subproblem_time(self) -> float:
        if not self.subproblems:
            return self.elapsed
        return max(s.elapsed for s in self.subproblems)


def _full_reverification(new_network: Network, din: Box, dout: Box,
                         method: str, config: VerifyConfig,
                         subproblems: List[SubproblemReport],
                         started: float, strategy: str) -> FixingResult:
    res = _check_containment(new_network, din, dout, method=method,
                             config=config)
    subproblems.append(SubproblemReport.from_containment("full re-verification", res))
    return FixingResult(
        holds=res.holds,
        strategy=strategy,
        subproblems=subproblems,
        elapsed=time.perf_counter() - started,
    )


def incremental_fix(artifacts: ProofArtifacts, new_network: Network,
                    prop4_result: PropositionResult,
                    enlarged_din: Optional[Box] = None,
                    domain: str = DEFAULT_DOMAIN,
                    method: str = DEFAULT_METHOD,
                    config: Optional[VerifyConfig] = None) -> FixingResult:
    """Attempt the Section IV.C repair after a failed Proposition 4.

    ``prop4_result`` must be the (non-early-stopped) result of
    :func:`~repro.core.propositions._check_prop4` on the same inputs, whose
    per-layer failure pattern decides which repair applies.  ``config``
    (default :class:`VerifyConfig`) sets the exact checks' budgets and
    workers.
    """
    config = config or VerifyConfig()
    started = time.perf_counter()
    states = artifacts.require_states()
    din = enlarged_din if enlarged_din is not None else artifacts.problem.din
    dout = artifacts.problem.dout
    n = new_network.num_blocks
    subproblems: List[SubproblemReport] = []

    failing = [idx for idx, sub in enumerate(prop4_result.subproblems)
               if sub.holds is not True]
    if not failing:
        return FixingResult(holds=True, strategy=NOTHING_TO_FIX,
                            elapsed=time.perf_counter() - started)
    if len(failing) > 1:
        # Several broken abstractions: the paper's single-layer repair does not
        # apply; fall back to the traditional method on the whole network.
        return _full_reverification(
            new_network, din, dout, method, config, subproblems, started,
            strategy=LAYERS_BROKEN.format(n=len(failing)))
    i = failing[0]
    if i == 0:
        # The very first abstraction broke: nothing upstream to reuse.
        return _full_reverification(
            new_network, din, dout, method, config, subproblems, started,
            strategy=FIRST_BROKEN)
    if i == n - 1:
        # The final check S_{n-1} -> Dout broke; there is no later proof to
        # re-enter, so verify the remaining tail exactly (blocks i..n over
        # S_{n-1} failed already => re-verify from the last *intact* box).
        source = states.layer(i - 1)
        res = _check_containment(new_network.subnetwork(i, n), source, dout,
                                 method=method, config=config)
        subproblems.append(SubproblemReport.from_containment(
            f"blocks[{i}:{n}] -> Dout (tail re-verification)", res))
        return FixingResult(
            holds=res.holds,
            strategy=OUTPUT_REPAIR,
            replaced_layer=i,
            subproblems=subproblems,
            elapsed=time.perf_counter() - started,
        )

    # --- single broken hidden abstraction S_{i+1} -------------------------
    propagator = get_propagator(domain)
    t0 = time.perf_counter()
    replacement = propagator.propagate(
        new_network.subnetwork(i, i + 1), states.layer(i - 1))[-1]
    # S'_{i+1} must cover the old S_{i+1} region too: the old box satisfied
    # its own forward conditions only under the old network; taking the join
    # keeps the repair monotone and sound.
    current: Box = replacement.union(states.layer(i))
    subproblems.append(SubproblemReport(
        name=f"rebuild S'_{i + 1}",
        holds=True,
        elapsed=time.perf_counter() - t0,
        detail=f"replacement box via {domain}",
    ))

    for k in range(i + 1, n - 1):
        layer = new_network.subnetwork(k, k + 1)
        res = _check_containment(layer, current, states.layer(k),
                                 method=method, config=config)
        subproblems.append(SubproblemReport.from_containment(
            f"S'_{k} -> S_{k + 1} (re-entry)", res))
        if res.holds:
            return FixingResult(
                holds=True,
                strategy=REPAIR_REENTRY,
                replaced_layer=i,
                reentry_layer=k + 1,
                subproblems=subproblems,
                elapsed=time.perf_counter() - started,
            )
        t0 = time.perf_counter()
        current = propagator.propagate(layer, current)[-1]
        subproblems[-1].elapsed += time.perf_counter() - t0

    # No re-entry: verify the remaining tail from the propagated S'.
    res = _check_containment(new_network.subnetwork(n - 1, n), current, dout,
                             method=method, config=config)
    subproblems.append(SubproblemReport.from_containment(
        f"S'_{n - 1} -> Dout (tail)", res))
    return FixingResult(
        holds=res.holds,
        strategy=REPAIR_TAIL,
        replaced_layer=i,
        reentry_layer=None,
        subproblems=subproblems,
        elapsed=time.perf_counter() - started,
    )
