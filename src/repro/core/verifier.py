"""Baseline from-scratch verification, producing reusable proof artifacts.

This is the "original problem" side of every Table I ratio: verify
``φ^f_{Din,Dout}`` with no prior knowledge, and persist the proof artifacts
(state abstractions, Lipschitz constant, optional network abstraction) for
the continuous-verification round that follows.

The verification itself mirrors the paper's setup: a ReluVal-style layered
abstraction provides candidate state abstractions; when its output layer
containment closes, the layered proof stands.  The ``rigor`` knob controls
how much additional exact work the baseline performs:

* ``"abstract"``   -- layered abstraction only (fast, may be inconclusive);
* ``"threshold"``  -- abstract first, exact containment check as decider;
* ``"range"``      -- additionally computes the *tight* exact output range
  (the expensive complete analysis whose cost dominates the original
  verification time, as with the exact tools the paper builds on).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ArtifactError
from repro.api.config import VerifyConfig
from repro.domains.box import Box
from repro.domains.propagate import inductive_states, propagate_network
from repro.exact.verify import _check_containment, _output_range_exact
from repro.lipschitz.bounds import global_lipschitz_bound
from repro.core.artifacts import (
    LipschitzCertificate,
    ProofArtifacts,
    StateAbstractions,
)
from repro.core.problem import VerificationProblem

__all__ = ["BaselineOutcome"]

RIGOR_LEVELS = ("abstract", "threshold", "range")


@dataclass
class BaselineOutcome:
    """Result of a from-scratch verification run."""

    holds: Optional[bool]
    artifacts: ProofArtifacts
    elapsed: float
    detail: str = ""
    #: Exact-layer effort of the run (0 when rigor="abstract" closed the
    #: proof without any solver work) -- feeds Verdict provenance.
    lp_solves: int = 0
    nodes: int = 0


def _verify_from_scratch(problem: VerificationProblem,
                         states_domain: str = "inductive",
                         state_buffer: float = 0.02,
                         rigor: str = "range",
                         lipschitz_ord: float = 2,
                         with_network_abstraction: bool = False,
                         netabs_groups: int = 2,
                         netabs_margin: float = 0.0,
                         config: Optional[VerifyConfig] = None) -> BaselineOutcome:
    """Verify ``problem`` from scratch and assemble :class:`ProofArtifacts`
    (internal engine path; the exact legs run under the config's *full*
    node budget -- this is a global proof, not a local reuse check).

    ``states_domain="inductive"`` (default) generates state abstractions
    with the inductive box chain plus a relative ``state_buffer`` -- the
    only form whose single-layer chain conditions hold by construction, as
    the reuse propositions assume.  Other domain names (``"symbolic"``,
    ``"zonotope"``, ``"box"``) store that domain's concretised per-layer
    boxes instead; these are tighter but generally *not* inductive, which
    the domain ablation benchmark quantifies.  It names how the artifacts
    are built and is unrelated to ``config.domain``.
    """
    if rigor not in RIGOR_LEVELS:
        raise ArtifactError(f"rigor must be one of {RIGOR_LEVELS}, got {rigor!r}")
    config = config or VerifyConfig()
    exact_config = config.replace(
        method="exact", node_limit=config.effective_full_node_limit)
    network, din, dout = problem.network, problem.din, problem.dout
    started = time.perf_counter()

    # 1. Layered state abstraction (the ReluVal-style proof attempt).
    if states_domain == "inductive":
        boxes = inductive_states(network, din, buffer_rel=state_buffer)
    else:
        boxes = propagate_network(network, din, domain=states_domain)
    states = StateAbstractions(boxes=boxes, domain=states_domain)
    layered_proof = dout.contains_box(states.output_abstraction)

    holds: Optional[bool] = True if layered_proof else None
    detail = "layered abstraction closed" if layered_proof else ""

    # 2. Exact work according to the rigor level.
    lp_solves = 0
    nodes = 0
    if rigor in ("threshold", "range") and holds is None:
        res = _check_containment(network, din, dout, config=exact_config)
        holds = res.holds
        detail = f"exact containment: {res.detail or res.holds}"
        lp_solves += res.lp_solves
        nodes += res.nodes
    output_range: Optional[Box] = None
    if rigor == "range" and holds is not False:
        # The tight certified output range is stored as a *separate*
        # artifact: it is a valid output abstraction (contains f(Din)) and
        # makes Proposition 3 much stronger, but it must not replace S_n
        # inside the layered proof -- that would break the inductive chain
        # property Propositions 1/2 re-enter.
        output_range, range_lps, range_nodes = _output_range_exact(
            network, din, config=exact_config)
        lp_solves += range_lps
        nodes += range_nodes
        if not dout.contains_box(output_range):
            holds = False
            detail = f"exact range {output_range} escapes Dout"
        else:
            holds = True
            detail = detail or f"exact range {output_range} inside Dout"

    # 3. Companion artifacts.
    lipschitz = LipschitzCertificate(
        ell=global_lipschitz_bound(network, ord=lipschitz_ord),
        ord=lipschitz_ord,
    )
    netabs = None
    notes = {}
    if with_network_abstraction:
        from repro.netabs.abstraction import build_abstraction

        netabs = build_abstraction(network, din, num_groups=netabs_groups,
                                   margin=netabs_margin)
        abs_method = states_domain \
            if states_domain in ("box", "symbolic", "zonotope") else "symbolic"
        abs_bounds = netabs.output_bounds(din, method=abs_method)
        notes["netabs_proves_safety"] = bool(dout.contains_box(abs_bounds))

    elapsed = time.perf_counter() - started
    artifacts = ProofArtifacts(
        problem=problem,
        states=states,
        lipschitz=lipschitz,
        network_abstraction=netabs,
        output_range=output_range,
        states_prove_safety=bool(layered_proof),
        original_time=elapsed,
        notes=notes,
    )
    return BaselineOutcome(holds=holds, artifacts=artifacts, elapsed=elapsed,
                           detail=detail, lp_solves=lp_solves, nodes=nodes)
