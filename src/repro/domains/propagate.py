"""Uniform entry point for running any abstract domain over a network.

Every propagator maps an input :class:`~repro.domains.box.Box` to a list of
per-block boxes ``[S_1, ..., S_n]`` -- the state-abstraction format the paper
stores as a proof artifact (each ``S_i`` bounds every neuron of layer ``i``
by lower/upper valuations).  The richer internal states (symbolic equations,
zonotope generators) stay inside their propagators; callers that need them
use the propagator classes directly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import DomainError
from repro.domains.box import Box, BoxPropagator
from repro.domains.deeppoly import DeepPolyPropagator
from repro.domains.symbolic import SymbolicPropagator
from repro.domains.zonotope import ZonotopePropagator
from repro.nn.network import Network

__all__ = [
    "PROPAGATORS",
    "get_propagator",
    "propagate_network",
    "output_box",
]

PROPAGATORS: Dict[str, type] = {
    BoxPropagator.name: BoxPropagator,
    DeepPolyPropagator.name: DeepPolyPropagator,
    SymbolicPropagator.name: SymbolicPropagator,
    ZonotopePropagator.name: ZonotopePropagator,
}


def get_propagator(domain: str):
    """Instantiate a propagator by name (``"box"``, ``"symbolic"``,
    ``"zonotope"``, ``"deeppoly"``)."""
    try:
        cls = PROPAGATORS[domain]
    except KeyError:
        known = ", ".join(sorted(PROPAGATORS))
        raise DomainError(f"unknown domain {domain!r}; known: {known}") from None
    return cls()


def propagate_network(network: Network, input_box: Box,
                      domain: str = "symbolic") -> List[Box]:
    """Per-block state abstractions ``[S_1, ..., S_n]`` of ``network`` over
    ``input_box``, computed with the chosen abstract domain."""
    return get_propagator(domain).propagate(network, input_box)


def output_box(network: Network, input_box: Box,
               domain: str = "symbolic") -> Box:
    """Sound over-approximation of ``{f(x) : x in input_box}`` (``S_n``)."""
    return propagate_network(network, input_box, domain)[-1]


def inductive_states(network: Network, input_box: Box,
                     buffer_rel: float = 0.0,
                     buffer_abs: float = 0.0) -> List[Box]:
    """State abstractions satisfying the paper's *inductive* definition:
    ``∀x_i ∈ S_i : g_{i+1}(x_i) ∈ S_{i+1}`` (plus ``g_1(Din) ⊆ S_1``).

    Interval arithmetic applied to a box is the exact per-neuron image of
    one block, so propagating boxes layer by layer yields the tightest
    inductive box chain.  (Tighter domains like symbolic intervals give
    smaller boxes, but those are *not* inductive -- they exploit input
    correlations a box cannot express, which is exactly why Propositions
    4/5 would reject them even for the unchanged network.)

    ``buffer_rel``/``buffer_abs`` inflate every ``S_i`` during propagation
    (relative to its width / absolutely), keeping the chain inductive *with
    slack*: the headroom that lets a slightly fine-tuned ``g'`` still map
    ``S_i`` into ``S_{i+1}`` -- the paper's "additional buffers".
    """
    if buffer_rel < 0 or buffer_abs < 0:
        raise DomainError("state buffers must be non-negative")
    propagator = BoxPropagator()
    states: List[Box] = []
    current = input_box
    for block in network.blocks():
        current = propagator.propagate_block(block, current)
        if buffer_rel > 0 or buffer_abs > 0:
            current = current.inflate(buffer_rel * current.widths + buffer_abs)
        states.append(current)
    return states
