"""Abstract domains: boxes, ReluVal-style symbolic intervals, zonotopes and
DeepPoly -- one scalar propagator per domain, plus the batched interval
screens that bound N branch-and-bound regions or containment subproblems in
one stacked pass."""

from repro.domains.box import Box, BoxPropagator, affine_bounds, box_kappa
from repro.domains.batch import (
    phase_clamped_node_bounds,
    screen_containments,
)
from repro.domains.symbolic import SymbolicInterval, SymbolicPropagator
from repro.domains.zonotope import Zonotope, ZonotopePropagator
from repro.domains.backward import BackwardRefinement, refine_input_box
from repro.domains.deeppoly import DeepPolyPropagator
from repro.domains.propagate import (
    inductive_states,
    PROPAGATORS,
    get_propagator,
    output_box,
    propagate_network,
)

__all__ = [
    "BackwardRefinement",
    "Box",
    "DeepPolyPropagator",
    "inductive_states",
    "refine_input_box",
    "BoxPropagator",
    "PROPAGATORS",
    "SymbolicInterval",
    "SymbolicPropagator",
    "Zonotope",
    "ZonotopePropagator",
    "affine_bounds",
    "box_kappa",
    "get_propagator",
    "output_box",
    "phase_clamped_node_bounds",
    "propagate_network",
    "screen_containments",
]
