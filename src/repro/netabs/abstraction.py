"""The :class:`NetworkAbstraction` proof artifact (Proposition 6).

Bundles an **upper** and a **lower** abstract network built from one
categorised split + merge plan, together with everything needed to later
check -- purely syntactically -- whether a *fine-tuned* network ``f'`` is
still abstracted by the same ``f̂`` (the paper's ``f' --Din--> f̂`` premise):

* the split structure (origin maps + kept-edge masks),
* the merge plan (group assignments, rules, margin),
* the input domain ``Din`` the relation is stated over.

``abstracts(f')`` verifies three families of inequalities derived from the
saturation soundness argument (see :mod:`repro.netabs.merge`):

1. *edge-sign consistency* of the re-split concrete weights
   (``sign(w) * cat(source) * cat(target) >= 0``, hidden boundaries only);
2. *reduced-weight dominance*: every stored merged weight must dominate the
   group-summed concrete weights in its rule direction;
3. *bias dominance* likewise.

All three hold by construction for the original ``f`` (with slack
``margin``), so small fine-tuning steps keep them satisfied while large
ones fail loudly -- exactly the behaviour Proposition 6 needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ArtifactError
from repro.domains.box import Box
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Network
from repro.netabs.classify import SplitStructure, apply_split, categorize_split
from repro.netabs.merge import (
    LOWER,
    UPPER,
    LayerGrouping,
    MergePlan,
    MergedWeights,
    group_reduce,
    make_merge_plan,
    merge_weights,
)

__all__ = ["AbstractionCheck", "NetworkAbstraction", "build_abstraction"]


@dataclass
class AbstractionCheck:
    """Outcome of an ``abstracts`` check with a human-readable reason."""

    holds: bool
    reason: str = ""


def _merged_to_network(merged: MergedWeights, input_dim: int) -> Network:
    layers = []
    n = len(merged.weights)
    for k, (w, b) in enumerate(zip(merged.weights, merged.biases)):
        layers.append(Dense(w.shape[1], w.shape[0], weight=w, bias=b))
        if k < n - 1:
            layers.append(ReLU())
    return Network(layers, input_dim=input_dim)


@dataclass
class NetworkAbstraction:
    """Upper/lower abstract networks plus the structure to re-check them."""

    din: Box
    structure: SplitStructure
    upper_plan: MergePlan
    lower_plan: MergePlan
    upper_merged: MergedWeights
    lower_merged: MergedWeights
    upper: Network
    lower: Network
    input_nonneg: bool
    num_groups: int = 1
    margin: float = 0.0

    # ------------------------------------------------------------ evaluation
    def output_bounds(self, box: Box, method: str = "symbolic") -> Box:
        """Sound bounds on the concrete network's output over ``box``,
        obtained by analysing the (smaller) abstract networks.

        ``method`` is any :func:`repro.exact.verify._check_containment`
        propagation domain name or ``"exact"``.
        """
        from repro.domains.propagate import output_box
        from repro.exact.verify import _output_range_exact

        if method == "exact":
            hi = _output_range_exact(self.upper, box)[0].upper
            lo = _output_range_exact(self.lower, box)[0].lower
        else:
            hi = output_box(self.upper, box, domain=method).upper
            lo = output_box(self.lower, box, domain=method).lower
        return Box(np.minimum(lo, hi), np.maximum(lo, hi))

    def abstraction_sizes(self) -> dict:
        """Neuron counts: concrete-split vs merged, for reporting."""
        split_neurons = sum(b.row_cat.size for b in self.structure.blocks)
        upper_neurons = sum(w.shape[0] for w in self.upper_merged.weights)
        return {"split": split_neurons, "merged": upper_neurons}

    # --------------------------------------------------------------- checking
    def abstracts(self, network: Network, din: Optional[Box] = None,
                  tol: float = 1e-9) -> AbstractionCheck:
        """Does ``f̂`` abstract ``network`` on ``din`` (default: stored Din)?"""
        din = din or self.din
        if not self.din.contains_box(din):
            return AbstractionCheck(
                False, "queried domain is not inside the abstraction's Din")
        if not self.input_nonneg and not np.all(din.lower >= -tol):
            # Without a non-negative input domain the first boundary's
            # dominance argument is invalid; the build then kept block 0
            # exact, and re-checking requires exact equality there.
            pass
        try:
            split_w, split_b = apply_split(network, self.structure)
        except ArtifactError as exc:
            return AbstractionCheck(False, str(exc))

        for plan, merged, name in (
            (self.upper_plan, self.upper_merged, "upper"),
            (self.lower_plan, self.lower_merged, "lower"),
        ):
            check = self._check_direction(split_w, split_b, plan, merged, name, tol)
            if not check.holds:
                return check
        return AbstractionCheck(True, "all domination conditions hold")

    def _check_direction(self, split_w, split_b, plan: MergePlan,
                         merged: MergedWeights, name: str,
                         tol: float) -> AbstractionCheck:
        n = len(self.structure.blocks)
        for k in range(n):
            target = plan.groupings[k]
            spec = self.structure.blocks[k]
            w = split_w[k]
            # (1) edge-sign consistency (hidden boundaries only).
            if k > 0:
                source_cat = self.structure.blocks[k - 1].row_cat
                signs = w * spec.row_cat[:, None] * source_cat[None, :]
                if np.min(signs, initial=0.0) < -tol:
                    return AbstractionCheck(
                        False,
                        f"{name}: edge-sign consistency violated at block {k}",
                    )
                source = plan.groupings[k - 1]
            else:
                d_in = spec.col_orig.size
                source = LayerGrouping(assignment=np.arange(d_in),
                                       group_cat=np.zeros(d_in, dtype=int))
                if not self.input_nonneg:
                    # Exact-equality regime on the first block.
                    exact_w = np.zeros_like(merged.weights[0])
                    exact_b = np.zeros_like(merged.biases[0])
                    for gid in range(target.num_groups):
                        members = np.flatnonzero(target.assignment == gid)
                        if members.size != 1:
                            return AbstractionCheck(
                                False, f"{name}: merged first block on a "
                                "possibly-negative input domain")
                        exact_w[gid] = w[members[0]]
                        exact_b[gid] = split_b[0][members[0]]
                    if (np.max(np.abs(exact_w - merged.weights[0]), initial=0.0) > tol
                            or np.max(np.abs(exact_b - merged.biases[0]),
                                      initial=0.0) > tol):
                        return AbstractionCheck(
                            False,
                            f"{name}: first block changed but the input domain "
                            "is not non-negative (dominance unsound)",
                        )
                    continue
            # (2)+(3) reduced-weight and bias dominance.
            reduced = group_reduce(w, source)
            rule = merged.rule_sign[k]
            for gid in range(target.num_groups):
                members = np.flatnonzero(target.assignment == gid)
                gap_w = (merged.weights[k][gid][None, :] - reduced[members]) * rule[gid]
                gap_b = (merged.biases[k][gid] - split_b[k][members]) * rule[gid]
                if np.min(gap_w, initial=0.0) < -tol or np.min(gap_b, initial=0.0) < -tol:
                    return AbstractionCheck(
                        False,
                        f"{name}: dominance violated at block {k}, group {gid} "
                        f"(worst weight gap {float(np.min(gap_w)):.3g})",
                    )
        return AbstractionCheck(True)


def build_abstraction(network: Network, din: Box,
                      num_groups: int = 2,
                      margin: float = 0.0) -> NetworkAbstraction:
    """Construct the :class:`NetworkAbstraction` of ``network`` over ``din``.

    ``num_groups`` bounds the merged width per category and layer (higher =
    more precise, larger).  ``margin`` is the fine-tuning slack baked into
    the stored weights.  The first hidden layer is merged (and given margin)
    only when ``din`` is non-negative; otherwise it is kept exact so the
    abstraction stays sound on signed inputs.
    """
    structure = categorize_split(network)
    split_w, split_b = apply_split(network, structure)
    input_nonneg = bool(np.all(din.lower >= 0.0))

    halves = {}
    plans = {}
    for direction in (UPPER, LOWER):
        plan = make_merge_plan(structure, direction, num_groups, margin,
                               split_w, merge_first_layer=input_nonneg)
        merged = merge_weights(structure, plan, split_w, split_b)
        if not input_nonneg:
            # Remove the (unsound-on-signed-inputs) margin from block 0:
            # singleton groups, exact copies of the split weights.
            g0 = plan.groupings[0]
            for gid in range(g0.num_groups):
                member = int(np.flatnonzero(g0.assignment == gid)[0])
                merged.weights[0][gid] = split_w[0][member]
                merged.biases[0][gid] = split_b[0][member]
        halves[direction] = merged
        plans[direction] = plan

    abstraction = NetworkAbstraction(
        din=din,
        structure=structure,
        upper_plan=plans[UPPER],
        lower_plan=plans[LOWER],
        upper_merged=halves[UPPER],
        lower_merged=halves[LOWER],
        upper=_merged_to_network(halves[UPPER], network.input_dim),
        lower=_merged_to_network(halves[LOWER], network.input_dim),
        input_nonneg=input_nonneg,
        num_groups=int(num_groups),
        margin=float(margin),
    )
    sanity = abstraction.abstracts(network)
    if not sanity.holds:
        raise ArtifactError(
            f"freshly built abstraction fails its own check: {sanity.reason}"
        )
    return abstraction
