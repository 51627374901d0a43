"""Proof artifacts: what the old verification run leaves behind for reuse.

Section IV of the paper assumes the original proof of ``φ^f_{Din,Dout}`` is
stored in one or more of three forms, each with its defining properties:

* :class:`StateAbstractions` ``S_1 … S_n`` -- per-block boxes with
  (i) ``∀x ∈ Din : g_1(x) ∈ S_1``,
  (ii) ``∀i, ∀x_i ∈ S_i : g_{i+1}(x_i) ∈ S_{i+1}``, and
  (iii) ``S_n ⊆ Dout``;
* :class:`LipschitzCertificate` -- an ``ℓ`` with
  ``|f(x1) − f(x2)| ≤ ℓ|x1 − x2|`` on all of ``X`` (Equation 1);
* a :class:`~repro.netabs.abstraction.NetworkAbstraction` ``f̂`` with
  ``f --Din--> f̂`` whose own verification established
  ``{f̂(x) : x ∈ Din} ⊆ Dout``.

:class:`ProofArtifacts` bundles whichever are available together with the
original problem and the time the original verification took (the
denominator of every Table I ratio).  Artifacts can be persisted to a
single ``.npz`` and reloaded in a later engineering iteration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.api.config import DEFAULT_DOMAIN
from repro.errors import ArtifactError
from repro.domains.box import Box
from repro.nn.network import Network
from repro.nn.serialize import network_from_bytes, network_to_bytes
from repro.core.problem import VerificationProblem

__all__ = ["StateAbstractions", "LipschitzCertificate", "ProofArtifacts",
           "save_artifacts", "load_artifacts"]


@dataclass
class StateAbstractions:
    """The layered state abstraction ``S_1 … S_n`` (boxes, per paper Sec. V)."""

    boxes: List[Box]
    domain: str = DEFAULT_DOMAIN

    def __post_init__(self):
        if not self.boxes:
            raise ArtifactError("state abstractions need at least one layer")

    @property
    def num_layers(self) -> int:
        return len(self.boxes)

    def layer(self, i: int) -> Box:
        """``S_{i+1}`` (zero-based index ``i``)."""
        return self.boxes[i]

    @property
    def output_abstraction(self) -> Box:
        """``S_n``."""
        return self.boxes[-1]

    def matches(self, network: Network) -> bool:
        """Do the box dimensions line up with the network's blocks?"""
        dims = network.block_dims()[1:]
        return (len(self.boxes) == len(dims)
                and all(b.dim == d for b, d in zip(self.boxes, dims)))


@dataclass
class LipschitzCertificate:
    """A certified global Lipschitz constant (Equation 1)."""

    ell: float
    ord: float = 2
    method: str = "operator-norm-product"

    def __post_init__(self):
        if not np.isfinite(self.ell) or self.ell < 0:
            raise ArtifactError(f"invalid Lipschitz constant {self.ell}")

    def output_change_bound(self, kappa: float) -> float:
        """``ℓκ``: worst-case output movement for input movement ``κ``."""
        if kappa < 0:
            raise ArtifactError(f"kappa must be non-negative, got {kappa}")
        return self.ell * kappa


@dataclass
class ProofArtifacts:
    """Everything reusable from the previous verification run."""

    problem: VerificationProblem
    states: Optional[StateAbstractions] = None
    lipschitz: Optional[LipschitzCertificate] = None
    network_abstraction: Optional["NetworkAbstraction"] = None  # noqa: F821
    #: Exact certified output range over Din (tighter than ``S_n``); a valid
    #: output abstraction for Proposition 3 but *not* part of the layered
    #: inductive chain.
    output_range: Optional[Box] = None
    #: Did the stored proof actually establish ``S_n ⊆ Dout``?  Propositions
    #: 1/2 rely on it; the baseline verifier sets it when the layered proof
    #: closed.
    states_prove_safety: bool = False
    #: Wall-clock seconds of the original from-scratch verification.
    original_time: float = float("nan")
    notes: dict = field(default_factory=dict)

    def require_states(self) -> StateAbstractions:
        if self.states is None:
            raise ArtifactError("state-abstraction artifact not available")
        if not self.states.matches(self.problem.network):
            raise ArtifactError("state abstractions do not match the network")
        return self.states

    def require_lipschitz(self) -> LipschitzCertificate:
        if self.lipschitz is None:
            raise ArtifactError("Lipschitz artifact not available")
        return self.lipschitz

    def tightest_output_abstraction(self) -> Box:
        """Smallest stored box guaranteed to contain ``f(Din)``."""
        if self.output_range is not None and self.states is not None:
            meet = self.output_range.intersection(self.states.output_abstraction)
            if meet is not None:
                return meet
        if self.output_range is not None:
            return self.output_range
        return self.require_states().output_abstraction

    def require_network_abstraction(self):
        if self.network_abstraction is None:
            raise ArtifactError("network-abstraction artifact not available")
        return self.network_abstraction


# ----------------------------------------------------------------- persistence
def save_artifacts(artifacts: ProofArtifacts, path: Union[str, Path]) -> None:
    """Persist artifacts to one ``.npz`` file.

    The network abstraction is stored as its *build recipe* (groups, margin)
    plus the original network; it is rebuilt deterministically on load.
    """
    meta = {
        "states_prove_safety": artifacts.states_prove_safety,
        "original_time": artifacts.original_time,
        "notes": artifacts.notes,
        "has_states": artifacts.states is not None,
        "has_lipschitz": artifacts.lipschitz is not None,
        "has_netabs": artifacts.network_abstraction is not None,
        "has_output_range": artifacts.output_range is not None,
    }
    payload = {
        "network": np.frombuffer(network_to_bytes(artifacts.problem.network),
                                 dtype=np.uint8),
        "din_lower": artifacts.problem.din.lower,
        "din_upper": artifacts.problem.din.upper,
        "dout_lower": artifacts.problem.dout.lower,
        "dout_upper": artifacts.problem.dout.upper,
    }
    if artifacts.states is not None:
        meta["states_domain"] = artifacts.states.domain
        meta["states_layers"] = artifacts.states.num_layers
        for i, box in enumerate(artifacts.states.boxes):
            payload[f"state{i}_lower"] = box.lower
            payload[f"state{i}_upper"] = box.upper
    if artifacts.lipschitz is not None:
        meta["lipschitz"] = {
            "ell": artifacts.lipschitz.ell,
            "ord": float(artifacts.lipschitz.ord),
            "method": artifacts.lipschitz.method,
        }
    if artifacts.network_abstraction is not None:
        absn = artifacts.network_abstraction
        meta["netabs"] = {
            "num_groups": int(absn.num_groups),
            "margin": float(absn.margin),
        }
    if artifacts.output_range is not None:
        payload["range_lower"] = artifacts.output_range.lower
        payload["range_upper"] = artifacts.output_range.upper
    payload["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                        dtype=np.uint8)
    np.savez(str(path), **payload)


#: Metadata readers for :func:`load_artifacts`.  Each turns a missing or
#: ill-typed field into a permanent :class:`ArtifactError` -- never the
#: ``OverflowError`` of ``int(1e400)``, the ``ValueError`` of
#: ``float("x")`` or a silent truncation of ``2.5`` to ``2``.
_REQUIRED = object()


def _meta_field(meta, key: str, default=_REQUIRED):
    if not isinstance(meta, dict):
        raise ArtifactError(
            f"artifact metadata must be an object, got {type(meta).__name__}")
    if key in meta:
        return meta[key]
    if default is _REQUIRED:
        raise ArtifactError(f"artifact metadata lacks {key!r}")
    return default


def _meta_int(meta, key: str) -> int:
    value = _meta_field(meta, key)
    # bool is an int subclass; a JSON true is not a count.
    if type(value) is not int or value < 0:
        raise ArtifactError(
            f"artifact metadata {key!r} must be a non-negative integer, "
            f"got {value!r}")
    return value


def _meta_float(meta, key: str) -> float:
    value = _meta_field(meta, key)
    if type(value) not in (int, float):
        raise ArtifactError(
            f"artifact metadata {key!r} must be a number, got {value!r}")
    return float(value)


def _meta_flag(meta, key: str, default=_REQUIRED) -> bool:
    value = _meta_field(meta, key, default)
    if type(value) is not bool:
        raise ArtifactError(
            f"artifact metadata {key!r} must be true or false, got {value!r}")
    return value


def _meta_str(meta, key: str) -> str:
    value = _meta_field(meta, key)
    if not isinstance(value, str):
        raise ArtifactError(
            f"artifact metadata {key!r} must be a string, got {value!r}")
    return value


def _array(data, key: str) -> np.ndarray:
    try:
        return data[key]
    except KeyError:
        raise ArtifactError(f"artifact file lacks array {key!r}") from None


def load_artifacts(path: Union[str, Path]) -> ProofArtifacts:
    """Inverse of :func:`save_artifacts`.

    Raises :class:`ArtifactError` on a missing or ill-typed metadata field
    or a missing array.
    """
    with np.load(str(path)) as data:
        try:
            meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
        except Exception as exc:
            raise ArtifactError(f"corrupt artifact file: {exc}") from exc
        network = network_from_bytes(bytes(_array(data, "network").tobytes()))
        problem = VerificationProblem(
            network=network,
            din=Box(_array(data, "din_lower"), _array(data, "din_upper")),
            dout=Box(_array(data, "dout_lower"), _array(data, "dout_upper")),
        )
        states = None
        if _meta_flag(meta, "has_states"):
            boxes = [
                Box(_array(data, f"state{i}_lower"),
                    _array(data, f"state{i}_upper"))
                for i in range(_meta_int(meta, "states_layers"))
            ]
            states = StateAbstractions(boxes=boxes,
                                       domain=_meta_str(meta, "states_domain"))
        lipschitz = None
        if _meta_flag(meta, "has_lipschitz"):
            lip = _meta_field(meta, "lipschitz")
            lipschitz = LipschitzCertificate(
                ell=_meta_float(lip, "ell"), ord=_meta_float(lip, "ord"),
                method=_meta_str(lip, "method"))
        netabs = None
        if _meta_flag(meta, "has_netabs"):
            from repro.netabs.abstraction import build_abstraction

            recipe = _meta_field(meta, "netabs")
            netabs = build_abstraction(
                network, problem.din,
                num_groups=_meta_int(recipe, "num_groups"),
                margin=_meta_float(recipe, "margin"),
            )
        output_range = None
        if _meta_flag(meta, "has_output_range", False):
            output_range = Box(_array(data, "range_lower"),
                               _array(data, "range_upper"))
        notes = _meta_field(meta, "notes", {})
        if not isinstance(notes, dict):
            raise ArtifactError(
                f"artifact metadata 'notes' must be an object, got {notes!r}")
    return ProofArtifacts(
        problem=problem,
        states=states,
        lipschitz=lipschitz,
        network_abstraction=netabs,
        output_range=output_range,
        states_prove_safety=_meta_flag(meta, "states_prove_safety"),
        original_time=_meta_float(meta, "original_time"),
        notes=dict(notes),
    )
