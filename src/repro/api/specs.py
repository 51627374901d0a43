"""Declarative Specs: what to verify, as frozen JSON-serializable values.

One Spec names one verification request; the
:class:`~repro.api.engine.VerificationEngine` turns it into a
:class:`~repro.api.verdict.Verdict`.  Specs carry *no* solver knobs --
tolerances, budgets and pool widths live in one
:class:`~repro.api.config.VerifyConfig` -- only the problem statement
itself (networks, boxes, objectives, strategy choices).

Every Spec round-trips through plain JSON::

    spec == spec_from_dict(spec_to_dict(spec))
    spec == spec_from_json(spec_to_json(spec))

Equality is *value* equality over the canonical JSON form (networks
compare by structure and exact float64 weights, not identity), which is
what makes Specs usable as request payloads, cache keys in higher layers,
and golden files in tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields
from typing import ClassVar, Dict, Optional, Tuple, Type

import numpy as np

from repro.errors import SerializationError
from repro.api.config import DOMAINS, METHODS
from repro.domains.box import Box
from repro.nn.network import Network
from repro.core.artifacts import ProofArtifacts
from repro.api.serialize import (
    array_from_jsonable,
    array_to_jsonable,
    artifacts_from_jsonable,
    artifacts_to_jsonable,
    box_from_jsonable,
    box_to_jsonable,
    float_to_jsonable,
    _json_loads,
    network_from_jsonable,
    network_to_jsonable,
    _wire_bool,
    _wire_float,
    _wire_int,
)

__all__ = [
    "Spec",
    "ContainmentSpec",
    "OutputRangeSpec",
    "ThresholdSpec",
    "MaximizeSpec",
    "PropositionSpec",
    "ContinuousLoopSpec",
    "SPEC_TYPES",
    "spec_to_dict",
    "spec_from_dict",
    "spec_to_json",
    "spec_from_json",
]

PROPOSITION_KINDS = (1, 2, 3, 4, 5, 6)


def _canonical(payload: Dict) -> str:
    # sort_keys for one deterministic string per value; allow_nan=False
    # asserts the payloads really are strict RFC-8259 JSON (non-finite
    # floats are string-encoded by repro.api.serialize).
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def _wire_ints(data, name: str) -> Tuple[int, ...]:
    """A JSON list of non-negative integers, as a tuple."""
    if not isinstance(data, list):
        raise SerializationError(
            f"{name} must be a JSON list of integers, got {data!r}")
    return tuple(_wire_int(value, f"{name} entry") for value in data)


def _wire_strs(data, name: str) -> Tuple[str, ...]:
    """A JSON list of strings, as a tuple."""
    if not isinstance(data, list) or \
            not all(isinstance(value, str) for value in data):
        raise SerializationError(
            f"{name} must be a JSON list of strings, got {data!r}")
    return tuple(data)


@dataclass(frozen=True, eq=False)
class Spec:
    """Base of the declarative request hierarchy (see module docstring)."""

    spec_type: ClassVar[str] = ""

    # -- canonical form -----------------------------------------------------
    def _payload(self) -> Dict:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def _from_payload(cls, data: Dict) -> "Spec":  # pragma: no cover
        raise NotImplementedError

    # -- value semantics ----------------------------------------------------
    def _canonical_form(self) -> str:
        """The canonical JSON string, computed once per instance.

        Specs are frozen and advertised as cache keys, so the O(model
        size) serialisation must not be paid on every hash/eq probe; the
        cache rides on the instance via ``object.__setattr__`` (legal on
        frozen dataclasses, invisible to ``fields()``).
        """
        cached = getattr(self, "_canonical_cache", None)
        if cached is None:
            cached = _canonical(self._payload())
            object.__setattr__(self, "_canonical_cache", cached)
        return cached

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._canonical_form() == other._canonical_form()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._canonical_form()))

    def _check_choices(self, **choices: Tuple[str, ...]) -> None:
        """Each named field is ``None`` (defer to the engine config) or
        one of its ``choices``, else :class:`SerializationError` -- at
        construction, so neither a decoded document nor an in-process
        submission can queue a job the engine rejects only at
        execution."""
        for name, allowed in choices.items():
            value = getattr(self, name)
            if value is not None and (type(value) is not str or
                                      value not in allowed):
                raise SerializationError(
                    f"{name} must be null or one of {allowed}, got "
                    f"{value!r}")


@dataclass(frozen=True, eq=False)
class ContainmentSpec(Spec):
    """``∀x ∈ input_box : network(x) ∈ target`` (the paper's local reuse
    condition)."""

    network: Network
    input_box: Box
    target: Box
    #: Containment method (``METHODS``); ``None`` defers to the engine
    #: config.
    method: Optional[str] = None

    spec_type: ClassVar[str] = "containment"

    def __post_init__(self):
        self._check_choices(method=METHODS)

    def _payload(self) -> Dict:
        return {
            "network": network_to_jsonable(self.network),
            "input_box": box_to_jsonable(self.input_box),
            "target": box_to_jsonable(self.target),
            "method": self.method,
        }

    @classmethod
    def _from_payload(cls, data: Dict) -> "ContainmentSpec":
        return cls(network=network_from_jsonable(data["network"]),
                   input_box=box_from_jsonable(data["input_box"]),
                   target=box_from_jsonable(data["target"]),
                   method=data.get("method"))


@dataclass(frozen=True, eq=False)
class OutputRangeSpec(Spec):
    """The exact per-output min/max box over ``input_box``."""

    network: Network
    input_box: Box

    spec_type: ClassVar[str] = "output_range"

    def _payload(self) -> Dict:
        return {
            "network": network_to_jsonable(self.network),
            "input_box": box_to_jsonable(self.input_box),
        }

    @classmethod
    def _from_payload(cls, data: Dict) -> "OutputRangeSpec":
        return cls(network=network_from_jsonable(data["network"]),
                   input_box=box_from_jsonable(data["input_box"]))


@dataclass(frozen=True, eq=False)
class ThresholdSpec(Spec):
    """Prove ``max objective @ network(x) <= threshold`` and keep the
    branching certificate."""

    network: Network
    input_box: Box
    objective: np.ndarray
    threshold: float

    spec_type: ClassVar[str] = "threshold"

    def _payload(self) -> Dict:
        return {
            "network": network_to_jsonable(self.network),
            "input_box": box_to_jsonable(self.input_box),
            "objective": array_to_jsonable(self.objective),
            "threshold": float_to_jsonable(self.threshold),
        }

    @classmethod
    def _from_payload(cls, data: Dict) -> "ThresholdSpec":
        return cls(network=network_from_jsonable(data["network"]),
                   input_box=box_from_jsonable(data["input_box"]),
                   objective=array_from_jsonable(data["objective"]),
                   threshold=_wire_float(data["threshold"], "threshold"))


@dataclass(frozen=True, eq=False)
class MaximizeSpec(Spec):
    """``max c @ network(x)`` (or ``min`` with ``minimize=True``) over the
    box, optionally in threshold mode."""

    network: Network
    input_box: Box
    objective: np.ndarray
    threshold: Optional[float] = None
    minimize: bool = False

    spec_type: ClassVar[str] = "maximize"

    def _payload(self) -> Dict:
        return {
            "network": network_to_jsonable(self.network),
            "input_box": box_to_jsonable(self.input_box),
            "objective": array_to_jsonable(self.objective),
            "threshold": None if self.threshold is None
            else float_to_jsonable(self.threshold),
            "minimize": bool(self.minimize),
        }

    @classmethod
    def _from_payload(cls, data: Dict) -> "MaximizeSpec":
        threshold = data.get("threshold")
        return cls(network=network_from_jsonable(data["network"]),
                   input_box=box_from_jsonable(data["input_box"]),
                   objective=array_from_jsonable(data["objective"]),
                   threshold=None if threshold is None
                   else _wire_float(threshold, "threshold"),
                   minimize=_wire_bool(data.get("minimize", False),
                                       "minimize"))


@dataclass(frozen=True, eq=False)
class PropositionSpec(Spec):
    """One proof-reuse proposition (paper Section IV), ``kind`` 1..6.

    Kinds 1/2/3 settle a domain enlargement over ``artifacts``; kinds
    4/5 settle a new network version (optionally with an enlargement);
    kind 6 settles a new version over the *original* domain only (the
    enlargement composite lives in :class:`ContinuousLoopSpec`).
    ``method`` of ``None`` keeps each proposition's historical default
    (prop2: ``"exact"``, prop6: ``"symbolic"``, else the config method).
    """

    kind: int
    artifacts: ProofArtifacts
    enlarged_din: Optional[Box] = None
    new_network: Optional[Network] = None
    alphas: Optional[Tuple[int, ...]] = None
    method: Optional[str] = None
    #: Abstract domain for prop2's layerwise rebuild (``None`` = config).
    domain: Optional[str] = None
    #: Prop3's distance norm.
    ord: float = 2.0
    #: Prop4: run every layer check even after a failure (the parallel
    #: execution model; the fixing fallback needs the full pattern).
    stop_on_failure: bool = False
    #: Prop4/5: batched interval pre-screen before exact per-check work.
    prescreen: bool = True
    #: Prop6: re-verify the stored abstraction's safety instead of
    #: trusting the recorded flag.
    recheck_safety: bool = False

    spec_type: ClassVar[str] = "proposition"

    def __post_init__(self):
        self._check_choices(method=METHODS, domain=DOMAINS)
        if self.kind not in PROPOSITION_KINDS:
            raise SerializationError(
                f"proposition kind must be one of {PROPOSITION_KINDS}, "
                f"got {self.kind}")
        if self.kind in (1, 2, 3) and self.enlarged_din is None:
            raise SerializationError(
                f"proposition {self.kind} needs enlarged_din")
        if self.kind in (4, 5, 6) and self.new_network is None:
            raise SerializationError(
                f"proposition {self.kind} needs new_network")
        if self.kind == 6 and self.enlarged_din is not None:
            # Proposition 6 covers the *original* domain only; silently
            # ignoring the enlargement would return an unsound "holds".
            raise SerializationError(
                "proposition 6 does not take enlarged_din (it covers the "
                "original domain only); use ContinuousLoopSpec with "
                'strategies=("prop6", ...) for the enlargement composite')
        if self.kind == 5 and self.alphas is None:
            raise SerializationError("proposition 5 needs reuse points (alphas)")
        if self.alphas is not None:
            # Normalise to a tuple so the frozen value is hashable/stable.
            object.__setattr__(self, "alphas",
                               tuple(int(a) for a in self.alphas))

    def _payload(self) -> Dict:
        return {
            "kind": int(self.kind),
            "artifacts": artifacts_to_jsonable(self.artifacts),
            "enlarged_din": None if self.enlarged_din is None
            else box_to_jsonable(self.enlarged_din),
            "new_network": None if self.new_network is None
            else network_to_jsonable(self.new_network),
            "alphas": None if self.alphas is None else list(self.alphas),
            "method": self.method,
            "domain": self.domain,
            "ord": float_to_jsonable(self.ord),
            "stop_on_failure": bool(self.stop_on_failure),
            "prescreen": bool(self.prescreen),
            "recheck_safety": bool(self.recheck_safety),
        }

    @classmethod
    def _from_payload(cls, data: Dict) -> "PropositionSpec":
        return cls(
            kind=_wire_int(data["kind"], "proposition kind"),
            artifacts=artifacts_from_jsonable(data["artifacts"]),
            enlarged_din=None if data.get("enlarged_din") is None
            else box_from_jsonable(data["enlarged_din"]),
            new_network=None if data.get("new_network") is None
            else network_from_jsonable(data["new_network"]),
            alphas=None if data.get("alphas") is None
            else _wire_ints(data["alphas"], "alphas"),
            method=data.get("method"),
            domain=data.get("domain"),
            ord=_wire_float(data.get("ord", 2.0), "ord"),
            stop_on_failure=_wire_bool(data.get("stop_on_failure", False),
                                       "stop_on_failure"),
            prescreen=_wire_bool(data.get("prescreen", True), "prescreen"),
            recheck_safety=_wire_bool(data.get("recheck_safety", False),
                                      "recheck_safety"),
        )


@dataclass(frozen=True, eq=False)
class ContinuousLoopSpec(Spec):
    """One continuous-verification round: settle a domain enlargement
    (SVuDC, ``new_network is None``) or a new version (SVbTV) against the
    stored artifacts via the full strategy cascade, fixing and fallback
    included (legacy :class:`repro.core.continuous.ContinuousVerifier`)."""

    artifacts: ProofArtifacts
    enlarged_din: Optional[Box] = None
    new_network: Optional[Network] = None
    #: Strategy cascade override (``None`` = the historical defaults).
    strategies: Optional[Tuple[str, ...]] = None
    prop5_alphas: Optional[Tuple[int, ...]] = None
    with_fixing: bool = True

    spec_type: ClassVar[str] = "continuous"

    def __post_init__(self):
        if self.enlarged_din is None and self.new_network is None:
            raise SerializationError(
                "a continuous round needs an enlarged domain, a new "
                "network version, or both")
        if self.strategies is not None:
            object.__setattr__(self, "strategies",
                               tuple(str(s) for s in self.strategies))
        if self.prop5_alphas is not None:
            object.__setattr__(self, "prop5_alphas",
                               tuple(int(a) for a in self.prop5_alphas))

    def _payload(self) -> Dict:
        return {
            "artifacts": artifacts_to_jsonable(self.artifacts),
            "enlarged_din": None if self.enlarged_din is None
            else box_to_jsonable(self.enlarged_din),
            "new_network": None if self.new_network is None
            else network_to_jsonable(self.new_network),
            "strategies": None if self.strategies is None
            else list(self.strategies),
            "prop5_alphas": None if self.prop5_alphas is None
            else list(self.prop5_alphas),
            "with_fixing": bool(self.with_fixing),
        }

    @classmethod
    def _from_payload(cls, data: Dict) -> "ContinuousLoopSpec":
        return cls(
            artifacts=artifacts_from_jsonable(data["artifacts"]),
            enlarged_din=None if data.get("enlarged_din") is None
            else box_from_jsonable(data["enlarged_din"]),
            new_network=None if data.get("new_network") is None
            else network_from_jsonable(data["new_network"]),
            strategies=None if data.get("strategies") is None
            else _wire_strs(data["strategies"], "strategies"),
            prop5_alphas=None if data.get("prop5_alphas") is None
            else _wire_ints(data["prop5_alphas"], "prop5_alphas"),
            with_fixing=_wire_bool(data.get("with_fixing", True),
                                   "with_fixing"),
        )


#: Registry keyed by the wire-format ``"type"`` tag.
SPEC_TYPES: Dict[str, Type[Spec]] = {
    cls.spec_type: cls
    for cls in (ContainmentSpec, OutputRangeSpec, ThresholdSpec,
                MaximizeSpec, PropositionSpec, ContinuousLoopSpec)
}


def spec_to_dict(spec: Spec) -> Dict:
    """The JSON-safe wire form: ``{"type": <kind>, ...payload}``."""
    if type(spec) not in SPEC_TYPES.values():
        raise SerializationError(f"not a Spec: {type(spec).__name__}")
    return {"type": spec.spec_type, **spec._payload()}


def spec_from_dict(data: Dict) -> Spec:
    """Inverse of :func:`spec_to_dict`."""
    try:
        tag = data["type"]
    except (TypeError, KeyError):
        raise SerializationError(
            'a spec dict needs a "type" tag '
            f"(one of {sorted(SPEC_TYPES)})") from None
    if tag not in SPEC_TYPES:
        raise SerializationError(
            f"unknown spec type {tag!r}; known: {sorted(SPEC_TYPES)}")
    cls = SPEC_TYPES[tag]
    payload = {k: v for k, v in data.items() if k != "type"}
    # Payload keys mirror the dataclass fields one-to-one; reject typos
    # loudly (a silently dropped "thresold" would change the verdict).
    known = {f.name for f in dataclass_fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise SerializationError(
            f"unknown keys {sorted(unknown)} for spec type {tag!r}; "
            f"known: {sorted(known)}")
    try:
        return cls._from_payload(payload)
    except KeyError as exc:
        raise SerializationError(
            f"spec type {tag!r} is missing required key {exc.args[0]!r}"
        ) from None


def spec_to_json(spec: Spec, **dumps_kwargs) -> str:
    """``json.dumps`` of :func:`spec_to_dict` -- strict RFC-8259 text
    (non-finite floats travel as ``"inf"``/``"-inf"``/``"nan"`` strings,
    so any JSON parser can read the wire form)."""
    return json.dumps(spec_to_dict(spec), allow_nan=False, **dumps_kwargs)


def spec_from_json(text: str) -> Spec:
    """Inverse of :func:`spec_to_json`."""
    return spec_from_dict(_json_loads(text, "spec"))
