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
import math
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

import numpy as np

from repro.errors import SerializationError
from repro.api.config import DOMAINS, METHODS
from repro.domains.box import Box
from repro.nn.network import Network
from repro.core.artifacts import ProofArtifacts
from repro.core.propositions import SINGLE_PROPOSITIONS
from repro.api.serialize import (
    ARRAY,
    ARTIFACTS,
    BOOL,
    BOX,
    FLOAT,
    INT,
    NETWORK,
    Field,
    ListOf,
    Nullable,
    OneOf,
    Record,
    Tagged,
    _json_loads,
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
#: The strategies a continuous round can cascade through.
STRATEGIES = SINGLE_PROPOSITIONS


def _canonical(payload: Dict) -> str:
    # sort_keys for one deterministic string per value; allow_nan=False
    # asserts the payloads really are strict RFC-8259 JSON (non-finite
    # floats are string-encoded by repro.api.serialize).
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def _check_threshold(threshold: Optional[float]) -> None:
    """A NaN threshold asks nothing (every comparison with it is false),
    and the search would report ``max <= NaN`` as proved."""
    if threshold is not None and math.isnan(threshold):
        raise SerializationError(
            "threshold must be a number or +-inf, not NaN")


@dataclass(frozen=True, eq=False)
class Spec:
    """Base of the declarative request hierarchy (see module docstring)."""

    spec_type: ClassVar[str] = ""

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
            cached = _canonical(SPEC.records[self.spec_type].encode(self))
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



@dataclass(frozen=True, eq=False)
class OutputRangeSpec(Spec):
    """The exact per-output min/max box over ``input_box``."""

    network: Network
    input_box: Box

    spec_type: ClassVar[str] = "output_range"



@dataclass(frozen=True, eq=False)
class ThresholdSpec(Spec):
    """Prove ``max objective @ network(x) <= threshold`` and keep the
    branching certificate."""

    network: Network
    input_box: Box
    objective: np.ndarray
    threshold: float

    spec_type: ClassVar[str] = "threshold"

    def __post_init__(self):
        _check_threshold(self.threshold)



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

    def __post_init__(self):
        _check_threshold(self.threshold)



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


def _spec(cls: Type[Spec], *fields: Field) -> Record:
    # A spec's fields are the request itself: errors name them bare.
    return Record(f"{cls.spec_type} spec", cls, *fields, label="")


_METHOD = Field("method", Nullable(OneOf(*METHODS)), None)
_ENLARGED_DIN = Field("enlarged_din", Nullable(BOX), None)
_NEW_NETWORK = Field("new_network", Nullable(NETWORK), None)

#: Every spec document: ``{"type": <spec_type>, ...fields}``, one table
#: per spec type.  Payload keys mirror the dataclass fields one-to-one,
#: and unknown keys are rejected (a silently dropped "thresold" would
#: change the verdict).
SPEC = Tagged("spec", "type", {record.build.spec_type: record for record in (
    _spec(
        ContainmentSpec, Field("network", NETWORK), Field("input_box", BOX),
        Field("target", BOX), _METHOD),
    _spec(
        OutputRangeSpec, Field("network", NETWORK),
        Field("input_box", BOX)),
    _spec(
        ThresholdSpec, Field("network", NETWORK), Field("input_box", BOX),
        Field("objective", ARRAY), Field("threshold", FLOAT)),
    _spec(
        MaximizeSpec, Field("network", NETWORK), Field("input_box", BOX),
        Field("objective", ARRAY),
        Field("threshold", Nullable(FLOAT), None),
        Field("minimize", BOOL, False)),
    _spec(
        PropositionSpec, Field("kind", INT), Field("artifacts", ARTIFACTS),
        _ENLARGED_DIN, _NEW_NETWORK,
        Field("alphas", Nullable(ListOf(INT)), None), _METHOD,
        Field("domain", Nullable(OneOf(*DOMAINS)), None),
        Field("ord", FLOAT, 2.0),
        Field("stop_on_failure", BOOL, False),
        Field("prescreen", BOOL, True),
        Field("recheck_safety", BOOL, False)),
    _spec(
        ContinuousLoopSpec, Field("artifacts", ARTIFACTS), _ENLARGED_DIN,
        _NEW_NETWORK,
        Field("strategies", Nullable(ListOf(OneOf(*STRATEGIES))), None),
        Field("prop5_alphas", Nullable(ListOf(INT)), None),
        Field("with_fixing", BOOL, True)),
)})

#: Registry keyed by the wire-format ``"type"`` tag.
SPEC_TYPES: Dict[str, Type[Spec]] = {
    tag: record.build for tag, record in SPEC.records.items()}


def spec_to_dict(spec: Spec) -> Dict:
    """The JSON-safe wire form: ``{"type": <kind>, ...payload}``."""
    data: Dict = SPEC.encode(spec)
    return data


def spec_from_dict(data: Any) -> Spec:
    """Inverse of :func:`spec_to_dict`."""
    spec: Spec = SPEC.decode(data)
    return spec


def spec_to_json(spec: Spec, **dumps_kwargs: Any) -> str:
    """``json.dumps`` of :func:`spec_to_dict` -- strict RFC-8259 text
    (non-finite floats travel as ``"inf"``/``"-inf"``/``"nan"`` strings,
    so any JSON parser can read the wire form)."""
    return json.dumps(spec_to_dict(spec), allow_nan=False, **dumps_kwargs)


def spec_from_json(text: str) -> Spec:
    """Inverse of :func:`spec_to_json`."""
    return spec_from_dict(_json_loads(text, "spec"))
