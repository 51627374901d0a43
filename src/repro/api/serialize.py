"""The wire codec: every document repro ships, described once as a table.

Spec, verdict, certificate, proof-artifact and config documents are strict
RFC-8259 JSON, readable by non-Python peers (remote executors speak it).
Each wire type is one :class:`Record` -- a table of :class:`Field` rows,
each naming a key, its :class:`Kind`, the value an absent key stands for,
and whether the key is run bookkeeping -- and one encoder and one decoder
walk those tables for every document:

* arrays -> nested lists (Python's ``json`` emits ``repr``-style doubles,
  which round-trip binary64 exactly); non-finite values, legal for box
  bounds and recorded timings, are the strings ``"inf"`` / ``"-inf"`` /
  ``"nan"`` instead of the non-standard ``Infinity``/``NaN`` tokens;
* networks -> ``{"input_dim", "layers": [{"class", "config", "arrays"}]}``
  reusing each layer's own ``config()`` / ``arrays()`` contract;
* certificate leaves and duals -> packed base64 int8 / float64 matrices;
* proof artifacts -> the :func:`repro.core.artifacts.save_artifacts`
  layout, with the network abstraction stored as its build recipe.

Decoding checks every value once, as it is read: a wrong shape, a value
outside an enum, an unknown key or a constructor that rejects a decoded
value is a permanent :class:`~repro.errors.SerializationError`, never a
bare ``TypeError``/``KeyError`` a retry loop would take for a transient
fault.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import json
import math
import re
from operator import attrgetter
from typing import Any, Callable, Dict, NoReturn, Optional

import numpy as np

from repro.errors import ReproError, SerializationError
from repro.api.config import DEFAULT_WORKERS, VerifyConfig
from repro.api.verdict import (
    BaselineVerdict,
    ContainmentVerdict,
    ContinuousVerdict,
    FailedVerdict,
    MaximizeVerdict,
    PropositionVerdict,
    Provenance,
    RangeVerdict,
    ThresholdVerdict,
)
from repro.domains.box import Box
from repro.nn.network import Network
from repro.nn.serialize import _LAYER_CLASSES
from repro.core.artifacts import (
    STATE_DOMAINS,
    LipschitzCertificate,
    ProofArtifacts,
    StateAbstractions,
)
from repro.core.continuous import CONTINUOUS_STRATEGIES, ContinuousResult
from repro.core.fixing import FIXING_STRATEGIES, FixingResult
from repro.core.problem import VerificationProblem
from repro.core.propositions import (
    PROPOSITIONS,
    PropositionResult,
    SubproblemReport,
)
from repro.core.verifier import BaselineOutcome
from repro.exact.bab import BAB_STATUSES, BaBResult
from repro.exact.encoding import PackedDuals
from repro.exact.verify import ContainmentResult
from repro.netabs.abstraction import build_abstraction

__all__ = [
    # the codec: kinds and tables
    "Kind", "Scalar", "OneOf", "Nullable", "ListOf", "MapOf", "Leaf",
    "Field", "Record", "Tagged", "INT", "FLOAT", "BOOL", "STR", "HOLDS",
    "ANY", "ARRAY", "BOX", "NETWORK", "ARTIFACTS", "CONFIG", "CERTIFICATE",
    "VERDICT",
    # documents
    "float_to_jsonable",
    "array_to_jsonable",
    "array_from_jsonable",
    "box_to_jsonable",
    "network_to_jsonable",
    "config_to_json",
    "config_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "VERDICT_TAGS",
    "verdict_to_dict",
    "verdict_from_dict",
    "verdict_to_json",
    "verdict_from_json",
    "canonical_verdict_json",
    "verdict_decision_json",
]


# ------------------------------------------------------------------ reading
#: The largest wire document :func:`_json_loads` decodes (bytes, or
#: characters of a ``str``): a spec carries full float64 weights.
MAX_DOCUMENT_BYTES = 256 * 1024 * 1024


def _reject_constant(token: str) -> NoReturn:
    """``parse_constant`` hook: the wire is strict RFC 8259, so the
    ``NaN``/``Infinity``/``-Infinity`` tokens Python's ``json`` would
    accept are malformed (non-finite floats travel as strings)."""
    raise ValueError(
        f"non-standard JSON token {token!r}; encode non-finite floats as "
        'the strings "inf"/"-inf"/"nan"')


def _json_loads(text: str | bytes, what: str) -> Any:
    """``json.loads`` for wire documents (``str`` or UTF-8 ``bytes``):
    text over :data:`MAX_DOCUMENT_BYTES`, text that does not parse, holds
    a ``NaN``/``Infinity`` token, or nests too deeply for the parser is a
    malformed document (a permanent :class:`SerializationError`), never a
    bare ``JSONDecodeError`` or :class:`RecursionError` a retry loop
    would take for a transient fault."""
    if len(text) > MAX_DOCUMENT_BYTES:
        raise SerializationError(
            f"{what} over {MAX_DOCUMENT_BYTES} bytes")
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except RecursionError:
        raise SerializationError(
            f"{what} JSON is nested too deeply to decode") from None
    except (ValueError, TypeError) as exc:  # bad text, or not text at all
        raise SerializationError(f"{what} is not JSON: {exc}") from None


def _show(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _bad(where: str, expect: str, value: Any) -> SerializationError:
    return SerializationError(f"{where} must be {expect}, got {_show(value)}")


# -------------------------------------------------------------------- kinds
class Kind:
    """How one wire value is written (:meth:`encode`) and read
    (:meth:`decode`, which raises :class:`SerializationError` naming
    ``where`` for anything but ``expect``)."""

    #: What a wire value of this kind is, for error messages.
    expect = "a JSON value"
    #: The same, plural, for lists of this kind.
    plural = "values"

    def encode(self, value: Any, canonical: bool = False) -> Any:
        return value

    def decode(self, data: Any, where: str) -> Any:
        return data


class Scalar(Kind):
    """A JSON scalar: ``check`` admits it, ``cast`` (if any) converts it,
    ``write`` (if any) converts a value for the wire."""

    def __init__(self, expect: str, plural: str,
                 check: Callable[[Any], bool],
                 write: Optional[Callable[[Any], Any]] = None,
                 cast: Optional[Callable[[Any], Any]] = None) -> None:
        self.expect, self.plural = expect, plural
        self.check, self.write, self.cast = check, write, cast

    def encode(self, value: Any, canonical: bool = False) -> Any:
        return value if self.write is None else self.write(value)

    def decode(self, data: Any, where: str) -> Any:
        if not self.check(data):
            raise _bad(where, self.expect, data)
        if self.cast is None:
            return data
        try:
            return self.cast(data)
        except OverflowError:
            raise SerializationError(f"{where} overflows a float") from None


def float_to_jsonable(value: float) -> Any:
    """A strict-JSON scalar: the float itself, or ``"inf"``/``"-inf"``/
    ``"nan"`` for the values RFC 8259 cannot carry (``float()`` inverts)."""
    value = float(value)
    return value if math.isfinite(value) else str(value)


#: The strings :func:`float_to_jsonable` writes for non-finite values.
_NON_FINITE = frozenset({"inf", "-inf", "nan"})
#: The Python types ``json.loads`` gives a JSON number (bool excluded).
_NUMBER_TYPES = frozenset({int, float})

#: A count: a JSON integer >= 0 (bool is an int subclass, but a JSON
#: ``true`` is not a count; ``1e400`` is a float, not an overflow).
INT = Scalar("a non-negative integer", "non-negative integers",
             lambda v: type(v) is int and v >= 0, write=int)
#: A JSON number or one of ``"inf"``/``"-inf"``/``"nan"`` (never ``"5"``).
FLOAT = Scalar('a JSON number or "inf"/"-inf"/"nan"', "numbers",
               lambda v: type(v) in _NUMBER_TYPES
               or type(v) is str and v in _NON_FINITE,
               write=float_to_jsonable, cast=float)
#: JSON ``true``/``false`` (never ``bool("false") == True``).
BOOL = Scalar("a JSON true or false", "flags",
              lambda v: type(v) is bool, write=bool)
STR = Scalar("a JSON string", "strings", lambda v: type(v) is str)
#: A three-valued answer: proved, refuted or inconclusive.
HOLDS = Scalar("a JSON true, false or null", "answers",
               lambda v: v is None or type(v) is bool)
#: Free-form JSON, passed through as read.
ANY = Scalar("a JSON value", "values", lambda v: True)


class OneOf(Scalar):
    """A JSON string from a listed set; ``{n}`` in a listed string stands
    for a positive decimal count."""

    def __init__(self, *choices: str) -> None:
        self.choices = choices
        pattern = re.compile("|".join(
            re.escape(c).replace(re.escape("{n}"), "[1-9][0-9]*")
            for c in choices))
        super().__init__(f"one of {choices}", "strings",
                         lambda v: type(v) is str
                         and pattern.fullmatch(v) is not None)


class Nullable(Kind):
    """``null``, or a value of ``kind``."""

    def __init__(self, kind: Kind) -> None:
        self.kind = kind
        self.expect = f"null or {kind.expect}"

    def encode(self, value: Any, canonical: bool = False) -> Any:
        return None if value is None else self.kind.encode(value, canonical)

    def decode(self, data: Any, where: str) -> Any:
        if data is None:
            return None
        if isinstance(self.kind, OneOf) and not self.kind.check(data):
            # An enum's message lists every accepted value, null included.
            raise _bad(where, self.expect, data)
        return self.kind.decode(data, where)


class ListOf(Kind):
    """A JSON list of ``kind`` values."""

    def __init__(self, kind: Kind) -> None:
        self.kind = kind
        self.expect = f"a JSON list of {kind.plural}"

    def encode(self, value: Any, canonical: bool = False) -> Any:
        return [self.kind.encode(v, canonical) for v in value]

    def decode(self, data: Any, where: str) -> Any:
        if type(data) is not list:
            raise _bad(where, self.expect, data)
        try:
            return [self.kind.decode(v, f"{where} entry") for v in data]
        except SerializationError as exc:
            raise SerializationError(
                f"{where} must be {self.expect}: {exc}") from None


class MapOf(Kind):
    """A JSON object from string keys to ``kind`` values."""

    expect = "a JSON object"

    def __init__(self, kind: Kind) -> None:
        self.kind = kind

    def encode(self, value: Any, canonical: bool = False) -> Any:
        return {str(k): self.kind.encode(v, canonical)
                for k, v in value.items()}

    def decode(self, data: Any, where: str) -> Any:
        if type(data) is not dict:
            raise _bad(where, self.expect, data)
        return {k: self.kind.decode(v, f"{where} {k}")
                for k, v in data.items()}


class Leaf(Kind):
    """A value with its own codec pair (arrays, packed matrices)."""

    def __init__(self, expect: str, write: Callable[[Any], Any],
                 read: Callable[[Any], Any]) -> None:
        self.expect, self.write, self.read = expect, write, read

    def encode(self, value: Any, canonical: bool = False) -> Any:
        return self.write(value)

    def decode(self, data: Any, where: str) -> Any:
        try:
            return self.read(data)
        except SerializationError as exc:
            raise SerializationError(f"{where}: {exc}") from None


#: Marks a :class:`Field` whose key must be present.
REQUIRED: Any = object()


class Field:
    """One key of a wire type: its :class:`Kind`, the wire value an absent
    key stands for (``REQUIRED``: none), whether it is run bookkeeping
    (dropped from the canonical form), and how to read it off the object
    (default: the attribute of the same name)."""

    def __init__(self, name: str, kind: Kind, default: Any = REQUIRED, *,
                 bookkeeping: bool = False,
                 get: Optional[Callable[[Any], Any]] = None) -> None:
        self.name, self.kind, self.default = name, kind, default
        self.bookkeeping = bookkeeping
        self.get: Callable[[Any], Any] = get or attrgetter(name)


class Record(Kind):
    """A JSON object with a fixed table of fields, decoded to
    ``build(**fields)`` (keyword per wire key).  Errors name a field as
    ``"<label> <key>"`` (``label`` defaults to ``name``)."""

    expect = "a JSON object"
    plural = "objects"

    def __init__(self, name: str, build: Any, *fields: Field,
                 label: Optional[str] = None) -> None:
        self.name, self.build, self.fields = name, build, fields
        self.names = frozenset(f.name for f in fields)
        self.label = name if label is None else label

    def encode(self, value: Any, canonical: bool = False) -> Any:
        return {f.name: f.kind.encode(f.get(value), canonical)
                for f in self.fields if not (canonical and f.bookkeeping)}

    def decode(self, data: Any, where: str = "") -> Any:
        if type(data) is not dict:
            raise _bad(where or self.name, self.expect, data)
        unknown = data.keys() - self.names
        if unknown:
            raise SerializationError(
                f"unknown {self.name} keys {sorted(unknown)}; known: "
                f"{sorted(self.names)}")
        values = {}
        for f in self.fields:
            wire = data.get(f.name, f.default)
            if wire is REQUIRED:
                raise SerializationError(
                    f"{self.name} is missing required key {f.name!r}")
            values[f.name] = None if f.name not in data and wire is None \
                else f.kind.decode(wire, f"{self.label} {f.name}".lstrip())
        try:
            return self.build(**values)
        except SerializationError:
            raise
        except (ReproError, ArithmeticError, AttributeError, LookupError,
                TypeError, ValueError) as exc:
            # Every value passed its kind, so the document is at fault.
            raise SerializationError(
                f"{self.name} rejected its fields: {type(exc).__name__}: "
                f"{exc}") from exc


class Tagged(Kind):
    """A JSON object whose ``key`` names the :class:`Record` (one per
    class, its ``build``) that describes the other keys."""

    expect = "a JSON object"

    def __init__(self, what: str, key: str,
                 records: Dict[str, Record]) -> None:
        self.what, self.key, self.records = what, key, records

    def tag_of(self, value: Any) -> str:
        for tag, record in self.records.items():
            if type(value) is record.build:
                return tag
        raise SerializationError(
            f"not a wire-serializable {self.what}: {type(value).__name__}")

    def encode(self, value: Any, canonical: bool = False) -> Any:
        tag = self.tag_of(value)
        return {self.key: tag,
                **self.records[tag].encode(value, canonical)}

    def decode(self, data: Any, where: str = "") -> Any:
        tag = data.get(self.key) if type(data) is dict else None
        if tag is None:
            raise SerializationError(
                f'a {self.what} dict needs a "{self.key}" tag (one of '
                f"{sorted(self.records)})")
        if type(tag) is not str or tag not in self.records:
            raise SerializationError(
                f"unknown {self.what} type {_show(tag)}; known: "
                f"{sorted(self.records)}")
        return self.records[tag].decode(
            {k: v for k, v in data.items() if k != self.key})


# ------------------------------------------------------------------- arrays
def _encode_nested(values: Any) -> Any:
    if isinstance(values, list):
        return [_encode_nested(v) for v in values]
    return float_to_jsonable(values)


def array_to_jsonable(arr: np.ndarray) -> list:
    arr = np.asarray(arr, dtype=np.float64)
    nested = arr.tolist()
    if np.isfinite(arr).all():
        return nested
    return _encode_nested(nested)


def array_from_jsonable(data: Any) -> np.ndarray:
    """Inverse of :func:`array_to_jsonable`: nested lists of JSON numbers
    (not bools) and ``"inf"``/``"-inf"``/``"nan"``, else
    :class:`SerializationError` (never a silent cast of ``"1"``, nor a
    bare ``ValueError`` for ``"x"`` or a ragged nesting)."""
    values = np.asarray(data, dtype=object)
    kinds = set(map(type, values.ravel()))
    if kinds <= _NUMBER_TYPES:
        # All numbers (network weights): one vectorised cast.
        try:
            return values.astype(np.float64)
        except OverflowError:
            raise SerializationError("an array entry overflows a float") \
                from None
    if kinds <= _NUMBER_TYPES | {str}:
        return np.array([FLOAT.decode(v, "array entry")
                         for v in values.ravel()]).reshape(values.shape)
    raise SerializationError(
        f"array entries must be JSON numbers or \"inf\"/\"-inf\"/\"nan\" in "
        f"a rectangular nesting, got {sorted(k.__name__ for k in kinds)}")


ARRAY = Leaf("a JSON array of numbers", array_to_jsonable,
             array_from_jsonable)


# ------------------------------------------------------ packed certificates
def _wire_bytes(data: Any, name: str) -> bytes:
    if not isinstance(data, str):
        raise SerializationError(f"{name} must be a base64 string")
    try:
        return base64.b64decode(data, validate=True)
    except binascii.Error as exc:
        raise SerializationError(f"{name} is not base64: {exc}") from None


#: Packed phase rows travel as int8 (0 free, +-1 fixed), row-major.
_PHASE_DTYPE = np.dtype("i1")


def _phase_matrix_to_jsonable(leaves: np.ndarray) -> Dict:
    """One ``(N, W)`` phase matrix as ``{"width": W, "data": base64}``."""
    matrix = np.ascontiguousarray(leaves, dtype=_PHASE_DTYPE)
    return {"width": int(matrix.shape[1]),
            "data": base64.b64encode(matrix.tobytes()).decode("ascii")}


def _phase_matrix_from_jsonable(data: Any) -> np.ndarray:
    """Inverse of :func:`_phase_matrix_to_jsonable`: a read-only
    ``np.frombuffer`` view, rejected unless it holds at least one row of
    values in {-1, 0, 1}."""
    if not isinstance(data, dict) or data.keys() != {"width", "data"}:
        raise SerializationError(
            "leaves must be a packed object with width and data "
            f"(certificate wire v5), got {type(data).__name__}")
    width = INT.decode(data["width"], "leaves width")
    raw = _wire_bytes(data["data"], "leaves data")
    if not width or len(raw) % width:
        raise SerializationError(
            f"leaves data holds {len(raw)} bytes, not whole rows of width "
            f"{width}")
    if not raw:
        raise SerializationError("leaves data holds no rows")
    matrix = np.frombuffer(raw, dtype=_PHASE_DTYPE).reshape(-1, width)
    if ((matrix < -1) | (matrix > 1)).any():
        raise SerializationError("leaves data holds a phase outside -1/0/1")
    return matrix


#: Packed dual rows travel as little-endian binary64, whatever the host.
_DUAL_DTYPE = np.dtype("<f8")


def _leaf_duals_to_jsonable(duals: PackedDuals) -> Dict:
    """A :class:`~repro.exact.encoding.PackedDuals` as one object:
    ``present`` flags the leaves that carry multipliers, every present row
    is ``dual_ub`` followed by ``dual_eq`` split at ``split``, and
    ``data`` is the base64 of the row-major float64 matrix."""
    matrix = np.ascontiguousarray(duals.matrix, dtype=_DUAL_DTYPE)
    return {"present": duals.present.astype(int).tolist(),
            "split": int(duals.split), "width": int(matrix.shape[1]),
            "data": base64.b64encode(matrix.tobytes()).decode("ascii")}


def _leaf_duals_from_jsonable(data: Any) -> PackedDuals:
    """Inverse of :func:`_leaf_duals_to_jsonable`; the matrix is a
    read-only ``np.frombuffer`` view."""
    if not isinstance(data, dict) or \
            data.keys() != {"present", "split", "width", "data"}:
        raise SerializationError(
            "leaf_duals must be a packed object with present, split, "
            f"width and data (certificate wire v3), got "
            f"{type(data).__name__}")
    present = data["present"]
    if not isinstance(present, list) or \
            any(type(p) is not int or p not in (0, 1) for p in present):
        raise SerializationError(
            "leaf_duals present must be a list of 0/1 flags")
    split = INT.decode(data["split"], "leaf_duals split")
    width = INT.decode(data["width"], "leaf_duals width")
    if split > width:
        raise SerializationError(
            f"leaf_duals split {split} exceeds width {width}")
    raw = _wire_bytes(data["data"], "leaf_duals data")
    rows = sum(present)
    if len(raw) != rows * width * _DUAL_DTYPE.itemsize:
        raise SerializationError(
            f"leaf_duals data holds {len(raw)} bytes, expected {rows} rows "
            f"x {width} x {_DUAL_DTYPE.itemsize}")
    matrix = np.frombuffer(raw, dtype=_DUAL_DTYPE).reshape(rows, width)
    return PackedDuals(matrix, np.array(present, dtype=bool), split)


PHASES = Leaf("a packed phase matrix", _phase_matrix_to_jsonable,
              _phase_matrix_from_jsonable)
DUALS = Leaf("packed leaf duals", _leaf_duals_to_jsonable,
             _leaf_duals_from_jsonable)


# ---------------------------------------------------------- boxes, networks
BOX = Record("box", Box, Field("lower", ARRAY), Field("upper", ARRAY))

_WEIGHTS = ("weight", "bias")
_CONV = ("in_channels", "out_channels", "kernel_size", "stride")

#: Each layer class's ``config()`` keys with their kinds, and its
#: ``arrays()`` names: exactly what the encoder writes.  A Dense or Conv2D
#: missing its weights would draw random ones, so every key is required.
_LAYER_PARTS: Dict[str, Any] = {
    "Dense": ({"in_dim": INT, "out_dim": INT}, _WEIGHTS),
    "ReLU": ({}, ()),
    "LeakyReLU": ({"alpha": FLOAT}, ()),
    "Sigmoid": ({}, ()),
    "Tanh": ({}, ()),
    "Flatten": ({}, ()),
    "Conv2D": (dict.fromkeys(_CONV, INT), _WEIGHTS),
    "AvgPool2D": ({"pool_size": INT}, ()),
}


def _exact_keys(where: str, data: Dict, names: Any) -> None:
    if data.keys() != set(names):
        raise SerializationError(
            f"{where} must have exactly the keys {sorted(names)}, got "
            f"{sorted(data)}")


def _layer(**fields: Any) -> Any:
    name, config, arrays = fields["class"], fields["config"], fields["arrays"]
    kinds, array_names = _LAYER_PARTS[name]
    _exact_keys(f"{name} config", config, kinds)
    _exact_keys(f"{name} arrays", arrays, array_names)
    for key, value in config.items():
        kinds[key].decode(value, f"{name} config {key}")
    return _LAYER_CLASSES[name]._from_parts(config, arrays)


LAYER = Record(
    "layer", _layer,
    Field("class", OneOf(*_LAYER_PARTS), get=lambda l: type(l).__name__),
    Field("config", MapOf(ANY), get=lambda l: l.config()),
    Field("arrays", MapOf(ARRAY), get=lambda l: l.arrays()),
)
NETWORK = Record(
    "network", lambda input_dim, layers: Network(layers, input_dim),
    Field("input_dim", INT),
    Field("layers", ListOf(LAYER)),
)


# ---------------------------------------------------------------- artifacts
def _artifacts(problem: VerificationProblem, netabs: Optional[Dict],
               **fields: Any) -> ProofArtifacts:
    absn = None if netabs is None else \
        build_abstraction(problem.network, problem.din, **netabs)
    return ProofArtifacts(problem=problem, network_abstraction=absn,
                          **fields)


ARTIFACTS = Record(
    "artifacts", _artifacts,
    Field("problem", Record("problem", VerificationProblem,
                            Field("network", NETWORK),
                            Field("din", BOX),
                            Field("dout", BOX))),
    Field("states_prove_safety", BOOL),
    Field("original_time", FLOAT, bookkeeping=True),
    Field("notes", MapOf(ANY), {}),
    Field("states", Nullable(Record("states", StateAbstractions,
                                    Field("domain", OneOf(*STATE_DOMAINS)),
                                    Field("boxes", ListOf(BOX)))), None),
    # ell is validated finite, but ord=inf (the L∞ norm) is legal.
    Field("lipschitz", Nullable(Record("lipschitz", LipschitzCertificate,
                                       Field("ell", FLOAT),
                                       Field("ord", FLOAT),
                                       Field("method", STR))), None),
    # The network abstraction travels as its deterministic build recipe.
    Field("netabs", Nullable(Record("netabs", dict,
                                    Field("num_groups", INT),
                                    Field("margin", FLOAT))), None,
          get=attrgetter("network_abstraction")),
    Field("output_range", Nullable(BOX), None),
)

box_to_jsonable = BOX.encode
network_to_jsonable = NETWORK.encode


# ------------------------------------------------------------------ configs
#: The kind of each :class:`VerifyConfig` field type (the config itself
#: checks ranges and the method/domain/policy choices).  A float is read
#: as written, so a decoded config re-encodes to the same bytes.
_CONFIG_KINDS = {
    "float": Scalar("a JSON number", "numbers",
                    lambda v: type(v) in _NUMBER_TYPES),
    "int": INT,
    "str": STR,
}

#: Decodes a config document; one field per :class:`VerifyConfig` field,
#: its default the field's own.  ``VerifyConfig.to_dict`` encodes.
CONFIG = Record("VerifyConfig", VerifyConfig, *(
    Field(f.name, _CONFIG_KINDS[f.type], f.default)
    for f in dataclasses.fields(VerifyConfig)))


def config_to_json(config: VerifyConfig, **dumps_kwargs: Any) -> str:
    """Canonical JSON of a :class:`~repro.api.config.VerifyConfig`.

    ``sort_keys`` is forced so one config value maps to one byte string --
    the serving layer fingerprints ``(spec, config)`` pairs with this.
    """
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(config.to_dict(), allow_nan=False, **dumps_kwargs)


def config_from_json(text: str) -> VerifyConfig:
    """Inverse of :func:`config_to_json` (unknown keys rejected loudly)."""
    config: VerifyConfig = CONFIG.decode(_json_loads(text, "config"))
    return config


# ------------------------------------------------------------- certificates
def _certificate(**fields: Any) -> Any:
    from repro.certs.certificate import Certificate

    duals = fields.get("leaf_duals")
    if duals is not None and len(duals) != len(fields["leaves"]):
        raise SerializationError(
            f"leaf_duals present mask has {len(duals)} flags for "
            f"{len(fields['leaves'])} leaves")
    return Certificate(**fields)


def _verdict_certificate(**fields: Any) -> Any:
    width, dims = fields["leaves"].shape[1], fields["block_dims"]
    if width != sum(dims[1:]):
        raise SerializationError(
            f"certificate leaves have width {width}, not one column per "
            f"neuron of block_dims {dims}")
    return _certificate(**fields)


def _packed_duals(cert: Any) -> PackedDuals:
    duals = cert.leaf_duals
    return PackedDuals.pack([None] * len(cert.leaves)) if duals is None \
        else duals


#: The store's certificate document (``certificate_to_json``).
CERTIFICATE = Record(
    "certificate", _certificate,
    Field("version", INT),
    Field("objective", ARRAY),
    Field("threshold", FLOAT),
    Field("leaves", PHASES),
    Field("leaf_duals", DUALS, None, get=_packed_duals),
    Field("block_dims", ListOf(INT)),
    Field("structural_fp", STR),
    Field("config_digest", STR),
    Field("lp_solves", INT, 0),
)


def certificate_to_json(cert: Any, **dumps_kwargs: Any) -> str:
    """Canonical wire form of a :class:`repro.certs.Certificate`.

    ``sort_keys`` is forced: the serve-side store persists and compares
    these strings, so one certificate value must map to one byte string.
    The leaves travel as one packed int8 phase matrix (since wire v4) and
    the per-leaf duals -- most of the payload -- as one packed
    little-endian float64 matrix (since v3), rather than as JSON lists.
    This is the *only* form certificate payloads travel in between
    modules (the ``cert-discipline`` lint rule holds callers to it).
    """
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(CERTIFICATE.encode(cert), allow_nan=False,
                      **dumps_kwargs)


def certificate_from_json(text: str) -> Any:
    """Inverse of :func:`certificate_to_json`.

    Raises :class:`SerializationError` on structural garbage (a v3
    payload, whose leaves are per-leaf triples, is garbage here).  The
    decoded leaves and duals are read-only views into one int8 and one
    float64 buffer.  Callers replaying *untrusted* store content should go
    through :func:`repro.certs.load_certificate`, which funnels every
    malformation into one rejection path.
    """
    return CERTIFICATE.decode(_json_loads(text, "certificate"))


# ----------------------------------------------------------------- verdicts
PROVENANCE = Record(
    "provenance", Provenance,
    Field("elapsed", FLOAT),
    Field("lp_solves", INT),
    Field("nodes", INT),
    Field("rounds", INT),
    Field("workers", INT),
    Field("encoding_reuse", MapOf(INT), {}),
    Field("cached", BOOL, False),
    # Pre-certificate wire documents lack these keys.
    Field("nodes_reused", INT, 0),
    Field("lp_solves_saved", INT, 0),
    Field("cert_hit", BOOL, False),
)

#: A branch-and-bound result.  ``workers`` is the configured pool width,
#: which never changes the search; ``nodes_reused``/``lp_solves_saved``
#: are one run's warm-start economics.
BAB_RESULT = Record(
    "result", BaBResult,
    Field("status", OneOf(*BAB_STATUSES)),
    Field("upper_bound", FLOAT),
    Field("incumbent", FLOAT),
    Field("witness", Nullable(ARRAY), None),
    Field("nodes", INT),
    Field("lp_solves", INT),
    Field("rounds", INT, 0),
    Field("max_batch", INT, 0),
    Field("mean_batch", FLOAT, 0.0),
    Field("workers", INT, DEFAULT_WORKERS, bookkeeping=True),
    Field("nodes_reused", INT, 0, bookkeeping=True),
    Field("lp_solves_saved", INT, 0, bookkeeping=True),
)

CONTAINMENT_RESULT = Record(
    "containment", ContainmentResult,
    Field("holds", HOLDS),
    # Any label: stored verdicts carry retired method names.
    Field("method", STR),
    Field("counterexample", Nullable(ARRAY), None),
    Field("violation", FLOAT, 0.0),
    Field("elapsed", FLOAT, 0.0, bookkeeping=True),
    Field("lp_solves", INT, 0),
    Field("nodes", INT, 0),
    Field("detail", STR, ""),
)

SUBPROBLEM = Record(
    "subproblem", SubproblemReport,
    Field("name", STR),
    Field("holds", HOLDS),
    Field("elapsed", FLOAT, bookkeeping=True),
    Field("detail", STR, ""),
    Field("lp_solves", INT, 0),
)

PROPOSITION_RESULT = Record(
    "proposition", PropositionResult,
    Field("proposition", OneOf(*PROPOSITIONS)),
    Field("holds", HOLDS),
    Field("subproblems", ListOf(SUBPROBLEM), []),
    Field("elapsed", FLOAT, 0.0, bookkeeping=True),
    Field("detail", STR, ""),
)

CONTINUOUS_RESULT = Record(
    "continuous", ContinuousResult,
    Field("holds", HOLDS),
    Field("strategy", OneOf(*CONTINUOUS_STRATEGIES)),
    Field("attempts", ListOf(PROPOSITION_RESULT), []),
    Field("fixing", Nullable(Record(
        "fixing", FixingResult,
        Field("holds", HOLDS),
        Field("strategy", OneOf(*FIXING_STRATEGIES)),
        Field("replaced_layer", Nullable(INT), None),
        Field("reentry_layer", Nullable(INT), None),
        Field("subproblems", ListOf(SUBPROBLEM), []),
        Field("elapsed", FLOAT, 0.0, bookkeeping=True),
    )), None),
    Field("elapsed", FLOAT, 0.0, bookkeeping=True),
    Field("winning_max_subproblem_time", FLOAT, 0.0, bookkeeping=True),
    Field("winning_time", FLOAT, 0.0, bookkeeping=True),
    Field("encoding_reuse", MapOf(INT), {}, bookkeeping=True),
    Field("nodes_reused", INT, 0, bookkeeping=True),
    Field("lp_solves_saved", INT, 0, bookkeeping=True),
)

BASELINE_OUTCOME = Record(
    "baseline", BaselineOutcome,
    Field("holds", HOLDS),
    Field("artifacts", ARTIFACTS),
    Field("elapsed", FLOAT, bookkeeping=True),
    Field("detail", STR, ""),
    Field("lp_solves", INT, 0),
    Field("nodes", INT, 0),
)


def _verdict(tag: str, cls: type, *payload: Field) -> Record:
    """A verdict envelope: the fields every verdict shares, then its
    type-specific payload.  ``provenance`` describes how long, how cached
    and how wide one run was, not what the answer is."""
    return Record(f"{tag} verdict", cls,
                  Field("spec_type", STR),
                  Field("holds", HOLDS),
                  Field("detail", STR, ""),
                  Field("provenance", PROVENANCE, bookkeeping=True),
                  *payload)


VERDICT = Tagged("verdict", "verdict", {
    "containment": _verdict("containment", ContainmentVerdict,
                            Field("result", CONTAINMENT_RESULT)),
    "range": _verdict("range", RangeVerdict, Field("output_range", BOX)),
    "threshold": _verdict(
        "threshold", ThresholdVerdict, Field("result", BAB_RESULT),
        # The covering leaves of the proof (not the store's fields).
        Field("certificate", Nullable(Record(
            "certificate", _verdict_certificate,
            Field("objective", ARRAY),
            Field("threshold", FLOAT),
            Field("leaves", PHASES),
            Field("block_dims", ListOf(INT)),
        )), None)),
    "maximize": _verdict("maximize", MaximizeVerdict,
                         Field("result", BAB_RESULT)),
    "proposition": _verdict("proposition", PropositionVerdict,
                            Field("result", PROPOSITION_RESULT)),
    "continuous": _verdict("continuous", ContinuousVerdict,
                           Field("result", CONTINUOUS_RESULT)),
    "baseline": _verdict("baseline", BaselineVerdict,
                         Field("result", BASELINE_OUTCOME)),
    "failed": _verdict("failed", FailedVerdict, Field("error", STR, ""),
                       Field("error_type", STR, "")),
})

#: Wire tag <-> Verdict class name.
VERDICT_TAGS = {tag: record.build.__name__
                for tag, record in VERDICT.records.items()}


def verdict_to_dict(verdict: Any) -> Dict:
    """The JSON-safe wire form of any :class:`~repro.api.verdict.Verdict`.

    The envelope is ``{"verdict": <tag>, "spec_type", "holds", "detail",
    "provenance", ...payload}`` -- strict RFC-8259 like the Spec wire form
    (non-finite floats travel as ``"inf"``/``"-inf"``/``"nan"`` strings),
    so remote executors can ship verdicts back over any JSON channel.
    """
    data: Dict = VERDICT.encode(verdict)
    return data


def verdict_from_dict(data: Any) -> Any:
    """Inverse of :func:`verdict_to_dict`."""
    return VERDICT.decode(data)


def verdict_to_json(verdict: Any, **dumps_kwargs: Any) -> str:
    """``json.dumps`` of :func:`verdict_to_dict` (strict RFC-8259)."""
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(verdict_to_dict(verdict), allow_nan=False,
                      **dumps_kwargs)


def verdict_from_json(text: str) -> Any:
    """Inverse of :func:`verdict_to_json`."""
    return verdict_from_dict(_json_loads(text, "verdict"))


def canonical_verdict_json(verdict: Any) -> str:
    """The *value* of a verdict as one canonical byte string.

    The fields the tables mark as run bookkeeping -- the ``provenance``
    envelope, each result's own ``elapsed`` and timings, cache counters,
    warm-start economics and a branch-and-bound result's pool width --
    describe a particular run, not the answer; they are dropped so the
    same spec solved directly, over HTTP, replayed from the verdict
    cache, or on any pool width compares byte-identical.  Free-form
    content such as ``artifacts.notes`` is kept whole.
    """
    return json.dumps(VERDICT.encode(verdict, canonical=True),
                      allow_nan=False, sort_keys=True)


def verdict_decision_json(verdict: Any) -> str:
    """The *decision* of a verdict as one canonical byte string.

    Even the canonical form keeps the full result payload -- LP counts,
    search-derived bounds, witnesses -- which are properties of one search
    *trajectory*.  A warm-started delta verification re-proves the same
    property along a different trajectory (that is the point), so its
    soundness gate compares decisions: what was asked, what was answered,
    and how the solver terminated.  Everything else is cost, not answer.

    The decision is the wire tag, ``spec_type``, ``holds`` and, for the
    branch-and-bound verdicts (``threshold``/``maximize``), the search's
    ``result.status`` -- read straight off the verdict, without building
    the :func:`verdict_to_dict` payload, and byte-identical to projecting
    these four keys out of it.
    """
    tag = VERDICT.tag_of(verdict)
    decision = {
        "verdict": tag,
        "spec_type": verdict.spec_type,
        "holds": verdict.holds,
    }
    if tag in ("threshold", "maximize"):
        status = verdict.result.status
        if verdict.holds is True and status in ("optimal",
                                                "threshold_proved"):
            # Both statuses certify the same decision (bound at or below
            # the threshold); which one a search lands on depends on
            # whether the optimality gap or the threshold prune closes
            # first -- trajectory, not answer.
            status = "proved"
        decision["status"] = status
    return json.dumps(decision, allow_nan=False, sort_keys=True)
