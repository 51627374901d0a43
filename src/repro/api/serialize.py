"""JSON-safe encodings of the object model the Specs reference.

Spec files must survive ``json.dumps`` / ``json.loads`` byte-exactly --
*and* be readable by non-Python peers (the ROADMAP plans remote executors
speaking this wire form) -- so everything here maps to strict RFC-8259
JSON:

* arrays -> nested lists (Python's ``json`` emits ``repr``-style doubles,
  which round-trip binary64 exactly); non-finite values, legal for box
  bounds and recorded timings, are encoded as the strings ``"inf"`` /
  ``"-inf"`` / ``"nan"`` instead of the non-standard ``Infinity``/``NaN``
  tokens (``float()`` parses them back exactly);
* networks -> ``{"input_dim", "layers": [{"class", "config", "arrays"}]}``
  reusing each layer's own ``config()`` / ``arrays()`` contract (the same
  one the ``.npz`` serializer trusts);
* proof artifacts -> the :func:`repro.core.artifacts.save_artifacts`
  layout transliterated to JSON, with the network abstraction stored as
  its deterministic build recipe.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import SerializationError
from repro.domains.box import Box
from repro.nn.network import Network
from repro.nn.serialize import _LAYER_CLASSES
from repro.core.artifacts import (
    LipschitzCertificate,
    ProofArtifacts,
    StateAbstractions,
)
from repro.core.problem import VerificationProblem

__all__ = [
    "float_to_jsonable",
    "array_to_jsonable",
    "array_from_jsonable",
    "box_to_jsonable",
    "box_from_jsonable",
    "network_to_jsonable",
    "network_from_jsonable",
    "artifacts_to_jsonable",
    "artifacts_from_jsonable",
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


# ------------------------------------------------------------------- floats
def float_to_jsonable(value: float):
    """A strict-JSON scalar: the float itself, or ``"inf"``/``"-inf"``/
    ``"nan"`` for the values RFC 8259 cannot carry (``float()`` inverts)."""
    value = float(value)
    return value if math.isfinite(value) else str(value)


def _encode_nested(values):
    if isinstance(values, list):
        return [_encode_nested(v) for v in values]
    return float_to_jsonable(values)


# ------------------------------------------------------------------- arrays
def array_to_jsonable(arr: np.ndarray) -> list:
    arr = np.asarray(arr, dtype=np.float64)
    nested = arr.tolist()
    if np.isfinite(arr).all():
        return nested
    return _encode_nested(nested)


def array_from_jsonable(data) -> np.ndarray:
    # np.float64 parses the "inf"/"-inf"/"nan" string encoding directly.
    return np.asarray(data, dtype=np.float64)


# -------------------------------------------------------------------- boxes
def box_to_jsonable(box: Box) -> Dict:
    return {"lower": array_to_jsonable(box.lower),
            "upper": array_to_jsonable(box.upper)}


def box_from_jsonable(data: Dict) -> Box:
    return Box(array_from_jsonable(data["lower"]),
               array_from_jsonable(data["upper"]))


# ----------------------------------------------------------------- networks
def network_to_jsonable(network: Network) -> Dict:
    return {
        "input_dim": int(network.input_dim),
        "layers": [
            {
                "class": type(layer).__name__,
                "config": layer.config(),
                "arrays": {name: array_to_jsonable(arr)
                           for name, arr in layer.arrays().items()},
            }
            for layer in network.layers
        ],
    }


#: Layer ``config()`` entries that are integer sizes (checked as wire
#: counts before a layer constructor sees them).
_INT_LAYER_CONFIG = frozenset({"in_dim", "out_dim", "in_channels",
                               "out_channels", "kernel_size", "stride",
                               "pool_size"})


def network_from_jsonable(data: Dict) -> Network:
    layers = []
    for spec in data["layers"]:
        cls_name = spec["class"]
        if cls_name not in _LAYER_CLASSES:
            raise SerializationError(f"unknown layer class {cls_name!r}")
        arrays = {name: array_from_jsonable(arr)
                  for name, arr in spec["arrays"].items()}
        config = spec["config"]
        for name in _INT_LAYER_CONFIG.intersection(config):
            _wire_int(config[name], f"{cls_name} config {name}")
        layers.append(_LAYER_CLASSES[cls_name]._from_parts(config, arrays))
    return Network(layers,
                   input_dim=_wire_int(data["input_dim"], "network input_dim"))


# ---------------------------------------------------------------- artifacts
def artifacts_to_jsonable(artifacts: ProofArtifacts) -> Dict:
    """JSON twin of :func:`repro.core.artifacts.save_artifacts`."""
    data: Dict = {
        "problem": {
            "network": network_to_jsonable(artifacts.problem.network),
            "din": box_to_jsonable(artifacts.problem.din),
            "dout": box_to_jsonable(artifacts.problem.dout),
        },
        "states_prove_safety": bool(artifacts.states_prove_safety),
        "original_time": float_to_jsonable(artifacts.original_time),
        "notes": dict(artifacts.notes),
        "states": None,
        "lipschitz": None,
        "netabs": None,
        "output_range": None,
    }
    if artifacts.states is not None:
        data["states"] = {
            "domain": artifacts.states.domain,
            "boxes": [box_to_jsonable(b) for b in artifacts.states.boxes],
        }
    if artifacts.lipschitz is not None:
        data["lipschitz"] = {
            # ell is validated finite, but ord=inf (the L∞ norm) is legal.
            "ell": float_to_jsonable(artifacts.lipschitz.ell),
            "ord": float_to_jsonable(artifacts.lipschitz.ord),
            "method": artifacts.lipschitz.method,
        }
    if artifacts.network_abstraction is not None:
        absn = artifacts.network_abstraction
        data["netabs"] = {
            "num_groups": int(absn.num_groups),
            "margin": float(absn.margin),
        }
    if artifacts.output_range is not None:
        data["output_range"] = box_to_jsonable(artifacts.output_range)
    return data


def artifacts_from_jsonable(data: Dict) -> ProofArtifacts:
    network = network_from_jsonable(data["problem"]["network"])
    problem = VerificationProblem(
        network=network,
        din=box_from_jsonable(data["problem"]["din"]),
        dout=box_from_jsonable(data["problem"]["dout"]),
    )
    states = None
    if data.get("states") is not None:
        states = StateAbstractions(
            boxes=[box_from_jsonable(b) for b in data["states"]["boxes"]],
            domain=data["states"]["domain"],
        )
    lipschitz = None
    if data.get("lipschitz") is not None:
        lip = data["lipschitz"]
        lipschitz = LipschitzCertificate(
            ell=float(lip["ell"]), ord=float(lip["ord"]), method=lip["method"])
    netabs = None
    if data.get("netabs") is not None:
        from repro.netabs.abstraction import build_abstraction

        recipe = data["netabs"]
        netabs = build_abstraction(network, problem.din,
                                   num_groups=_wire_int(recipe["num_groups"],
                                                        "netabs num_groups"),
                                   margin=float(recipe["margin"]))
    output_range = None
    if data.get("output_range") is not None:
        output_range = box_from_jsonable(data["output_range"])
    return ProofArtifacts(
        problem=problem,
        states=states,
        lipschitz=lipschitz,
        network_abstraction=netabs,
        output_range=output_range,
        states_prove_safety=bool(data["states_prove_safety"]),
        original_time=float(data["original_time"]),
        notes=dict(data.get("notes", {})),
    )


# ------------------------------------------------------------------ configs
def config_to_json(config, **dumps_kwargs) -> str:
    """Canonical JSON of a :class:`~repro.api.config.VerifyConfig`.

    ``sort_keys`` is forced so one config value maps to one byte string --
    the serving layer fingerprints ``(spec, config)`` pairs with this.
    """
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(config.to_dict(), allow_nan=False, **dumps_kwargs)


def _json_loads(text: str, what: str) -> Any:
    """``json.loads`` for wire documents: nesting too deep for the parser
    is a malformed document (a permanent :class:`SerializationError`),
    never a bare :class:`RecursionError` a retry loop would take for a
    transient fault."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SerializationError(
            f"{what} JSON is nested too deeply to decode") from None


def config_from_json(text: str):
    """Inverse of :func:`config_to_json` (unknown keys rejected loudly)."""
    from repro.api.config import VerifyConfig

    data = _json_loads(text, "config")
    if not isinstance(data, dict):
        raise SerializationError(
            f"a VerifyConfig document must be a JSON object, got "
            f"{type(data).__name__}")
    return VerifyConfig.from_dict(data)


# ------------------------------------------------------------- certificates
def _phase_leaves_to_jsonable(leaves: np.ndarray, widths) -> list:
    """Per-leaf ``[block, unit, phase]`` triples of a phase matrix, in
    column -- i.e. sorted ``(block, unit)`` -- order, so one leaf set has
    one canonical byte form."""
    from repro.exact.encoding import phase_columns

    rows, cols = np.nonzero(leaves)
    blocks, units = phase_columns(widths)
    triples = np.stack([blocks[cols], units[cols],
                        leaves[rows, cols].astype(np.int64)], axis=1).tolist()
    ends = np.searchsorted(rows, np.arange(len(leaves) + 1)).tolist()
    return [triples[a:b] for a, b in zip(ends[:-1], ends[1:])]


def _wire_phase(value) -> int:
    """A fixed neuron's phase: the JSON integer -1 or +1."""
    if type(value) is not int or value not in (1, -1):
        raise SerializationError(
            f"certificate leaves: a phase must be -1 or +1, got {value!r}")
    return value


def _phase_leaves_from_jsonable(data, widths) -> np.ndarray:
    from repro.exact.encoding import phase_matrix
    from repro.errors import DomainError

    try:
        return phase_matrix([{(_wire_int(layer, "certificate leaf block"),
                               _wire_int(unit, "certificate leaf unit")):
                              _wire_phase(phase)
                              for layer, unit, phase in leaf}
                             for leaf in data], widths)
    except DomainError as exc:
        raise SerializationError(f"certificate leaves: {exc}") from None


def _wire_int(value, name: str) -> int:
    """A non-negative integer wire count, or :class:`SerializationError`
    (never the transient ``OverflowError`` of ``int(1e400)``)."""
    # bool is an int subclass; a JSON true is not a count.
    if type(value) is not int or value < 0:
        raise SerializationError(
            f"{name} must be a non-negative integer, got {value!r}")
    return value


def _wire_bytes(data, name: str) -> bytes:
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


def _phase_matrix_from_jsonable(data) -> np.ndarray:
    """Inverse of :func:`_phase_matrix_to_jsonable`: a read-only
    ``np.frombuffer`` view, rejected unless it holds at least one row of
    values in {-1, 0, 1}."""
    if not isinstance(data, dict):
        raise SerializationError(
            "leaves must be a packed object with width and data "
            f"(certificate wire v4), got {type(data).__name__}")
    width = _wire_int(data["width"], "leaves width")
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


def _leaf_duals_to_jsonable(duals) -> Dict:
    """A :class:`~repro.exact.encoding.PackedDuals` as one object:
    ``present`` flags the leaves that carry multipliers, every present row
    is ``dual_ub`` followed by ``dual_eq`` split at ``split``, and
    ``data`` is the base64 of the row-major float64 matrix."""
    matrix = np.ascontiguousarray(duals.matrix, dtype=_DUAL_DTYPE)
    return {"present": duals.present.astype(int).tolist(),
            "split": int(duals.split), "width": int(matrix.shape[1]),
            "data": base64.b64encode(matrix.tobytes()).decode("ascii")}


def _leaf_duals_from_jsonable(data):
    """Inverse of :func:`_leaf_duals_to_jsonable`; the matrix is a
    read-only ``np.frombuffer`` view."""
    from repro.exact.encoding import PackedDuals

    if not isinstance(data, dict):
        raise SerializationError(
            "leaf_duals must be a packed object with present, split, "
            f"width and data (certificate wire v3), got "
            f"{type(data).__name__}")
    present = data["present"]
    if not isinstance(present, list) or \
            any(type(p) is not int or p not in (0, 1) for p in present):
        raise SerializationError(
            "leaf_duals present must be a list of 0/1 flags")
    split = _wire_int(data["split"], "leaf_duals split")
    width = _wire_int(data["width"], "leaf_duals width")
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


def certificate_to_json(cert, **dumps_kwargs) -> str:
    """Canonical wire form of a :class:`repro.certs.Certificate`.

    ``sort_keys`` is forced: the serve-side store persists and compares
    these strings, so one certificate value must map to one byte string.
    The leaves travel as one packed int8 phase matrix (wire v4,
    :func:`_phase_matrix_to_jsonable`) and the per-leaf duals -- most of
    the payload -- as one packed little-endian float64 matrix (since v3,
    :func:`_leaf_duals_to_jsonable`), rather than as JSON lists.
    This is the *only* form certificate payloads travel in between
    modules (the ``cert-discipline`` lint rule holds callers to it).
    """
    from repro.exact.encoding import PackedDuals

    duals = cert.leaf_duals
    if duals is None:
        duals = PackedDuals.pack([None] * len(cert.leaves))
    data = {
        "version": int(cert.version),
        "objective": array_to_jsonable(cert.objective),
        "threshold": float_to_jsonable(cert.threshold),
        "leaves": _phase_matrix_to_jsonable(cert.leaves),
        "leaf_bounds": [float_to_jsonable(b) for b in cert.leaf_bounds],
        "leaf_verdicts": [str(v) for v in cert.leaf_verdicts],
        "leaf_duals": _leaf_duals_to_jsonable(duals),
        "block_dims": [int(d) for d in cert.block_dims],
        "structural_fp": str(cert.structural_fp),
        "content_fp": str(cert.content_fp),
        "config_digest": str(cert.config_digest),
        "status": str(cert.status),
        "upper_bound": float_to_jsonable(cert.upper_bound),
        "lp_solves": int(cert.lp_solves),
    }
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(data, allow_nan=False, **dumps_kwargs)


def certificate_from_json(text: str):
    """Inverse of :func:`certificate_to_json`.

    Raises :class:`SerializationError` on structural garbage (a v3
    payload, whose leaves are per-leaf triples, is garbage here); numeric
    fields parse strictly.  The decoded leaves and duals are read-only
    views into one int8 and one float64 buffer.  Callers replaying
    *untrusted* store content should go through
    :func:`repro.certs.load_certificate`, which funnels every malformation
    into one rejection path.
    """
    from repro.certs.certificate import Certificate

    data = json.loads(text)
    if not isinstance(data, dict):
        raise SerializationError(
            f"a certificate document must be a JSON object, got "
            f"{type(data).__name__}")
    leaves = _phase_matrix_from_jsonable(data["leaves"])
    leaf_duals = None
    if "leaf_duals" in data:
        leaf_duals = _leaf_duals_from_jsonable(data["leaf_duals"])
    if leaf_duals is not None and len(leaf_duals) != len(leaves):
        raise SerializationError(
            f"leaf_duals present mask has {len(leaf_duals)} flags for "
            f"{len(leaves)} leaves")
    return Certificate(
        objective=array_from_jsonable(data["objective"]),
        threshold=float(data["threshold"]),
        leaves=leaves,
        leaf_bounds=[float(b) for b in data.get("leaf_bounds", [])],
        leaf_verdicts=[str(v) for v in data.get("leaf_verdicts", [])],
        leaf_duals=leaf_duals,
        block_dims=[int(d) for d in data["block_dims"]],
        structural_fp=str(data["structural_fp"]),
        content_fp=str(data.get("content_fp", "")),
        config_digest=str(data["config_digest"]),
        status=str(data.get("status", "")),
        upper_bound=float(data.get("upper_bound", 0.0)),
        lp_solves=int(data.get("lp_solves", 0)),
        version=int(data["version"]),
    )


# ----------------------------------------------------------------- verdicts
#: Wire tag <-> Verdict class name (classes resolved lazily; the verdict
#: module sits above the solver layers this module must not eagerly pull).
VERDICT_TAGS = {
    "containment": "ContainmentVerdict",
    "range": "RangeVerdict",
    "threshold": "ThresholdVerdict",
    "maximize": "MaximizeVerdict",
    "proposition": "PropositionVerdict",
    "continuous": "ContinuousVerdict",
    "baseline": "BaselineVerdict",
    "failed": "FailedVerdict",
}


def _provenance_to_jsonable(prov) -> Dict:
    return {
        "elapsed": float_to_jsonable(prov.elapsed),
        "lp_solves": int(prov.lp_solves),
        "nodes": int(prov.nodes),
        "rounds": int(prov.rounds),
        "workers": int(prov.workers),
        "encoding_reuse": {str(k): int(v)
                           for k, v in prov.encoding_reuse.items()},
        "cached": bool(prov.cached),
        "nodes_reused": int(prov.nodes_reused),
        "lp_solves_saved": int(prov.lp_solves_saved),
        "cert_hit": bool(prov.cert_hit),
    }


def _provenance_from_jsonable(data: Dict):
    from repro.api.verdict import Provenance

    return Provenance(
        elapsed=float(data["elapsed"]),
        lp_solves=_wire_int(data["lp_solves"], "provenance lp_solves"),
        nodes=_wire_int(data["nodes"], "provenance nodes"),
        rounds=_wire_int(data["rounds"], "provenance rounds"),
        workers=_wire_int(data["workers"], "provenance workers"),
        encoding_reuse={str(k): _wire_int(v, f"encoding_reuse {k}")
                        for k, v in data.get("encoding_reuse", {}).items()},
        cached=bool(data.get("cached", False)),
        # .get defaults: pre-certificate wire documents lack these keys.
        nodes_reused=_wire_int(data.get("nodes_reused", 0),
                               "provenance nodes_reused"),
        lp_solves_saved=_wire_int(data.get("lp_solves_saved", 0),
                                  "provenance lp_solves_saved"),
        cert_hit=bool(data.get("cert_hit", False)),
    )


def _opt_array_to_jsonable(arr) -> Optional[list]:
    return None if arr is None else array_to_jsonable(arr)


def _opt_array_from_jsonable(data) -> Optional[np.ndarray]:
    return None if data is None else array_from_jsonable(data)


def _bab_result_to_jsonable(result) -> Dict:
    return {
        "status": result.status,
        "upper_bound": float_to_jsonable(result.upper_bound),
        "incumbent": float_to_jsonable(result.incumbent),
        "witness": _opt_array_to_jsonable(result.witness),
        "nodes": int(result.nodes),
        "lp_solves": int(result.lp_solves),
        "rounds": int(result.rounds),
        "max_batch": int(result.max_batch),
        "mean_batch": float_to_jsonable(result.mean_batch),
        "workers": int(result.workers),
        "nodes_reused": int(result.nodes_reused),
        "lp_solves_saved": int(result.lp_solves_saved),
    }


def _bab_result_from_jsonable(data: Dict):
    from repro.exact.bab import BaBResult

    return BaBResult(
        status=data["status"],
        upper_bound=float(data["upper_bound"]),
        incumbent=float(data["incumbent"]),
        witness=_opt_array_from_jsonable(data.get("witness")),
        nodes=_wire_int(data["nodes"], "result nodes"),
        lp_solves=_wire_int(data["lp_solves"], "result lp_solves"),
        rounds=_wire_int(data.get("rounds", 0), "result rounds"),
        max_batch=_wire_int(data.get("max_batch", 0), "result max_batch"),
        mean_batch=float(data.get("mean_batch", 0.0)),
        workers=_wire_int(data.get("workers", 1), "result workers"),
        nodes_reused=_wire_int(data.get("nodes_reused", 0),
                               "result nodes_reused"),
        lp_solves_saved=_wire_int(data.get("lp_solves_saved", 0),
                                  "result lp_solves_saved"),
    )


def _containment_result_to_jsonable(result) -> Dict:
    return {
        "holds": result.holds,
        "method": result.method,
        "counterexample": _opt_array_to_jsonable(result.counterexample),
        "violation": float_to_jsonable(result.violation),
        "elapsed": float_to_jsonable(result.elapsed),
        "lp_solves": int(result.lp_solves),
        "nodes": int(result.nodes),
        "detail": result.detail,
    }


def _containment_result_from_jsonable(data: Dict):
    from repro.exact.verify import ContainmentResult

    return ContainmentResult(
        holds=data["holds"],
        method=data["method"],
        counterexample=_opt_array_from_jsonable(data.get("counterexample")),
        violation=float(data.get("violation", 0.0)),
        elapsed=float(data.get("elapsed", 0.0)),
        lp_solves=_wire_int(data.get("lp_solves", 0),
                            "containment lp_solves"),
        nodes=_wire_int(data.get("nodes", 0), "containment nodes"),
        detail=data.get("detail", ""),
    )


def _certificate_to_jsonable(cert) -> Dict:
    return {
        "objective": array_to_jsonable(cert.objective),
        "threshold": float_to_jsonable(cert.threshold),
        "leaves": _phase_leaves_to_jsonable(cert.leaves,
                                            cert.block_dims[1:]),
        "block_dims": [int(d) for d in cert.block_dims],
    }


def _certificate_from_jsonable(data: Dict):
    from repro.exact.incremental import BranchCertificate

    block_dims = [_wire_int(d, "certificate block_dims entry")
                  for d in data["block_dims"]]
    return BranchCertificate(
        objective=array_from_jsonable(data["objective"]),
        threshold=float(data["threshold"]),
        leaves=_phase_leaves_from_jsonable(data["leaves"], block_dims[1:]),
        block_dims=block_dims,
    )


def _subproblem_to_jsonable(sub) -> Dict:
    return {
        "name": sub.name,
        "holds": sub.holds,
        "elapsed": float_to_jsonable(sub.elapsed),
        "detail": sub.detail,
        "lp_solves": int(sub.lp_solves),
    }


def _subproblem_from_jsonable(data: Dict):
    from repro.core.propositions import SubproblemReport

    return SubproblemReport(
        name=data["name"],
        holds=data["holds"],
        elapsed=float(data["elapsed"]),
        detail=data.get("detail", ""),
        lp_solves=_wire_int(data.get("lp_solves", 0), "subproblem lp_solves"),
    )


def _proposition_result_to_jsonable(result) -> Dict:
    return {
        "proposition": result.proposition,
        "holds": result.holds,
        "subproblems": [_subproblem_to_jsonable(s)
                        for s in result.subproblems],
        "elapsed": float_to_jsonable(result.elapsed),
        "detail": result.detail,
    }


def _proposition_result_from_jsonable(data: Dict):
    from repro.core.propositions import PropositionResult

    return PropositionResult(
        proposition=data["proposition"],
        holds=data["holds"],
        subproblems=[_subproblem_from_jsonable(s)
                     for s in data.get("subproblems", [])],
        elapsed=float(data.get("elapsed", 0.0)),
        detail=data.get("detail", ""),
    )


def _fixing_result_to_jsonable(result) -> Optional[Dict]:
    if result is None:
        return None
    return {
        "holds": result.holds,
        "strategy": result.strategy,
        "replaced_layer": result.replaced_layer,
        "reentry_layer": result.reentry_layer,
        "subproblems": [_subproblem_to_jsonable(s)
                        for s in result.subproblems],
        "elapsed": float_to_jsonable(result.elapsed),
    }


def _fixing_result_from_jsonable(data) -> Optional[object]:
    if data is None:
        return None
    from repro.core.fixing import FixingResult

    return FixingResult(
        holds=data["holds"],
        strategy=data["strategy"],
        replaced_layer=data.get("replaced_layer"),
        reentry_layer=data.get("reentry_layer"),
        subproblems=[_subproblem_from_jsonable(s)
                     for s in data.get("subproblems", [])],
        elapsed=float(data.get("elapsed", 0.0)),
    )


def _continuous_result_to_jsonable(result) -> Dict:
    return {
        "holds": result.holds,
        "strategy": result.strategy,
        "attempts": [_proposition_result_to_jsonable(a)
                     for a in result.attempts],
        "fixing": _fixing_result_to_jsonable(result.fixing),
        "elapsed": float_to_jsonable(result.elapsed),
        "winning_max_subproblem_time":
            float_to_jsonable(result.winning_max_subproblem_time),
        "winning_time": float_to_jsonable(result.winning_time),
        "encoding_reuse": {str(k): int(v)
                           for k, v in result.encoding_reuse.items()},
        "nodes_reused": int(result.nodes_reused),
        "lp_solves_saved": int(result.lp_solves_saved),
    }


def _continuous_result_from_jsonable(data: Dict):
    from repro.core.continuous import ContinuousResult

    return ContinuousResult(
        holds=data["holds"],
        strategy=data["strategy"],
        attempts=[_proposition_result_from_jsonable(a)
                  for a in data.get("attempts", [])],
        fixing=_fixing_result_from_jsonable(data.get("fixing")),
        elapsed=float(data.get("elapsed", 0.0)),
        winning_max_subproblem_time=float(
            data.get("winning_max_subproblem_time", 0.0)),
        winning_time=float(data.get("winning_time", 0.0)),
        encoding_reuse={str(k): _wire_int(v, f"continuous encoding_reuse {k}")
                        for k, v in data.get("encoding_reuse", {}).items()},
        nodes_reused=_wire_int(data.get("nodes_reused", 0),
                               "continuous nodes_reused"),
        lp_solves_saved=_wire_int(data.get("lp_solves_saved", 0),
                                  "continuous lp_solves_saved"),
    )


def _baseline_outcome_to_jsonable(outcome) -> Dict:
    return {
        "holds": outcome.holds,
        "artifacts": artifacts_to_jsonable(outcome.artifacts),
        "elapsed": float_to_jsonable(outcome.elapsed),
        "detail": outcome.detail,
        "lp_solves": int(outcome.lp_solves),
        "nodes": int(outcome.nodes),
    }


def _baseline_outcome_from_jsonable(data: Dict):
    from repro.core.verifier import BaselineOutcome

    return BaselineOutcome(
        holds=data["holds"],
        artifacts=artifacts_from_jsonable(data["artifacts"]),
        elapsed=float(data["elapsed"]),
        detail=data.get("detail", ""),
        lp_solves=_wire_int(data.get("lp_solves", 0), "baseline lp_solves"),
        nodes=_wire_int(data.get("nodes", 0), "baseline nodes"),
    )


def _verdict_tag(verdict) -> str:
    """The wire tag of a Verdict's exact class, or SerializationError."""
    from repro.api import verdict as verdict_module

    for tag, cls_name in VERDICT_TAGS.items():
        if type(verdict) is getattr(verdict_module, cls_name):
            return tag
    raise SerializationError(
        f"not a wire-serializable Verdict: {type(verdict).__name__}")


def verdict_to_dict(verdict) -> Dict:
    """The JSON-safe wire form of any :class:`~repro.api.verdict.Verdict`.

    The envelope is ``{"verdict": <tag>, "spec_type", "holds", "detail",
    "provenance", ...payload}`` -- strict RFC-8259 like the Spec wire form
    (non-finite floats travel as ``"inf"``/``"-inf"``/``"nan"`` strings),
    so remote executors can ship verdicts back over any JSON channel.
    """
    tag = _verdict_tag(verdict)
    data: Dict = {
        "verdict": tag,
        "spec_type": verdict.spec_type,
        "holds": verdict.holds,
        "detail": verdict.detail,
        "provenance": _provenance_to_jsonable(verdict.provenance),
    }
    if tag == "containment":
        data["result"] = _containment_result_to_jsonable(verdict.result)
    elif tag == "range":
        data["output_range"] = box_to_jsonable(verdict.output_range)
    elif tag == "threshold":
        data["result"] = _bab_result_to_jsonable(verdict.result)
        data["certificate"] = (
            None if verdict.certificate is None
            else _certificate_to_jsonable(verdict.certificate))
    elif tag == "maximize":
        data["result"] = _bab_result_to_jsonable(verdict.result)
    elif tag == "proposition":
        data["result"] = _proposition_result_to_jsonable(verdict.result)
    elif tag == "continuous":
        data["result"] = _continuous_result_to_jsonable(verdict.result)
    elif tag == "baseline":
        data["result"] = _baseline_outcome_to_jsonable(verdict.result)
    else:  # failed
        data["error"] = verdict.error
        data["error_type"] = verdict.error_type
    return data


def verdict_from_dict(data: Dict):
    """Inverse of :func:`verdict_to_dict`."""
    from repro.api import verdict as verdict_module

    try:
        tag = data["verdict"]
    except (TypeError, KeyError):
        raise SerializationError(
            'a verdict dict needs a "verdict" tag '
            f"(one of {sorted(VERDICT_TAGS)})") from None
    if tag not in VERDICT_TAGS:
        raise SerializationError(
            f"unknown verdict type {tag!r}; known: {sorted(VERDICT_TAGS)}")
    cls = getattr(verdict_module, VERDICT_TAGS[tag])
    try:
        common = {
            "spec_type": data["spec_type"],
            "holds": data["holds"],
            "detail": data.get("detail", ""),
            "provenance": _provenance_from_jsonable(data["provenance"]),
        }
        if tag == "containment":
            return cls(result=_containment_result_from_jsonable(
                data["result"]), **common)
        if tag == "range":
            return cls(output_range=box_from_jsonable(data["output_range"]),
                       **common)
        if tag == "threshold":
            certificate = data.get("certificate")
            return cls(
                result=_bab_result_from_jsonable(data["result"]),
                certificate=None if certificate is None
                else _certificate_from_jsonable(certificate),
                **common)
        if tag == "maximize":
            return cls(result=_bab_result_from_jsonable(data["result"]),
                       **common)
        if tag == "proposition":
            return cls(result=_proposition_result_from_jsonable(
                data["result"]), **common)
        if tag == "continuous":
            return cls(result=_continuous_result_from_jsonable(
                data["result"]), **common)
        if tag == "baseline":
            return cls(result=_baseline_outcome_from_jsonable(
                data["result"]), **common)
        return cls(error=data.get("error", ""),
                   error_type=data.get("error_type", ""), **common)
    except KeyError as exc:
        raise SerializationError(
            f"verdict type {tag!r} is missing required key {exc.args[0]!r}"
        ) from None


def verdict_to_json(verdict, **dumps_kwargs) -> str:
    """``json.dumps`` of :func:`verdict_to_dict` (strict RFC-8259)."""
    dumps_kwargs.setdefault("sort_keys", True)
    return json.dumps(verdict_to_dict(verdict), allow_nan=False,
                      **dumps_kwargs)


def verdict_from_json(text: str):
    """Inverse of :func:`verdict_to_json`."""
    return verdict_from_dict(_json_loads(text, "verdict"))


#: Keys that describe *how long / how cached / how wide* a particular run
#: was, not what the answer is; stripped recursively by the canonical form.
#: ``nodes_reused``/``lp_solves_saved`` are warm-start economics embedded
#: in result payloads -- bookkeeping of one run, like ``elapsed``; a
#: branch-and-bound result's ``workers`` is the configured pool width, which
#: never changes the search (rounds are deterministic at any width).
_RUN_BOOKKEEPING_KEYS = frozenset({
    "provenance", "elapsed", "winning_time", "winning_max_subproblem_time",
    "original_time", "encoding_reuse", "nodes_reused", "lp_solves_saved",
    "workers",
})


def _strip_bookkeeping(value):
    if isinstance(value, dict):
        return {k: _strip_bookkeeping(v) for k, v in value.items()
                if k not in _RUN_BOOKKEEPING_KEYS}
    if isinstance(value, list):
        return [_strip_bookkeeping(v) for v in value]
    return value


def canonical_verdict_json(verdict) -> str:
    """The *value* of a verdict as one canonical byte string.

    Provenance and embedded timings (wall clocks, cache counters, pool
    width live under ``provenance``; legacy results also carry their own
    ``elapsed`` fields, branch-and-bound results their own ``workers``)
    are bookkeeping about a particular run, not part of the answer; they
    are stripped recursively so the same spec solved directly, over HTTP,
    replayed from the verdict cache, or on any pool width compares
    byte-identical.
    """
    return json.dumps(_strip_bookkeeping(verdict_to_dict(verdict)),
                      allow_nan=False, sort_keys=True)


def verdict_decision_json(verdict) -> str:
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
    tag = _verdict_tag(verdict)
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
