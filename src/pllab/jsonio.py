"""JSON and CSV front end of the command line: schemas, parsing, rendering.

Input documents and reports use the wire format of :mod:`pllab.wire`
(complex numbers as ``[re, im]`` pairs, row-major matrices, ``p = inf`` as
a string); this module re-exports its codecs.  Input is checked against a
JSON schema, and element entries, weights, generators and vertices must be
finite; a malformed document raises InputError with JSON-pointer
diagnostics.  Rendering is canonical so that identical jobs produce
byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json

import jsonschema
import numpy as np

from . import wire
from .hilbert import PairingMap, frobenius_norm
from .quantizations import Quantization
from .wire import canonical, complex_from_json, complex_to_json, matrix_to_json, p_to_json

__all__ = [
    "SCHEMA_VERSION",
    "InputError",
    "complex_to_json",
    "complex_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "canonical",
    "load_document",
    "validate_document",
    "parse_norm_job",
    "parse_pair_job",
    "render_json",
    "render_csv",
]

SCHEMA_VERSION = "1"


class InputError(ValueError):
    """Malformed input document; carries JSON-pointer diagnostics."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


def matrix_from_json(rows) -> np.ndarray:
    try:
        return wire.matrix_from_json(rows)
    except (TypeError, ValueError) as exc:
        raise InputError(f"element is not a [re, im] matrix: {exc}") from exc


# -- input documents --------------------------------------------------------

_PNUM = {"anyOf": [{"type": "number", "minimum": 1}, {"const": p_to_json(np.inf)}]}

_DEFS = {
    "complexnum": {
        "type": "array",
        "items": {"type": "number"},
        "minItems": 2,
        "maxItems": 2,
    },
    "matrix": {
        "type": "array",
        "minItems": 1,
        "items": {
            "type": "array",
            "minItems": 1,
            "items": {"$ref": "#/$defs/complexnum"},
        },
    },
    "base": {
        "type": "object",
        "required": ["kind", "dim"],
        "properties": {
            "kind": {"enum": ["euclidean", "lp", "polytope"]},
            "dim": {"type": "integer", "minimum": 1},
            "p": _PNUM,
            "weights": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 1,
            },
            "vertices": {"$ref": "#/$defs/matrix"},
            "real": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "quantization": {
        "type": "object",
        "required": ["kind"],
        "properties": {
            "kind": {
                "enum": ["min", "max", "hilbert", "lp", "concrete", "tensor_p"]
            },
            "dim": {"type": "integer", "minimum": 0},
            "params": {
                "type": "object",
                "properties": {
                    "base": {"$ref": "#/$defs/base"},
                    "p": _PNUM,
                    "weights": {
                        "type": "array",
                        "items": {"type": "number", "exclusiveMinimum": 0},
                        "minItems": 1,
                    },
                    "generators": {
                        "type": "array",
                        "items": {"$ref": "#/$defs/matrix"},
                        "minItems": 1,
                    },
                },
                "additionalProperties": False,
            },
            "inner": {"$ref": "#/$defs/quantization"},
        },
        "additionalProperties": False,
    },
}

_NORM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$defs": _DEFS,
    "type": "object",
    "required": ["schema_version", "quantization", "element"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "quantization": {"$ref": "#/$defs/quantization"},
        "element": {"$ref": "#/$defs/matrix"},
        "label": {"type": "string"},
    },
    "additionalProperties": False,
}

_PAIR_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$defs": _DEFS,
    "type": "object",
    "required": ["schema_version", "left", "right", "element"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "left": {"$ref": "#/$defs/quantization"},
        "right": {"$ref": "#/$defs/quantization"},
        "element": {"$ref": "#/$defs/matrix"},
        "pairing": {"enum": ["row-major", "column-major"]},
        "label": {"type": "string"},
    },
    "additionalProperties": False,
}

_SCHEMAS = {
    "norm": _NORM_SCHEMA,
    "pl": _PAIR_SCHEMA,
    "l": _PAIR_SCHEMA,
    "compare": _PAIR_SCHEMA,
}


def load_document(source: str) -> dict:
    """Parse an input document from a path, or inline when it starts with '{'."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input file {source!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}", [{"pointer": "", "message": str(exc)}]) from exc
    if not isinstance(doc, dict):
        msg = "input document must be a JSON object"
        raise InputError(msg, [{"pointer": "", "message": msg}])
    return doc


def validate_document(doc: dict, command: str) -> None:
    """Validate against the command's schema; raise with JSON pointers on failure."""
    validator = jsonschema.Draft202012Validator(_SCHEMAS[command])
    diags = []
    for err in sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path)):
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        diags.append({"pointer": pointer, "message": err.message})
    if diags:
        first = diags[0]
        raise InputError(
            f"input does not match the {command} schema at {first['pointer']}: "
            f"{first['message']}",
            diags,
        )


def _quantization_from(doc_part: dict, pointer: str) -> Quantization:
    try:
        return Quantization.from_dict(doc_part)
    except (KeyError, ValueError, TypeError) as exc:
        diag = [{"pointer": pointer, "message": str(exc)}]
        raise InputError(f"bad quantization at {pointer}: {exc}", diag) from exc


def _element_from(doc: dict) -> np.ndarray:
    """The element matrix of a validated document; rows must have one length,
    entries and norm must be finite."""
    rows = doc["element"]
    ragged = next((i for i, row in enumerate(rows) if len(row) != len(rows[0])), None)
    if ragged is not None:
        pointer = f"/element/{ragged}"
        msg = f"row {ragged} has {len(rows[ragged])} entries, row 0 has {len(rows[0])}"
        raise InputError(f"ragged element at {pointer}: {msg}", [{"pointer": pointer, "message": msg}])
    U = matrix_from_json(rows)
    bad = np.argwhere(~np.isfinite(U))
    if bad.size:
        pointer = "/element/{}/{}".format(*bad[0])
        raise InputError(
            f"non-finite entry at {pointer}",
            [{"pointer": pointer, "message": "entries must be finite numbers"}],
        )
    try:
        frobenius_norm(U)
    except ValueError as exc:
        raise InputError(str(exc), [{"pointer": "/element", "message": str(exc)}]) from exc
    return U


def parse_norm_job(doc: dict):
    """(quantization, element, label) from a validated norm document."""
    validate_document(doc, "norm")
    q = _quantization_from(doc["quantization"], "/quantization")
    U = _element_from(doc)
    try:
        q.check_element(U)
    except ValueError as exc:
        raise InputError(str(exc), [{"pointer": "/element", "message": str(exc)}]) from exc
    return q, U, doc.get("label", "")


def parse_pair_job(doc: dict, command: str):
    """(left, right, element, pairing, label) from a validated pl/l/compare document."""
    validate_document(doc, command)
    E = _quantization_from(doc["left"], "/left")
    F = _quantization_from(doc["right"], "/right")
    for q, pointer in ((E, "/left"), (F, "/right")):
        if q.real:
            msg = "the pl and l brackets do not take real-restricted factors"
            raise InputError(f"bad quantization at {pointer}: {msg}", [{"pointer": pointer, "message": msg}])
    U = _element_from(doc)
    if U.shape[1] != E.dim * F.dim:
        raise InputError(
            f"element has {U.shape[1]} columns, expected dim(left)*dim(right)"
            f" = {E.dim * F.dim}",
            [{"pointer": "/element", "message": "column count must equal the product of the dims"}],
        )
    pairing = PairingMap(doc.get("pairing", "row-major"))
    return E, F, U, pairing, doc.get("label", "")


# -- report rendering --------------------------------------------------------


def render_json(report: dict) -> str:
    return json.dumps(canonical(report), indent=2, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(cases: list) -> str:
    """Flatten case rows to the fixed column set (case, lower, upper, expected, pass)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", "lower", "upper", "expected", "pass"])
    for row in cases:
        lower = row.get("lower", row.get("value"))
        upper = row.get("upper", row.get("value"))
        writer.writerow(
            [
                row.get("case", ""),
                _csv_cell(canonical(lower)),
                _csv_cell(canonical(upper)),
                _csv_cell(canonical(row.get("expected"))),
                _csv_cell(bool(row.get("passed"))),
            ]
        )
    return buf.getvalue()
