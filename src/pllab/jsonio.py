"""JSON and CSV front end of the command line: input checks, parsing, rendering.

Input documents and reports use the wire format of :mod:`pllab.wire`
(complex numbers as ``[re, im]`` pairs, row-major matrices, ``p = inf`` as
a string); this module re-exports its codecs.  One walk over an input
document checks its structure, then element entries, weights, generators
and vertices must be finite; a malformed document raises InputError with
JSON-pointer diagnostics.  Rendering is canonical so that identical jobs
produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .hilbert import PairingMap, frobenius_norm
from .quantizations import Quantization
from .wire import canonical, complex_from_json, complex_to_json, matrix_from_json, matrix_to_json, p_to_json

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
    """Malformed input document; carries JSON-pointer diagnostics, by default
    one for the whole document (pointer "")."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [{"pointer": "", "message": message}])


def _error(pointer: str, message: str, summary: str = None) -> InputError:
    """InputError with one diagnostic; its message is summary, else message."""
    return InputError(summary or message, [{"pointer": pointer, "message": message}])


# -- input documents --------------------------------------------------------
#
# One walk checks a document's structure.  It reports the errors, messages
# and order of a JSON Schema (draft 2020-12) validator of the format, sorted
# by path with the document itself at pointer "".  As in JSON Schema,
# booleans are no numbers, 2.0 is an integer, and NaN and inf are numbers
# that pass every bound; the finiteness checks come after the walk.


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _typed(errs, x, path, name) -> bool:
    """Whether x has the JSON type name; records the error when not."""
    if name in _TYPES:
        ok = isinstance(x, _TYPES[name])
    else:
        ok = _is_number(x) and (name == "number" or isinstance(x, int) or x.is_integer())
    if not ok:
        errs.append((path, f"{x!r} is not of type {name!r}"))
    return ok


# Each check below is a function (errs, x, path) that appends the
# (path, message) of every error in x.


def _of_type(name):
    return lambda errs, x, path: _typed(errs, x, path, name)


def _number(name="number", minimum=None, exclusive=False):
    def check(errs, x, path):
        _typed(errs, x, path, name)
        if minimum is not None and _is_number(x) and (x <= minimum if exclusive else x < minimum):
            errs.append((path, f"{x!r} is less than {'or equal to ' * exclusive}the minimum of {minimum!r}"))
    return check


def _p(errs, x, path):
    """p is a number >= 1 (NaN passes the bound) or the string "inf"."""
    if not (_is_number(x) and not x < 1) and x != p_to_json(np.inf):
        errs.append((path, f"{x!r} is not valid under any of the given schemas"))


def _one_of(*values):
    def check(errs, x, path):
        if x not in values:
            one = len(values) == 1
            errs.append((path, f"{values[0]!r} was expected" if one else f"{x!r} is not one of {list(values)!r}"))
    return check


def _array(item, min_items=1, max_items=None):
    def check(errs, x, path):
        if not _typed(errs, x, path, "array"):
            return
        if len(x) < min_items:
            errs.append((path, f"{x!r} " + ("should be non-empty" if min_items == 1 else "is too short")))
        if max_items is not None and len(x) > max_items:
            errs.append((path, f"{x!r} is too long"))
        for i, v in enumerate(x):
            item(errs, v, (*path, i))
    return check


def _require(errs, x, path, keys):
    errs.extend((path, f"{key!r} is a required property") for key in keys if key not in x)


def _object(required, properties, kinds=None, shared=()):
    """Check of an object.  kinds maps each "kind" value to the further keys
    that kind takes, each required unless it ends in "?", to the check of its
    value for that kind, or to None for the check in properties.  An object of
    a listed kind may carry only `required`, `shared` and its kind's keys; one
    whose kind is missing or unlisted may carry every key of properties."""
    def check(errs, x, path):
        if not _typed(errs, x, path, "object"):
            return
        kind = x.get("kind")
        own = kinds.get(kind) if kinds and isinstance(kind, str) else None
        _require(errs, x, path, (*required, *(key for key in own or () if key[-1] != "?")))
        checks = properties
        if own is not None:
            checks = {key: properties[key] for key in (*required, *shared)}
            for key, item in own.items():
                key = key.rstrip("?")
                checks[key] = item or properties[key]
        for key in properties:
            if key in x and key in checks:
                checks[key](errs, x[key], (*path, key))
        extras = sorted((key for key in x if key not in checks), key=str)
        if extras:
            listed = ", ".join(map(repr, extras)) + (" was" if len(extras) == 1 else " were")
            errs.append((path, f"Additional properties are not allowed ({listed} unexpected)"))
    return check


_MATRIX = _array(_array(_array(_number(), 2, 2)))
_WEIGHTS = _array(_number(minimum=0, exclusive=True))
_BASE = _object(["kind", "dim"], {
    "kind": _one_of("euclidean", "lp", "polytope"),
    "dim": _number("integer", minimum=1),
    "p": _p,
    "weights": _WEIGHTS,
    "vertices": _MATRIX,
    "real": _of_type("boolean"),
}, kinds={"euclidean": {}, "lp": {"p": None, "weights?": None}, "polytope": {"vertices": None}},
    shared=["real"])
_PARAMS = {"base": _BASE, "p": _p, "weights": _WEIGHTS, "generators": _array(_MATRIX)}


def _params(*keys):
    """The params of a kind that reads these keys, each required."""
    return _object(keys, {key: _PARAMS[key] for key in keys})


_QUANTIZATION_KEYS = {
    "kind": _one_of("min", "max", "hilbert", "lp", "concrete", "tensor_p"),
    "dim": _number("integer", minimum=0),
    "params": _object([], _PARAMS),
}
_QUANTIZATION = _object(["kind"], _QUANTIZATION_KEYS, kinds={
    "min": {"params": _params("base")},
    "max": {"params": _params("base")},
    "hilbert": {"dim": None, "params?": _params()},
    "lp": {"params": _params("p", "weights"), "inner?": None},
    "concrete": {"params": _params("generators")},
    "tensor_p": {"params": _params("base"), "inner": None},
}, shared=["dim"])
_QUANTIZATION_KEYS["inner"] = _QUANTIZATION
_DOCUMENT_KEYS = {"schema_version": _one_of(SCHEMA_VERSION), "element": _MATRIX, "label": _of_type("string")}
_NORM = _object(["schema_version", "quantization", "element"], {**_DOCUMENT_KEYS, "quantization": _QUANTIZATION})
_PAIR = _object(["schema_version", "left", "right", "element"], {
    **_DOCUMENT_KEYS, "left": _QUANTIZATION, "right": _QUANTIZATION,
    "pairing": _one_of("row-major", "column-major"),
})
_DOCUMENTS = {"norm": _NORM, "pl": _PAIR, "l": _PAIR, "compare": _PAIR}


def load_document(source: str) -> dict:
    """Parse an input document from a path, or inline when it starts with '{'."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read input file {source!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nested value
        raise _error("", str(exc), f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    return doc


def validate_document(doc: dict, command: str) -> None:
    """Check the command's document structure; raise with JSON pointers on failure."""
    errs = []
    try:
        _DOCUMENTS[command](errs, doc, ())
    except RecursionError as exc:  # the walk, and repr in its messages, recurse once per nested value
        raise InputError(f"input nests too deeply to check against the {command} schema: {exc}") from exc
    errs.sort(key=lambda e: e[0])
    diags = [{"pointer": "".join(f"/{key}" for key in path), "message": msg} for path, msg in errs]
    if diags:
        where, msg = diags[0]["pointer"] or "the document root", diags[0]["message"]
        raise InputError(f"input does not match the {command} schema at {where}: {msg}", diags)


def _quantization_from(doc_part: dict, pointer: str) -> Quantization:
    try:
        return Quantization.from_dict(doc_part)
    except (ValueError, TypeError) as exc:
        raise _error(pointer, str(exc), f"bad quantization at {pointer}: {exc}") from exc


def _element_from(doc: dict) -> np.ndarray:
    """The element matrix of a validated document; rows must have one length,
    entries and norm must be finite."""
    rows = doc["element"]
    ragged = next((i for i, row in enumerate(rows) if len(row) != len(rows[0])), None)
    if ragged is not None:
        pointer = f"/element/{ragged}"
        msg = f"row {ragged} has {len(rows[ragged])} entries, row 0 has {len(rows[0])}"
        raise _error(pointer, msg, f"ragged element at {pointer}: {msg}")
    U = matrix_from_json(rows)
    bad = np.argwhere(~np.isfinite(U))
    if bad.size:
        pointer = "/element/{}/{}".format(*bad[0])
        raise _error(pointer, "entries must be finite numbers", f"non-finite entry at {pointer}")
    try:
        frobenius_norm(U)
    except ValueError as exc:
        raise _error("/element", str(exc)) from exc
    return U


def parse_norm_job(doc: dict):
    """(quantization, element, label) from a validated norm document."""
    validate_document(doc, "norm")
    q = _quantization_from(doc["quantization"], "/quantization")
    U = _element_from(doc)
    try:
        q.check_element(U)
    except ValueError as exc:
        raise _error("/element", str(exc)) from exc
    return q, U, doc.get("label", "")


def parse_pair_job(doc: dict, command: str):
    """(left, right, element, pairing, label) from a validated pl/l/compare document."""
    validate_document(doc, command)
    E = _quantization_from(doc["left"], "/left")
    F = _quantization_from(doc["right"], "/right")
    for q, pointer in ((E, "/left"), (F, "/right")):
        if q.real:
            msg = "the pl and l brackets do not take real-restricted factors"
            raise _error(pointer, msg, f"bad quantization at {pointer}: {msg}")
    U = _element_from(doc)
    if U.shape[1] != E.dim * F.dim:
        raise _error("/element", "column count must equal the product of the dims",
                     f"element has {U.shape[1]} columns, expected dim(left)*dim(right) = {E.dim * F.dim}")
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
