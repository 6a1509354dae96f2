"""JSON-pointer diagnostics of malformed input documents, pinned.

tests/data/input_pointers.json holds valid norm and pair documents (the
``cli-jobs`` documents of benchmark seed 1 and the ``tests/test_cli.py``
helper documents) and, for each deterministic mutation of them, the CLI
exit code and the diagnostics of ``validate_document``: every pointer and
message, in order.  The mutations delete each required key, add an unknown
key to every object, put a wrong type in every leaf, use out-of-range
values and bad enum values, and empty every array and resize every complex
pair.  ``PYTHONPATH=src python tests/test_input_pointers.py`` rewrites the
file from the current code; run it only when the diagnostics are meant to
change.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import sys

import pytest

from pllab import cli
from pllab.jsonio import InputError, parse_norm_job, validate_document

ROOT = pathlib.Path(__file__).resolve().parents[1]
INPUT_POINTERS = ROOT / "tests" / "data" / "input_pointers.json"

_WRONG_TYPES = ["x", True, None, [], {}]


def _json_type(x) -> str:
    if isinstance(x, bool):
        return "boolean"
    if isinstance(x, (int, float)):
        return "number"
    return type(x).__name__


def _required(path: tuple, command: str) -> list:
    """The keys the schema requires of the object at path."""
    if not path:
        sides = ["quantization"] if command == "norm" else ["left", "right"]
        return ["schema_version", *sides, "element"]
    if path[-1] == "base":
        return ["kind", "dim"]
    if path[-1] in ("quantization", "left", "right", "inner"):
        return ["kind"]
    return []


def _nodes(x, path=()):
    yield path, x
    children = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _mutations(doc: dict, command: str) -> list:
    """Every mutation of doc, as [op, path, value] with op "delete" or "set"."""
    out = []
    for path, x in _nodes(doc):
        key = path[-1] if path else None
        if isinstance(x, dict):
            out += [["delete", [*path, k], None] for k in _required(path, command)]
            out.append(["set", [*path, "unknown"], 1])
        elif isinstance(x, list):
            if x:
                out.append(["set", list(path), []])
            is_pair = len(x) == 2 and all(_json_type(v) == "number" for v in x)
            if is_pair and "weights" not in path:
                out += [["set", list(path), x[:1]], ["set", list(path), [*x, 0.0]]]
        else:
            out += [["set", list(path), w] for w in _WRONG_TYPES if _json_type(w) != _json_type(x)]
        if key == "dim":
            out.append(["set", list(path), 0])
        elif key == "p":
            out.append(["set", list(path), 0.5])
        elif key == "kind":
            out.append(["set", list(path), "banana"])
        elif key == "schema_version":
            out.append(["set", list(path), "2"])
        elif len(path) > 1 and path[-2] == "weights":
            out += [["set", list(path), 0], ["set", list(path), -1]]
    if command != "norm":
        out.append(["set", ["pairing"], "diagonal"])
    return out


def _apply(doc: dict, mutation: list) -> dict:
    op, path, value = mutation
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = value
    return doc


def _outcome(command: str, doc: dict) -> list:
    """[CLI exit code, schema pointers, schema messages] of a document."""
    try:
        validate_document(doc, command)
        diags = []
    except InputError as exc:
        diags = exc.diagnostics
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--command", command, "--input", json.dumps(doc)])
    return [code, [d["pointer"] for d in diags], [d["message"] for d in diags]]


def _base_documents() -> list:
    """(command, document) of every valid cli-jobs document of seed 1, then
    the norm and pair documents of tests/test_cli.py."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    import test_cli
    import workloads

    out = []
    for op in workloads.cli_round(1):
        argv = op.args["argv"]
        if "--input" in argv and 3 not in op.args["expect_exit"]:
            out.append((argv[argv.index("--command") + 1], json.loads(argv[argv.index("--input") + 1])))
    return out + [("norm", json.loads(test_cli.norm_doc())), ("pl", json.loads(test_cli.pair_doc()))]


def _record_input_pointers():
    parts = []
    for command, doc in _base_documents():
        outcomes = [json.dumps(_outcome(command, _apply(doc, m))) for m in _mutations(doc, command)]
        head = json.dumps({"command": command, "document": doc})[:-1]
        parts.append(head + ', "outcomes": [\n' + ",\n".join(outcomes) + "\n]}")
    INPUT_POINTERS.write_text("[\n" + ",\n".join(parts) + "\n]\n")


# read at collection time; while it is rewritten, the file may be missing
CORPUS = json.loads(INPUT_POINTERS.read_text()) if INPUT_POINTERS.exists() else []


@pytest.mark.parametrize("i", range(len(CORPUS)))
def test_diagnostics_match_the_pinned_corpus(i):
    """Every mutant of document i gets the pinned exit code and the pinned
    pointers and messages, in order; the whole document is the pointer "",
    where the corpus recorded the "/" of the earlier validator."""
    command, doc, outcomes = CORPUS[i]["command"], CORPUS[i]["document"], CORPUS[i]["outcomes"]
    mutations = _mutations(doc, command)
    assert len(mutations) == len(outcomes)
    for mutation, (code, pointers, messages) in zip(mutations, outcomes):
        want = [code, ["" if p == "/" else p for p in pointers], messages]
        assert _outcome(command, _apply(doc, mutation)) == want, mutation


def test_corpus_covers_every_mutation_family():
    """Each mutation family occurs, every mutant is malformed, and some pass
    the schema to be rejected by a later check."""
    assert len(CORPUS) == 21
    mutations = [m for case in CORPUS for m in _mutations(case["document"], case["command"])]
    outcomes = [o for case in CORPUS for o in case["outcomes"]]
    assert len(mutations) == len(outcomes) and all(code == 3 for code, _, _ in outcomes)
    assert {op for op, _, _ in mutations} == {"delete", "set"}
    values = [value for _, _, value in mutations]
    for value in ("x", True, None, [], {}, 0, -1, 0.5, "banana", "2", "diagonal"):
        assert any(v == value and type(v) is type(value) for v in values), value
    assert any(path[-2:] == ["inner", "unknown"] for _, path, _ in mutations)
    assert any(pointers == ["/"] for _, pointers, _ in outcomes)  # the recorded root pointer
    assert any(pointers == [] for _, pointers, _ in outcomes)  # schema-valid, rejected later


def test_every_error_is_reported_sorted_by_pointer():
    """All errors of a document, sorted by path (an object's keys as
    strings, an array's indices as numbers), in the order of the format's
    checks at one path; the pointers and messages are those the earlier
    JSON Schema validator gave, but for the root pointer."""
    doc = {
        "schema_version": "2",
        "quantization": {"kind": "lp", "dim": -0.5, "params": {"p": 0.5, "weights": [0, True]}, "zeta": 1, "alpha": 2},
        "element": [[[1, 0, 0]], []],
        "extra": 1,
    }
    with pytest.raises(InputError) as info:
        validate_document(doc, "norm")
    assert [(d["pointer"], d["message"]) for d in info.value.diagnostics] == [
        ("", "Additional properties are not allowed ('extra' was unexpected)"),
        ("/element/0/0", "[1, 0, 0] is too long"),
        ("/element/1", "[] should be non-empty"),
        ("/quantization", "Additional properties are not allowed ('alpha', 'zeta' were unexpected)"),
        ("/quantization/dim", "-0.5 is not of type 'integer'"),
        ("/quantization/dim", "-0.5 is less than the minimum of 0"),
        ("/quantization/params/p", "0.5 is not valid under any of the given schemas"),
        ("/quantization/params/weights/0", "0 is less than or equal to the minimum of 0"),
        ("/quantization/params/weights/1", "True is not of type 'number'"),
        ("/schema_version", "'1' was expected"),
    ]
    assert str(info.value) == (
        "input does not match the norm schema at the document root: "
        "Additional properties are not allowed ('extra' was unexpected)"
    )


@pytest.mark.parametrize(
    "value, pointers",
    [(True, ["/quantization/dim"]), (2.0, []), (2.5, ["/quantization/dim"]),
     (math.nan, ["/quantization/dim"]), (math.inf, ["/quantization/dim"])],
)
def test_integer_typing_follows_json_schema(value, pointers):
    """Booleans are not integers; an integral float is one; NaN and inf are not."""
    doc = {"schema_version": "1", "quantization": {"kind": "hilbert", "dim": value}, "element": [[[1, 0]]]}
    try:
        validate_document(doc, "norm")
        got = []
    except InputError as exc:
        got = [d["pointer"] for d in exc.diagnostics]
    assert got == pointers


@pytest.mark.parametrize("value", [math.nan, json.loads("1e400"), False])
def test_number_typing_follows_json_schema(value):
    """NaN and 1e400 pass the schema and are left to Quantization.from_dict;
    a boolean is no number."""
    doc = {"schema_version": "1", "quantization": {"kind": "lp", "params": {"p": 1, "weights": [value, 1.0]}},
           "element": [[[1, 0], [0, 0]]]}
    if isinstance(value, bool):
        with pytest.raises(InputError) as info:
            validate_document(doc, "norm")
        assert [d["pointer"] for d in info.value.diagnostics] == ["/quantization/params/weights/0"]
    else:
        validate_document(doc, "norm")
        with pytest.raises(InputError) as info:
            parse_norm_job(doc)
        assert [d["pointer"] for d in info.value.diagnostics] == ["/quantization"]


_EUCLIDEAN_2 = {"kind": "euclidean", "dim": 2}


@pytest.mark.parametrize("quantization, pointer, key", [
    ({"kind": "min"}, "", "params"),
    ({"kind": "min", "params": {}}, "/params", "base"),
    ({"kind": "max"}, "", "params"),
    ({"kind": "max", "params": {}}, "/params", "base"),
    ({"kind": "hilbert"}, "", "dim"),
    ({"kind": "lp"}, "", "params"),
    ({"kind": "lp", "params": {"weights": [1.0]}}, "/params", "p"),
    ({"kind": "lp", "params": {"p": 2}}, "/params", "weights"),
    ({"kind": "concrete"}, "", "params"),
    ({"kind": "concrete", "params": {}}, "/params", "generators"),
    ({"kind": "tensor_p", "inner": {"kind": "hilbert", "dim": 1}}, "", "params"),
    ({"kind": "tensor_p", "params": {}, "inner": {"kind": "hilbert", "dim": 1}}, "/params", "base"),
    ({"kind": "tensor_p", "params": {"base": _EUCLIDEAN_2}}, "", "inner"),
    ({"kind": "min", "params": {"base": {"kind": "lp", "dim": 2}}}, "/params/base", "p"),
    ({"kind": "min", "params": {"base": {"kind": "polytope", "dim": 2}}}, "/params/base", "vertices"),
    ({"kind": "lp", "params": {"p": 2, "weights": [1.0]}, "inner": {"kind": "min", "params": {}}},
     "/inner/params", "base"),
])
@pytest.mark.parametrize("command, side", [("norm", "quantization"), ("l", "right")])
def test_a_key_the_kind_needs_is_required_where_it_is_missing(quantization, pointer, key, command, side):
    """Each key a descriptor's kind needs is a required property of the
    object that lacks it, reported by the walk, not as a bare KeyError."""
    doc = {"schema_version": "1", "element": [[[1, 0]]], side: quantization}
    if command == "l":
        doc["left"] = {"kind": "hilbert", "dim": 1}
    assert _outcome(command, doc) == [3, [f"/{side}{pointer}"], [f"{key!r} is a required property"]]


if __name__ == "__main__":
    _record_input_pointers()
