"""Every import in src/pllab is used and comes from the standard library,
the package or a declared dependency, and every module-level private name
is used: stdlib-ast checks, no linter needed."""

import ast
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pllab"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree) -> dict:
    """Bound name -> line of each module-level or nested import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _used(tree) -> set:
    """Names loaded anywhere, in string annotations too, and the names of __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name))
    return used


def test_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional\n__all__ = ['Optional']\n")
    assert {n for n in _imported(tree) if n not in _used(tree)} == {"os"}


def _private_definitions(tree) -> dict:
    """Module-level private function, class or constant name -> its node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node
    return out


def _reads(tree) -> Counter:
    """How often each name is read in tree: loaded names, attributes and
    imported names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def _dead_private_names(trees: dict) -> list:
    """(module, name) of each module-level private name that nothing else in
    the modules reads; a definition's reads of itself do not count."""
    total = sum((_reads(t) for t in trees.values()), Counter())
    return [
        (module, name)
        for module, tree in trees.items()
        for name, node in _private_definitions(tree).items()
        if total[name] == _reads(node)[name]
    ]


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert _dead_private_names(trees) == []


def test_the_check_sees_a_dead_private_name():
    a = ast.parse(
        "_USED = 1\n_SPARE = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _USED\n"
        "def _helper():\n    return 0\n"
    )
    b = ast.parse("from a import _helper\n")
    assert _dead_private_names({"a.py": a, "b.py": b}) == [("a.py", "_SPARE"), ("a.py", "_recursive")]


def _dependencies() -> set:
    """Import names of the runtime dependencies in pyproject.toml: the quoted
    entries of its one `dependencies = [...]` list, read without tomllib so
    that the check runs on Python 3.10 too."""
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    deps = re.findall(r"[\"']([^\"']+)[\"']", listed.group(1))
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().replace("-", "_") for dep in deps}


def _foreign_imports(tree, allowed: set) -> list:
    """Top-level package of each absolute import that is neither standard
    library nor in allowed."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = (name.split(".")[0] for name in names)
    return [top for top in tops if top not in sys.stdlib_module_names and top not in allowed]


def test_runtime_dependencies_are_numpy_only():
    assert _dependencies() == {"numpy"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_relative_or_declared(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _foreign_imports(tree, _dependencies()) == []


def test_the_check_sees_an_undeclared_import():
    tree = ast.parse("import json\nimport numpy as np\nfrom . import wire\nimport jsonschema.validators\n")
    assert _foreign_imports(tree, {"numpy"}) == ["jsonschema"]


def test_the_cli_loads_no_third_party_module_beyond_numpy():
    """Importing pllab.cli in a fresh interpreter loads numpy and standard
    library modules only; in particular jsonschema stays out."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pllab.cli\n"
        "tops = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(t for t in tops if t not in sys.stdlib_module_names))\n"
        "print('jsonschema' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['numpy', 'pllab']", "False"]
