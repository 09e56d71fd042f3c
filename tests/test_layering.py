"""Layering guard: no module of the package imports a sibling's `_private`
name or uses a `_private` attribute (read, write or delete) through any name
but `self` and `cls` (a module alias such as `am._x`, or an object such as
`aut._state_ids`), every name the benchmark imports from the package still
exists, and no test module defines one top-level function or class name
twice (Python keeps the last, so the first would silently stop running)."""

import ast
import importlib
from pathlib import Path

import adicaut

PACKAGE = Path(adicaut.__file__).parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
SIBLINGS = {p.stem for p in PACKAGE.glob("*.py")}


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def sibling(module, level):
    "The sibling a `from <module> import ...` names, or None."
    if level == 1 and module is None:
        return ""  # `from . import x`: the names are siblings themselves
    if level == 1 and module in SIBLINGS:
        return module
    if level == 0 and module and module.startswith("adicaut"):
        return module.removeprefix("adicaut").lstrip(".")
    return None


def violations(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and sibling(node.module, node.level) is not None:
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names if private(a.name)]
        elif (isinstance(node, ast.Attribute) and private(node.attr)
              and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            found.append(f"line {node.lineno}: uses {ast.unparse(node)}")
    return found


def test_no_private_cross_module_access():
    assert len(SIBLINGS) >= 7
    report = {p.name: v for p in sorted(PACKAGE.glob("*.py")) if (v := violations(p))}
    assert report == {}


def test_guard_catches_both_forms(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("from .treeaction import _word, parse_word\n"
                 "from . import automaton as am\n"
                 "from adicaut.linalg import _x\n"
                 "x = am._letters\ny = am.from_json\nz = am.__name__\n"
                 "am._x = 1\ndel am._y\n"
                 "def f(aut, w):\n    self._z = aut._state_ids, w.aut._index, self._ok, cls._ok, aut.state_id\n")
    assert violations(p) == ["line 1: imports _word", "line 3: imports _x", "line 4: uses am._letters",
                             "line 7: uses am._x", "line 8: uses am._y",
                             "line 10: uses aut._state_ids", "line 10: uses w.aut._index"]


def test_every_name_the_benchmark_imports_exists():
    # the benchmark runs from its own checkout: a name deleted here before the
    # benchmark stops importing it would break every benchmark run
    imported, missing = [], []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "adicaut":
                module = importlib.import_module(node.module)
                for a in node.names:
                    imported.append(f"{node.module}.{a.name}")
                    if not hasattr(module, a.name):
                        missing.append(f"{path.name}: {node.module}.{a.name}")
    assert {"adicaut.BudgetExceededError", "adicaut.verify_relation", "adicaut.cli.main"} <= set(imported)
    assert missing == []


def redefined(path):
    "Each top-level function or class name the module defines again, with the line of the later definition."
    seen, found = set(), []
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                found.append(f"line {node.lineno}: {node.name}")
            seen.add(node.name)
    return found


def test_no_test_module_defines_a_name_twice(tmp_path):
    p = tmp_path / "test_mod.py"
    p.write_text("def test_a():\n    pass\n\n\nclass Helper:\n    def test_a(self):\n        pass\n\n\n"
                 "async def test_a():\n    pass\n\n\nclass Helper:\n    pass\n")
    assert redefined(p) == ["line 10: test_a", "line 14: Helper"]
    report = {q.name: v for q in sorted(TESTS.glob("*.py")) if (v := redefined(q))}
    assert len([*TESTS.glob("test_*.py")]) >= 14 and report == {}
