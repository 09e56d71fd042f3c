"""Layering guard: no module of the package imports a sibling's `_private`
name or reads one through a module alias (`am._x`, `ta._x`)."""

import ast
from pathlib import Path

import adicaut

PACKAGE = Path(adicaut.__file__).parent
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
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and sibling(node.module, node.level) is not None:
            for a in node.names:
                if private(a.name):
                    found.append(f"line {node.lineno}: imports {a.name}")
                elif sibling(node.module, node.level) == "" and a.name in SIBLINGS:
                    aliases.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("adicaut."):
                    aliases.add(a.asname or a.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and private(node.attr)):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
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
                 "x = am._letters\ny = am.from_json\nz = am.__name__\n")
    assert violations(p) == ["line 1: imports _word", "line 3: imports _x", "line 4: reads am._letters"]
