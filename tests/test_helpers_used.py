"""Every function and method a ``nullcone`` module defines is referenced somewhere.

A companion to ``test_imports_used``: a top-level function or method of
``src/nullcone`` (dunders aside) whose name is referenced nowhere in
``src/``, ``demos/`` or ``perfbench/`` is dead code.  A reference from
``tests/`` alone does not keep it: a helper only the tests need belongs
in ``tests/oracles.py``, and one that has moved there must not linger in
``src/`` under the same name.  A reference is a name, an attribute, an
imported name, or a string constant that is exactly the name
(``perfbench`` traces functions by name); words inside docstrings are not
references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nullcone"
SCANNED = ("src", "demos", "perfbench")


def _defined(tree) -> list:
    """(line, name) of each top-level function and method, dunders excluded."""
    out = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                fn.name.startswith("__") and fn.name.endswith("__")
            ):
                out.append((fn.lineno, fn.name))
    return out


def _referenced(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def _unreferenced(defining: dict, others) -> list:
    """(file, line, name) of definitions in ``defining`` referenced in no tree at all."""
    used = set()
    for tree in list(defining.values()) + list(others):
        used |= _referenced(tree)
    return sorted(
        (path, line, name)
        for path, tree in defining.items()
        for line, name in _defined(tree)
        if name not in used
    )


def _trees(paths) -> dict:
    return {str(p.relative_to(ROOT)): ast.parse(p.read_text()) for p in paths}


def test_every_defined_helper_is_referenced():
    defining = _trees(sorted(SRC.glob("*.py")))
    others = _trees(
        p for top in SCANNED for p in sorted((ROOT / top).rglob("*.py")) if p.parent != SRC
    )
    assert _unreferenced(defining, others.values()) == []


def test_scan_flags_a_planted_helper():
    module = ast.parse(
        "def used(x):\n"
        "    return x\n"
        "def planted(x):\n"
        '    """planted(x) is only named in its own docstring."""\n'
        "    return used(x)\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def method(self):\n"
        "        pass\n"
        "    def traced(self):\n"
        "        pass\n"
    )
    tests = ast.parse("from m import K\nK().method()\nTARGETS = [('K', 'traced')]\n")
    assert _unreferenced({"m.py": module}, [tests]) == [("m.py", 3, "planted")]
