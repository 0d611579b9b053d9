"""Every function and method a ``nullcone`` module defines is referenced somewhere.

A companion to ``test_imports_used``: a top-level function or method of
``src/nullcone`` (dunders aside) whose name is referenced nowhere in
``src/``, ``demos/`` or ``perfbench/`` is dead code.  A reference from
``tests/`` alone does not keep it: a helper only the tests need belongs
in ``tests/oracles.py``, and one that has moved there must not linger in
``src/`` under the same name.  A reference is a name, an attribute, an
imported name, or a string constant that is exactly the name
(``perfbench`` traces functions by name); words inside docstrings are not
references.  A method or property is referenced only through an attribute
that is not read off a ``nullcone`` module (``la.mat`` names
``linalg.mat``, not a method ``mat``) or through such a string: a local
variable or a module function of the same spelling does not keep it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nullcone"
SCANNED = ("src", "demos", "perfbench")
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}


def _defined(tree) -> list:
    """(line, name, is_member) of each top-level function and method, dunders excluded."""
    out = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                fn.name.startswith("__") and fn.name.endswith("__")
            ):
                out.append((fn.lineno, fn.name, fn is not node))
    return out


def _module_aliases(tree) -> set:
    """The local names a tree binds to ``nullcone`` and its modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name for a in node.names if a.name.split(".")[0] == "nullcone"}
        elif isinstance(node, ast.ImportFrom) and (node.module == "nullcone" or node.level):
            out |= {a.asname or a.name for a in node.names if a.name in MODULES}
    return out


def _referenced(tree) -> tuple:
    """(names, members): every reference, and those that can name a method or property."""
    names, members = set(), set()
    aliases = _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if not (isinstance(node.value, ast.Name) and node.value.id in aliases):
                members.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
                members.add(node.value)
    return names, members


def _unreferenced(defining: dict, others) -> list:
    """(file, line, name) of definitions in ``defining`` referenced in no tree at all."""
    used, used_members = set(), set()
    for tree in list(defining.values()) + list(others):
        names, members = _referenced(tree)
        used |= names
        used_members |= members
    return sorted(
        (path, line, name)
        for path, tree in defining.items()
        for line, name, is_member in _defined(tree)
        if name not in (used_members if is_member else used)
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
        "    @property\n"
        "    def mat(self):\n"
        "        pass\n"
        "    def inv(self):\n"
        "        pass\n"
    )
    tests = ast.parse(
        "from m import K\n"
        "from nullcone import linalg as la\n"
        "K().method()\n"
        "TARGETS = [('K', 'traced')]\n"
        "inv = la.mat(la.inv(1))\n"
    )
    assert _unreferenced({"m.py": module}, [tests]) == [
        ("m.py", 3, "planted"), ("m.py", 14, "mat"), ("m.py", 16, "inv")
    ]
