"""``nullcone`` imports only the standard library and its own modules, and uses no floats.

A stdlib ``ast`` scan, beside the unused-import scan of
``test_imports_used.py``.  Every import must name a module in
``sys.stdlib_module_names`` or one of the package's own modules.  No float
or complex literal and no use of the name ``float`` may appear, outside
the sites listed in ``ALLOWED_FLOAT_SITES``: a timing default, which
enters no check's arithmetic.  Every module must parse as the oldest
Python that ``requires-python`` in ``pyproject.toml`` admits; this guards
syntax only, not the use of a stdlib function added after that version.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nullcone"
PYPROJECT = SRC.parent.parent / "pyproject.toml"
OWN = frozenset(path.stem for path in SRC.glob("*.py"))

# (file, enclosing class or function, value) of each float allowed in the package
ALLOWED_FLOAT_SITES = {
    ("report.py", "CheckResult", 0.0),  # the elapsed-seconds default of a record
}


def _foreign_imports(tree, own=OWN) -> list:
    """(line, module) of each import naming neither a stdlib module nor one of ``own``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias.name, 0) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # "from . import x" names the package itself
            names = [(node.module or "__init__", node.level)]
        else:
            continue
        for name, level in names:
            top = name.partition(".")[0]
            ok = top in own if level else top in sys.stdlib_module_names or top == "nullcone"
            if not ok:
                found.append((node.lineno, "." * level + name))
    return found


def _float_sites(tree) -> list:
    """(enclosing class or function, value, line) of each float literal and use of ``float``.

    Complex literals count as floats; the name ``float`` is reported as the
    string "float".  A class's bases belong to the class.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            inner = child.name if defines else scope
            if isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
                found.append((inner, child.value, child.lineno))
            elif isinstance(child, ast.Name) and child.id == "float":
                found.append((inner, "float", child.lineno))
            visit(child, inner)

    visit(tree, "<module>")
    return found


def _float_violations(path) -> list:
    sites = _float_sites(ast.parse(path.read_text()))
    return [site for site in sites if (path.name, site[0], site[1]) not in ALLOWED_FLOAT_SITES]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_stdlib_or_the_package(path):
    assert _foreign_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_outside_the_allowed_sites(path):
    assert _float_violations(path) == []


def _oldest_python() -> tuple:
    """(major, minor) of ``requires-python = ">=major.minor"`` in pyproject.toml."""
    spec = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    return int(spec[1]), int(spec[2])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(), path.name, feature_version=_oldest_python())


def test_the_oldest_python_parse_refuses_newer_syntax():
    # except* came with Python 3.11, one release after the oldest supported
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(source)
    assert _oldest_python() == (3, 10)
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(source, feature_version=_oldest_python())


def test_every_allowed_float_site_exists():
    sites = {
        (path.name, scope, value)
        for path in SRC.glob("*.py")
        for scope, value, _ in _float_sites(ast.parse(path.read_text()))
    }
    assert ALLOWED_FLOAT_SITES <= sites


def test_scan_flags_a_foreign_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, numpy.linalg\n"
        "from . import roots\n"
        "from .roots import SimpleType\n"
        "from .missing import thing\n"
        "from nullcone.weyl import WeylOrderError\n"
        "def lazy():\n"
        "    from sympy import Rational\n"
    )
    assert _foreign_imports(tree) == [(2, "numpy.linalg"), (5, ".missing"), (8, "sympy")]


def test_scan_flags_a_float_literal_and_the_float_name(tmp_path):
    source = (
        "from fractions import Fraction\n"
        "HALF = Fraction(1, 2)\n"
        "SCALE = 1e3\n"
        "class CheckResult(tuple):\n"
        "    elapsed = 0.25\n"
        "def _line_chains(rng):\n"
        "    return rng.random() < 0.5 or float('inf') > 2j\n"
    )
    assert _float_sites(ast.parse(source)) == [
        ("<module>", 1000.0, 3),
        ("CheckResult", 0.25, 5),
        ("_line_chains", 0.5, 7),
        ("_line_chains", "float", 7),
        ("_line_chains", 2j, 7),
    ]
    # under report.py's name every site is flagged: CheckResult's default is 0.0, not 0.25
    planted = tmp_path / "report.py"
    planted.write_text(source)
    assert _float_violations(planted) == [
        ("<module>", 1000.0, 3),
        ("CheckResult", 0.25, 5),
        ("_line_chains", 0.5, 7),
        ("_line_chains", "float", 7),
        ("_line_chains", 2j, 7),
    ]
