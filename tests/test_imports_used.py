"""Every name a ``nullcone`` module imports is used in that module.

No linter ships with the project, so this stdlib ``ast`` scan stands in for
an unused-import rule.  Names listed in a module's ``__all__`` count as used
(the package ``__init__`` imports only to re-export), and ``from __future__``
imports are not names.  A start-up test checks what importing the command
line driver loads.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nullcone"


def _unused_imports(tree) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "parse('1')\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "dumps")]


# Run under python -S, where no site .pth file has imported anything first.
_STARTUP_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import nullcone.cli
print([name for name in ("importlib.resources", "typing") if name in sys.modules])
import dataclasses
print(sorted(
    f"{{name}}.{{key}}"
    for name, module in list(sys.modules.items()) if name.partition(".")[0] == "nullcone"
    for key, value in vars(module).items()
    if isinstance(value, type) and value.__module__ == name and dataclasses.is_dataclass(value)
))
"""


def test_importing_the_cli_loads_neither_resources_nor_typing_and_one_dataclass():
    script = _STARTUP_SCRIPT.format(src=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, dataclasses = done.stdout.splitlines()
    # the shift tables are read with open(), not through importlib.resources,
    # and Sequence comes from collections.abc, not typing
    assert loaded == "[]"
    # records are named tuples, which need no generated code; RunConfig stays a
    # dataclass because perfbench/child.py derives configurations from it with
    # dataclasses.replace
    assert dataclasses == "['nullcone.report.RunConfig']"
