"""The names the benchmark's traced run wraps must exist in ``nullcone``.

``perfbench/run.py --trace 1`` wraps every entry of ``layers.TARGETS``; a
renamed or deleted function would crash it, so each is checked here.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_is_a_nullcone_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for module, cls, attr, name, _note in layers.TARGETS:
        owner = importlib.import_module(f"nullcone.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), name


def test_names_the_benchmark_child_imports_exist():
    from nullcone import report

    assert report.ALGEBRA_TYPES == (
        "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "B2", "B3", "B4", "C3", "C4"
    )
    for attr in ("DEFAULT_TYPES", "SUITES", "RunConfig", "run"):
        assert hasattr(report, attr), attr
