"""Every benchmark workload gets the verdicts its workload file expects.

``perfbench/run.py`` compares each run's structured report with the
workload's expected check count, exit code and non-passing checks
(``verdicts.compare``).  Here each workload's argv runs once at its seed, the
way the benchmark's untraced child runs it, and must compare with 0 wrong, so
a change to the record set fails tier-1 and not only the benchmark.
"""

import importlib
import json
from pathlib import Path

import pytest

from nullcone.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = sorted((PERFBENCH / "workloads").glob("*.json"))


def test_workloads_are_found():
    assert {p.stem for p in WORKLOADS} >= {"exceptional-roots", "small-algebras"}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda p: p.stem)
def test_workload_verdicts_match(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    verdicts = importlib.import_module("verdicts")
    expected = json.loads(workload.read_text())
    out = tmp_path / "report.jsonl"
    argv = expected["argv"] + ["--seed", str(expected["seed"]), "--format", "structured"]
    exit_code = main(argv + ["--out", str(out)])
    comparison = verdicts.compare(expected, out.read_text(), exit_code)
    assert comparison.wrong == 0, comparison.problems


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda p: p.stem)
def test_workload_argv_parses_to_the_fields_the_benchmark_reads(workload):
    # perfbench/child.py builds its RunConfig from these attributes of build_parser()
    spec = json.loads(workload.read_text())
    argv = spec["argv"] + ["--seed", str(spec["seed"]), "--format", "structured"]
    args = build_parser().parse_args(argv + ["--out", "report.jsonl"])
    types = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--type"]
    got = (args.suite, args.types, args.seed, args.samples, args.max_weyl_order, args.format,
           args.out)
    assert got == (argv[0], types, spec["seed"], 25, 10**6, "structured", "report.jsonl")
