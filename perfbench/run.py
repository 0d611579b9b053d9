"""Benchmark of ``nullcone-verify``: time to verdict, set-up time and memory.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-algebras --seed 1 --seconds 60 --trace 0

Each workload is one ``nullcone-verify`` invocation (``workloads/<name>.json``)
run in a fresh interpreter, because a command-line user pays for imports,
the cached matrix realizations and every Weyl enumeration on each call.  A
run repeats the invocation (at least once) as long as the next one is
expected to end within ``--seconds``, and reports the median over its
invocations.  One process runs at a time.  Every time is divided by its
invocation's pace (``pace.py``): it is the time on a quiet host, because on
a shared one the same invocation takes up to 1.5x longer when other tenants
are busy.

The structured report of every invocation is checked against the
workload's hand-written expected verdicts and hashed: two invocations of
one workload at one nullcone seed must give byte-identical reports, within
a run and across runs of the same sources in the same checkout (digests kept
in ``out/``, keyed by a hash of ``src/`` and the workload file).

``--trace 1`` runs the invocation once untraced and once with the traced
functions of ``layers.py`` wrapped, and reports per-layer metrics; the two
reports must be byte-identical.

The nullcone seed of every workload is fixed (``seed`` in its file, 1789),
because time to verdict moves by up to a third across nullcone seeds;
``--seed`` is the run's seed and does not change the inputs.  Use
``--workload-seed`` to run a workload at another nullcone seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (checks verified), ``failed`` (checks whose
verdict was wrong, or whose run broke the determinism gate) and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import per_layer_names
from verdicts import compare, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.json"))
RUN_LIMIT_S = 170  # every run must end within 180 s


class Crash(Exception):
    """A child interpreter ended without a result."""


class Child:
    """Outcome of one child interpreter; times are divided by its pace."""

    def __init__(self, mode, workload, seed, deadline, report=None, spans=None,
                 script=HERE / "child.py"):
        self.mode = mode
        cmd = [sys.executable, str(script), "--mode", mode,
               "--workload", workload, "--seed", str(seed)]
        if report:
            # a report left by an earlier invocation must not pass for this one's
            Path(report).unlink(missing_ok=True)
            cmd += ["--out", str(report)]
        if spans:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        wall = time.monotonic() - start
        self.returncode = proc.returncode
        lines = stdout.strip().splitlines()
        self.data = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if self.data:
            pace = self.data["pace"]
            self.wall_s = wall / pace
            # contention comes in spells of seconds: a sub-second set-up takes its own pace
            self.setup_s = (self.data["setup_end"] - start) / self.data["setup_pace"]
            self.verdict_s = (self.data["verdict_end"] - self.data["setup_end"]) / pace
        self.report_text = None
        if report and self.data and Path(report).is_file():
            self.report_text = Path(report).read_text()


class Gate:
    """Verdict and determinism checks over the invocations of one run."""

    def __init__(self, key, expected, store):
        self.key = key
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.store = Path(store)
        self.known = json.loads(self.store.read_text()) if self.store.exists() else {}

    def check(self, child: Child) -> float:
        """Record one invocation; returns its wrong-verdict share."""
        exit_code = child.data["exit_code"] if child.data else None
        result = compare(self.expected, child.report_text, exit_code)
        for problem in result.problems:
            print(f"wrong verdict: {problem}", file=sys.stderr)
        self.attempted += result.expected_checks
        wrong = result.wrong
        if child.report_text is not None:
            sha = digest(child.report_text)
            self.digests.add(sha)
            if len(self.digests) > 1 or self.known.get(self.key, sha) != sha:
                print(f"determinism gate: report digests differ for {self.key}", file=sys.stderr)
                wrong = result.expected_checks
        self.failed += wrong
        if child.data is None:
            raise Crash(f"{child.mode} invocation exited with code {child.returncode}")
        return result.wrong_share

    def save(self) -> None:
        if len(self.digests) == 1 and self.key not in self.known:
            self.known[self.key] = next(iter(self.digests))
            tmp = self.store.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, self.store)


def source_digest(*paths) -> str:
    """sha256 over the files under ``paths`` (byte code excluded), names and contents."""
    h = hashlib.sha256()
    for path in map(Path, paths):
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                name = f.relative_to(path.parent).as_posix()
                h.update(name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def timed_run(workload, seed, seconds, gate, deadline) -> dict:
    report = OUT / f"{workload}.jsonl"
    setups, verdicts, walls, rss, lasted = [], [], [], [], []
    start = time.monotonic()
    while not verdicts or time.monotonic() + max(lasted) <= start + seconds:
        began = time.monotonic()
        child = Child("full", workload, seed, deadline, report=report)
        gate.check(child)
        lasted.append(time.monotonic() - began)
        setups.append(child.setup_s)
        verdicts.append(child.verdict_s)
        walls.append(child.wall_s)
        rss.append(child.data["peak_rss_mb"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (statistics.median(verdicts), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def traced_run(workload, seed, gate, deadline) -> dict:
    plain = Child("full", workload, seed, deadline, report=OUT / f"{workload}.jsonl")
    plain_share = gate.check(plain)
    traced = Child("traced", workload, seed, deadline, report=OUT / f"{workload}.traced.jsonl",
                   spans=OUT / f"{workload}.spans.json")
    traced_share = gate.check(traced)
    units = dict(per_layer_names())
    metrics = {name: (value, units[name]) for name, value in traced.data["metrics"].items()}
    metrics["trace.overhead_s"] = (traced.verdict_s - plain.verdict_s, "s")
    metrics["wrong_verdict_share"] = (max(plain_share, traced_share), "share")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="run seed (does not change the inputs)")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, help="nullcone-verify --seed (default: the workload's)")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "nullcone" / "__init__.py").is_file():
        print(f"no nullcone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    OUT.mkdir(exist_ok=True)
    workload_file = HERE / "workloads" / f"{args.workload}.json"
    expected = json.loads(workload_file.read_text())
    seed = expected["seed"] if args.workload_seed is None else args.workload_seed
    sources = source_digest(ROOT / "src", workload_file)[:16]
    gate = Gate(f"{args.workload}:{seed}:{sources}", expected, OUT / "digests.json")
    try:
        if args.trace:
            metrics = traced_run(args.workload, seed, gate, deadline)
        else:
            metrics = timed_run(args.workload, seed, args.seconds, gate, deadline)
    except Crash as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        metrics = {}
        gate.failed = max(gate.failed, 1)
    gate.save()
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
