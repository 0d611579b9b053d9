"""Run the benchmark several times per workload and print each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...]

Each run is ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
with the run index 1..runs as its seed.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json; a
spread over a third of its bound is marked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}, {result}")
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.4f}" for name in bounds), flush=True)
        for name, vals in values.items():
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            mark = "" if s < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"{workload} {name}: n={len(vals)} median={q2:.4f} q1={q1:.4f} q3={q3:.4f} "
                  f"spread={s:.4f} bound={bounds[name]}{mark}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
