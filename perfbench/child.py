"""One ``nullcone-verify`` invocation in a fresh interpreter, timed from inside.

Started by ``run.py``, never imported.  Modes:

- ``full``: set up, then ``nullcone.cli.main`` writes the structured report;
- ``traced``: wrap the traced functions, set up, then run ``report.run``
  once per suite x type unit and write the union of their results as one
  structured report.

Set-up is importing ``nullcone`` and building the root system (and, for
suites that use it, the matrix realization) of every type in the workload:
everything a user pays before the first check.  The last line of standard
output is a JSON object of ``time.monotonic()`` stamps, which the parent
compares with its own spawn time (the clock is shared by all processes),
and the pace of the host (``pace.py``) during set-up and over the invocation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

from pace import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_nullcone():
    src = ROOT / "src"
    if not (src / "nullcone" / "__init__.py").is_file():
        raise SystemExit(f"no nullcone sources under {src}")
    sys.path.insert(0, str(src))
    import nullcone.cli

    if Path(nullcone.__file__).resolve().parent != src / "nullcone":
        raise SystemExit(f"imported nullcone from {nullcone.__file__}, not from {src}")


def _setup(config) -> None:
    from nullcone.algebra import build_algebra
    from nullcone.report import ALGEBRA_TYPES
    from nullcone.roots import SimpleType, build_root_system

    needs_algebra = bool({"invariants", "geometry"} & set(config.suites))
    for tname in config.types:
        stype = SimpleType.from_name(tname)
        build_root_system(stype.family, stype.rank)
        if needs_algebra and tname in ALGEBRA_TYPES:
            build_algebra(stype.family, stype.rank)


def _config(argv):
    """The RunConfig ``nullcone.cli.main(argv)`` would use."""
    from nullcone.cli import build_parser
    from nullcone.report import DEFAULT_TYPES, SUITES, RunConfig

    args = build_parser().parse_args(argv)
    return RunConfig(
        suites=SUITES if args.suite == "all" else (args.suite,),
        types=tuple(args.types) if args.types else DEFAULT_TYPES,
        seed=args.seed,
        samples=args.samples,
        max_weyl_order=args.max_weyl_order,
        output_format=args.format,
    )


def _run_units(tracer, config, out_path) -> tuple:
    """report.run once per suite x type, each in its own span; returns (exit code, statuses)."""
    from nullcone import report

    results = []
    for suite in config.suites:
        for tname in config.types:
            tracer.enter(f"report.{suite}.{tname}")
            try:
                _code, unit_results = report.run(replace(config, suites=(suite,), types=(tname,)))
            finally:
                tracer.exit()
            results.extend(unit_results)
    results.sort(key=lambda c: c.check_id)
    with open(out_path, "w") as fh:
        fh.write("\n".join(report.structured_lines(config, results)) + "\n")
    exit_code = 1 if any(c.status == "fail" for c in results) else 0
    return exit_code, [c.status for c in results]


def main() -> int:
    sampler = Sampler()
    sampler.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("full", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="nullcone-verify --seed")
    parser.add_argument("--out", help="structured report path")
    parser.add_argument("--spans", help="span dump path (traced mode)")
    args = parser.parse_args()
    spec = json.loads((HERE / "workloads" / f"{args.workload}.json").read_text())
    argv = spec["argv"] + ["--seed", str(args.seed), "--format", "structured"]

    tracer = None
    if args.mode == "traced":
        from spans import Tracer
        from layers import install_all

        _import_nullcone()
        tracer = Tracer()
        sampler.on_sample = tracer.cover
        loaded = {
            name.rpartition(".")[2]: module
            for name, module in sys.modules.items()
            if name == "nullcone" or name.startswith("nullcone.")
        }
        install_all(tracer, loaded)
        tracer.enter("setup")
        _setup(_config(argv))
        tracer.exit()
    else:
        _import_nullcone()
        _setup(_config(argv))
    setup_end = time.monotonic()
    result = {"setup_end": setup_end, "setup_pace": sampler.pace()}

    if args.mode == "full":
        from nullcone.cli import main as cli_main

        result["exit_code"] = cli_main(argv + ["--out", args.out])
    elif args.mode == "traced":
        from layers import layer_metrics

        result["exit_code"], statuses = _run_units(tracer, _config(argv), args.out)
    result["verdict_end"] = time.monotonic()
    sampler.stop()
    result["pace"] = sampler.pace()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["metrics"] = layer_metrics(tracer, statuses)
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
