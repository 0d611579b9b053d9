"""Command line driver for the verification suites.

One subcommand per suite plus ``all``; see the package README for the
report formats.  Exit status: 0 all checks passed, 1 at least one failed,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .report import DEFAULT_TYPES, SUITES, RunConfig, run, structured_lines, text_lines


def _positive_int(text: str) -> int:
    """An integer of at least 1; anything else is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullcone-verify",
        description="exact verification suites for Borel-pair and nullcone geometry",
    )
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITES + ("all",):
        p = sub.add_parser(name, help=f"run the {name} suite" if name != "all" else "run every suite")
        p.add_argument(
            "--type",
            action="append",
            dest="types",
            metavar="T",
            help="simple type such as A2 or E8 (repeatable; default: the standard list)",
        )
        p.add_argument("--seed", type=int, default=1789)
        p.add_argument("--samples", type=_positive_int, default=25)
        p.add_argument("--max-weyl-order", type=_positive_int, default=10**6)
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--out", metavar="PATH", help="write the report to a file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    suites = SUITES if args.suite == "all" else (args.suite,)
    config = RunConfig(
        suites=suites,
        types=tuple(args.types) if args.types else DEFAULT_TYPES,
        seed=args.seed,
        samples=args.samples,
        max_weyl_order=args.max_weyl_order,
        output_format=args.format,
    )
    exit_code, results = run(config)
    if args.format == "structured":
        lines = structured_lines(config, results)
    else:
        lines = text_lines(config, results)
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
