"""Command line driver for the verification suites.

One subcommand per suite plus ``all``; see the package README for the
report formats.  Exit status: 0 no check failed and at least one passed,
1 at least one failed, 2 usage error, 3 nothing checked (every record
undecided or skipped).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .report import DEFAULT_TYPES, SUITES, RunConfig, run, structured_lines, text_lines
from .roots import SimpleType


def _positive_int(text: str) -> int:
    """An integer of at least 1; anything else is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _simple_type(text: str) -> str:
    """The canonical name of a valid simple type (a2 -> A2); else a usage error (exit 2)."""
    try:
        return SimpleType.from_name(text).name
    except (ValueError, IndexError) as exc:
        raise argparse.ArgumentTypeError(f"invalid simple type {text!r}: {exc}") from None


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
            type=_simple_type,
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
    parser = build_parser()
    args = parser.parse_args(argv)
    suites = SUITES if args.suite == "all" else (args.suite,)
    config = RunConfig(
        suites=suites,
        types=tuple(dict.fromkeys(args.types)) if args.types else DEFAULT_TYPES,
        seed=args.seed,
        samples=args.samples,
        max_weyl_order=args.max_weyl_order,
        output_format=args.format,
    )
    # open --out before the run, so an unwritable path costs no run time
    try:
        out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"argument --out: cannot write {args.out!r}: {exc.strerror}")
    with out as fh:
        exit_code, results = run(config)
        if args.format == "structured":
            lines = structured_lines(config, results)
        else:
            lines = text_lines(config, results)
        fh.write("\n".join(lines) + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
