"""Command line driver for the verification suites.

The suite (one of ``SUITES`` or ``all``) is the one positional argument,
and options may come before or after it; see the package README for the
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
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid simple type {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullcone-verify",
        description="exact verification suites for Borel-pair and nullcone geometry",
    )
    parser.add_argument("suite", choices=SUITES + ("all",), help="the suite to run, or all")
    parser.add_argument(
        "--type",
        action="append",
        dest="types",
        type=_simple_type,
        metavar="T",
        help="simple type such as A2 or E8 (repeatable; default: the standard list)",
    )
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--samples", type=_positive_int, default=RunConfig.samples)
    parser.add_argument("--max-weyl-order", type=_positive_int, default=RunConfig.max_weyl_order)
    parser.add_argument("--format", choices=("text", "structured"), default=RunConfig.output_format)
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")
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
