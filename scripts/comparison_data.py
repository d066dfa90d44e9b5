#!/usr/bin/env python3
"""Emit the canonical three-series star-discrepancy comparison.

Runs the ``compare`` subcommand with its reference configuration — the
greedy sequence seeded at 1/2, the base-2 radical-inverse sequence, and the
golden-ratio rotation — and writes the long-format CSV of star discrepancy
and star/ln n per prefix length.  The greedy series is deterministic, so
two runs of this script produce byte-identical files.
"""

import argparse
import sys

from greedyw2.cli import main as cli_main
from greedyw2.numeric import integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=integer, default=5000, help="points per series")
    parser.add_argument(
        "--every", type=integer, default=1, help="emit one row every k prefix lengths"
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cli_args = [
        "compare",
        "--series",
        "kritzinger:seeds=half",
        "--series",
        "vdc",
        "--series",
        "kronecker",
        "--count",
        str(args.count),
        "--every",
        str(args.every),
        "--format",
        args.format,
    ]
    if args.out is not None:
        cli_args += ["--out", args.out]
    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
