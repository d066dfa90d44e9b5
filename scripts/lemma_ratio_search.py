#!/usr/bin/env python3
"""Randomized adversarial search against the cubic counting-deviation bound.

Draws random piecewise-linear functions (steps, broken lines, continuous
broken lines), evaluates both sides of the bound exactly, and writes the
full trial log as JSON.  The interesting summary numbers are the minimum
margin (a negative value on a continuous function would disprove the bound)
and the minimum lhs/rhs ratio: the one-piece indicator family attains ratio
exactly 8, while this search routinely finds discontinuous functions with
ratios near 7, so that family is not extremal over the wider class — but
no run has come anywhere near ratio 1, the violation threshold.
"""

import argparse
import json
import sys

from greedyw2.lemma import lemma_sweep
from greedyw2.numeric import DomainError, parse_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=parse_int, default=1000, help="number of random functions")
    parser.add_argument("--seed", type=parse_int, default=0, help="randomization seed")
    parser.add_argument(
        "--max-pieces", type=parse_int, default=64, help="maximum pieces per function"
    )
    parser.add_argument(
        "--value-bound", type=parse_int, default=10, help="bound on |g| at grid nodes"
    )
    parser.add_argument(
        "--no-records",
        action="store_true",
        help="drop the per-trial log and keep only the summary",
    )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = lemma_sweep(
            trials=args.trials,
            seed=args.seed,
            max_pieces=args.max_pieces,
            value_bound=args.value_bound,
        )
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A negative margin only disproves the bound when the function satisfies
    # its continuity hypothesis; discontinuous near-misses are logged but
    # not failures.
    hard_failure = any(r["margin"] < 0 and r["continuous"] for r in result["records"])
    if args.no_records:
        result.pop("records")
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(
        f"{args.trials} trials: min margin {result['min_margin']:.6g}, "
        f"min ratio {result['min_ratio']:.4f}, "
        f"outside-hypothesis violations {result['outside_hypothesis_violations']}",
        file=sys.stderr,
    )
    return 1 if hard_failure else 0


if __name__ == "__main__":
    sys.exit(main())
