#!/usr/bin/env python3
"""Emit (step, step/count, value) scatter data for one greedy run.

Plotting value against the relative index step/count shows how the greedy
rule fills the unit interval; starting from a batch of random seeds shows
how quickly the extension washes the irregular start out.  Output is CSV
with one row per point, seeds first, in append order.
"""

import argparse
import random
import sys

from greedyw2.formats import write_table
from greedyw2.greedy import TIE_RULES, SequenceState, extend
from greedyw2.numeric import Backend, parse_int, parse_seed, seed_help


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--seeds",
        default="",
        help=f"comma-separated explicit seed points ({seed_help()})",
    )
    group.add_argument(
        "--random-seeds",
        type=parse_int,
        default=None,
        metavar="N",
        help="start from N uniform random points instead of explicit seeds",
    )
    parser.add_argument("--count", type=parse_int, default=1000, help="total points to reach")
    parser.add_argument("--tie-rule", choices=TIE_RULES, default="smallest")
    parser.add_argument(
        "--rng-seed", type=parse_int, default=0, help="seed for --random-seeds draws"
    )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.random_seeds is not None:
        rng = random.Random(args.rng_seed)
        seeds = [rng.random() for _ in range(args.random_seeds)]
        seed_desc = f"random:{args.random_seeds}"
    else:
        seeds = [parse_seed(s.strip(), Backend.FLOAT) for s in args.seeds.split(",") if s.strip()]
        seed_desc = args.seeds or "none"
    if args.count < max(len(seeds), 1):
        print(f"error: --count {args.count} is below the seed count", file=sys.stderr)
        return 2

    state = SequenceState(seeds, backend=Backend.FLOAT)
    chosen = extend(state, args.count, args.tie_rule)

    meta = {
        "artifact": "greedyw2-scatter",
        "seeds": seed_desc,
        "count": str(args.count),
        "tie_rule": args.tie_rule,
        "rng_seed": str(args.rng_seed),
    }
    steps = range(1, args.count + 1)
    names = ("step", "relative_step", "value", "origin")
    columns = (
        steps,
        [k / args.count for k in steps],
        [float(s) for s in seeds] + [float(c) for c in chosen],
        ["seed"] * len(seeds) + ["greedy"] * len(chosen),
    )
    if args.out is None:
        write_table(sys.stdout, meta, names, columns, "csv")
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_table(fh, meta, names, columns, "csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
