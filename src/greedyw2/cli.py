"""Command-line interface.

Four subcommands: ``generate`` writes a sequence dump, ``metrics`` computes
discrepancy/transport columns for a dump or a freshly generated run,
``compare`` tabulates star discrepancy for several sequences side by side,
and ``verify`` runs the structural check suites and emits a JSON report.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on
configuration or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from ._version import __version__
from .formats import (
    DumpParseError,
    RunConfig,
    SEQUENCES,
    build_dump,
    dump_values,
    read_dump_file,
    write_compare,
    write_dump,
    write_report,
)
from .greedy import TIE_RULES
from .metrics import metric_series
from .numeric import (
    BackendMismatch,
    ConfigError,
    DomainError,
    integer,
    parse_int,
    seed_help,
)
from .verify import SUITES, run_suite

_SERIES_KEYS = ("seeds", "alpha", "rng_seed", "generator", "tie_rule", "label")


def _add_generation_args(p: argparse.ArgumentParser, *, require_sequence: bool) -> None:
    p.add_argument(
        "--sequence",
        choices=SEQUENCES,
        required=require_sequence,
        help="which sequence to generate",
    )
    p.add_argument(
        "--seeds",
        default="",
        help=f"comma-separated seed points for the greedy sequence ({seed_help()})",
    )
    p.add_argument("--count", type=integer, default=None, help="number of points to emit")
    p.add_argument(
        "--backend",
        choices=("rational", "float"),
        default="float",
        help="exact rational arithmetic or float64 (default: float)",
    )
    p.add_argument(
        "--tie-rule",
        choices=TIE_RULES,
        default="smallest",
        help="which minimizer to take when several candidates tie (default: smallest)",
    )
    p.add_argument(
        "--alpha",
        default="phi",
        help="kronecker rotation number: 'phi' or a positive float (default: phi)",
    )
    p.add_argument("--rng-seed", type=integer, default=0, help="seed for the uniform stream")
    p.add_argument(
        "--generator",
        choices=("pcg64", "mt19937"),
        default="pcg64",
        help="uniform stream generator (default: pcg64)",
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedyw2",
        description="Greedy transport-minimizing sequences on [0,1]: generation, metrics, checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a sequence and write its dump")
    _add_generation_args(gen, require_sequence=True)
    _add_output_args(gen)

    met = sub.add_parser("metrics", help="compute metric columns for a dump or a fresh run")
    met.add_argument("--in", dest="input", default=None, help="dump file to read instead of generating")
    _add_generation_args(met, require_sequence=False)
    met.add_argument("--every", type=integer, default=1, help="emit one row every k prefix lengths")
    met.add_argument(
        "--star-scale",
        choices=("count", "normalized"),
        default="count",
        help="report star discrepancy on the count scale or divided by n",
    )
    _add_output_args(met)

    cmp_ = sub.add_parser("compare", help="tabulate star discrepancy for several sequences")
    cmp_.add_argument(
        "--series",
        action="append",
        default=[],
        metavar="NAME[:k=v,...]",
        help="sequence spec; options: seeds (';'-separated), alpha, rng_seed, generator, tie_rule, label",
    )
    cmp_.add_argument("--count", type=integer, required=True, help="points per series")
    cmp_.add_argument("--every", type=integer, default=1, help="emit one row every k prefix lengths")
    _add_output_args(cmp_)

    ver = sub.add_parser("verify", help="run structural check suites")
    ver.add_argument(
        "--suite",
        choices=("all", *SUITES),
        default="all",
        help="which suite to run (default: all)",
    )
    ver.add_argument("--budget", type=integer, default=None, help="work budget for a single suite")
    ver.add_argument("--seed", type=integer, default=0, help="randomization seed")
    ver.add_argument(
        "--grid-resolution",
        type=integer,
        default=None,
        help="grid cells for the dense-argmin oracle comparison",
    )
    ver.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    return parser


def _emit(write, out: str | None) -> None:
    """Call ``write(fh)`` on stdout, or on the file ``out``."""
    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def _seed_tuple(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.count is None:
        raise ConfigError("--count is required")
    return RunConfig(
        sequence=args.sequence,
        seeds=_seed_tuple(args.seeds),
        count=args.count,
        backend=args.backend,
        tie_rule=args.tie_rule,
        alpha=args.alpha,
        rng_seed=args.rng_seed,
        generator=args.generator,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dump = build_dump(config)
    _emit(lambda fh: write_dump(fh, config.meta(), dump, args.format), args.out)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.every < 1:
        raise ConfigError(f"--every must be >= 1, got {args.every}")
    if args.input is not None and args.sequence is not None:
        raise ConfigError("metrics takes either --in FILE or --sequence, not both")
    if args.input is not None:
        meta, dump = read_dump_file(args.input)
        meta["source"] = args.input
        values = dump_values(dump)
        del dump  # the steps and exact cells; values may view the float column
    elif args.sequence is not None:
        config = _config_from_args(args)
        values = dump_values(build_dump(config))
        meta = config.meta()
    else:
        raise ConfigError("metrics needs either --in FILE or --sequence")
    meta["every"] = str(args.every)
    meta["star_scale"] = args.star_scale
    series = metric_series(values, every=args.every)
    _emit(lambda fh: write_report(fh, meta, series, args.format, star_scale=args.star_scale), args.out)
    return 0


def _parse_series_spec(spec: str, count: int) -> RunConfig:
    name, _, rest = spec.partition(":")
    if name not in SEQUENCES:
        raise ConfigError(f"unknown sequence {name!r} in series spec {spec!r}")
    options: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or key not in _SERIES_KEYS:
                raise ConfigError(f"bad series option {part!r} in {spec!r}")
            options[key] = value.strip()
    seeds = tuple(s for s in options.get("seeds", "").split(";") if s)
    config = RunConfig(
        sequence=name,
        seeds=seeds,
        count=count,
        backend="float",
        tie_rule=options.get("tie_rule", "smallest"),
        alpha=options.get("alpha", "phi"),
        rng_seed=parse_int(options.get("rng_seed", "0")),
        generator=options.get("generator", "pcg64"),
        label=options.get("label"),
    )
    config.validate()
    return config


def _cmd_compare(args: argparse.Namespace) -> int:
    if len(args.series) < 2:
        raise ConfigError("compare needs at least two --series specs")
    if args.every < 1:
        raise ConfigError(f"--every must be >= 1, got {args.every}")
    configs = [_parse_series_spec(spec, args.count) for spec in args.series]
    labeled, taken = [], set()
    for config in configs:
        base = label = config.label or config.sequence
        k = 1
        while label in taken:  # suffix with the next free -k
            k += 1
            label = f"{base}-{k}"
        taken.add(label)
        series = metric_series(dump_values(build_dump(config)), metrics=("star",), every=args.every)
        labeled.append((label, series))
    meta = {
        "artifact": "greedyw2",
        "version": __version__,
        "count": str(args.count),
        "every": str(args.every),
        "series": ";".join(args.series),
    }
    _emit(lambda fh: write_compare(fh, meta, labeled, args.format), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        if args.budget is not None:
            raise ConfigError("--budget applies to a single --suite, not all of them")
        names = list(SUITES)
    else:
        names = [args.suite]
    if args.grid_resolution is not None and "oracle_equiv" not in names:
        raise ConfigError("--grid-resolution applies only to the oracle_equiv suite")
    reports = []
    for name in names:
        kwargs = {}
        if name == "oracle_equiv" and args.grid_resolution is not None:
            kwargs["argmin_resolution"] = args.grid_resolution
        reports.append(run_suite(name, budget=args.budget, seed=args.seed, **kwargs))
    payload = {
        "artifact": "greedyw2",
        "version": __version__,
        "passed": all(r.passed for r in reports),
        "suites": [r.to_dict() for r in reports],
    }
    _emit(lambda fh: fh.write(json.dumps(payload, indent=2) + "\n"), args.out)
    return 0 if payload["passed"] else 1


_DISPATCH = {
    "generate": _cmd_generate,
    "metrics": _cmd_metrics,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, DomainError, BackendMismatch, DumpParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
