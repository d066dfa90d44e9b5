"""Run configuration and deterministic file formats.

Every artifact written by the CLI (dump, metrics report, comparison) is a
table: a metadata dict plus rows of plain cells.  ``write_dump``,
``write_report`` and ``write_compare`` only build those rows; the one
writer, ``write_table``, owns the on-disk layout, so the bytes are a pure
function of the run configuration: metadata is emitted in a fixed key
order, floats are serialized with ``repr`` (shortest round-trip form), and
files always use ``\\n`` line endings.  A dump file can be read back and fed
to the metrics pipeline without re-running the generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

from ._version import __version__
from .classical import GOLDEN_RATIO, kronecker, uniform_stream, van_der_corput
from .greedy import SequenceState, TIE_RULES, extend
from .metrics import star_over_log
from .numeric import (
    Backend,
    ConfigError,
    format_rational,
    parse_seed,
)

SEQUENCES = ("kritzinger", "vdc", "kronecker", "uniform")

DUMP_COLUMNS = ("step", "raw_numerator", "raw_denominator", "reduced", "float_value")

REPORT_COLUMNS = (
    "n",
    "w2_squared",
    "l2_disc_squared",
    "star_disc",
    "max_abs_H",
    "star_over_log",
)

COMPARE_COLUMNS = ("sequence", "n", "star_disc", "star_over_log")


class DumpParseError(ValueError):
    """A dump file could not be parsed; the message names the offending line."""


@dataclass
class RunConfig:
    """Echoable description of one sequence run.

    All fields keep the textual form given on the command line so the
    metadata block reproduces the invocation verbatim; ``validate`` both
    checks consistency and caches the parsed counterparts.
    """

    sequence: str
    seeds: tuple[str, ...] = ()
    count: int = 1
    backend: str = "float"
    tie_rule: str = "smallest"
    alpha: str = "phi"
    rng_seed: int = 0
    generator: str = "pcg64"
    label: str | None = None

    def validate(self) -> None:
        if self.sequence not in SEQUENCES:
            raise ConfigError(
                f"unknown sequence {self.sequence!r}; expected one of {', '.join(SEQUENCES)}"
            )
        Backend.from_str(self.backend)  # raises ConfigError on garbage
        if self.tie_rule not in TIE_RULES:
            raise ConfigError(f"unknown tie rule {self.tie_rule!r}")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if self.sequence == "kritzinger":
            if self.count < len(self.seeds):
                raise ConfigError(
                    f"count {self.count} is smaller than the number of seeds {len(self.seeds)}"
                )
        elif self.seeds:
            raise ConfigError(f"seeds only apply to the kritzinger sequence, not {self.sequence!r}")
        if self.sequence in ("kronecker", "uniform") and self.parsed_backend is Backend.RATIONAL:
            raise ConfigError(f"{self.sequence} values are irrational; use the float backend")
        self.parsed_alpha  # noqa: B018 -- force the parse so errors surface here

    @property
    def parsed_backend(self) -> Backend:
        return Backend.from_str(self.backend)

    @property
    def parsed_alpha(self) -> float:
        if self.alpha == "phi":
            return GOLDEN_RATIO
        try:
            value = float(self.alpha)
        except ValueError:
            raise ConfigError(f"alpha must be 'phi' or a positive number, got {self.alpha!r}") from None
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha!r}")
        return value

    def meta(self) -> dict[str, str]:
        """Fixed-order metadata echo for file headers."""
        pairs = {
            "artifact": "greedyw2",
            "version": __version__,
            "sequence": self.sequence,
            "backend": self.backend,
            "count": str(self.count),
            "seeds": ",".join(self.seeds),
            "tie_rule": self.tie_rule,
            "alpha": self.alpha,
            "rng_seed": str(self.rng_seed),
            "generator": self.generator,
        }
        if self.label is not None:
            pairs["label"] = self.label
        return pairs


class DumpRow(NamedTuple):
    """One emitted point: raw candidate form, reduced fraction, float value."""

    step: int
    raw_numerator: int | None
    raw_denominator: int | None
    reduced: Fraction | None
    float_value: float


def build_dump(config: RunConfig) -> list[DumpRow]:
    """Generate the configured sequence and return its dump rows in step order."""
    config.validate()
    if config.sequence == "kritzinger":
        return _kritzinger_rows(config)
    if config.sequence == "vdc":
        rows = []
        for k in range(1, config.count + 1):
            v = van_der_corput(k)
            rows.append(DumpRow(k, None, None, v, float(v)))
        return rows
    if config.sequence == "kronecker":
        alpha = config.parsed_alpha
        return [
            DumpRow(k, None, None, None, kronecker(k, alpha)) for k in range(1, config.count + 1)
        ]
    stream = uniform_stream(config.count, config.rng_seed, config.generator)
    return [DumpRow(k, None, None, None, float(v)) for k, v in enumerate(stream, 1)]


def _kritzinger_rows(config: RunConfig) -> list[DumpRow]:
    backend = config.parsed_backend
    seed_values = [parse_seed(s, backend) for s in config.seeds]
    rows = []
    for step, value in enumerate(seed_values, 1):
        reduced = value if isinstance(value, Fraction) else None
        rows.append(DumpRow(step, None, None, reduced, float(value)))
    state = SequenceState(seed_values, backend=backend)
    added = extend(state, config.count, tie_rule=config.tie_rule)
    for chosen, reduced in zip(state.history, added, strict=True):
        rows.append(
            DumpRow(
                chosen.step,
                chosen.numerator,
                chosen.denominator,
                reduced,
                chosen.numerator / chosen.denominator,
            )
        )
    return rows


def dump_values(rows: Sequence[DumpRow]) -> list[float]:
    """Float values of a dump in emission (step) order."""
    return [row.float_value for row in sorted(rows, key=lambda r: r.step)]


# ---------------------------------------------------------------------------
# serialization


def write_table(
    fh: IO[str], meta: dict[str, str], columns: Sequence[str], rows: Iterable[tuple], fmt: str
) -> None:
    """Write one artifact: metadata plus rows of plain int/float/str/None cells.

    CSV is ``# key=value`` lines, the header, then one line per row (floats
    as ``repr``, ``None`` as an empty cell).  JSON is
    ``{"meta": ..., "rows": [{column: cell}, ...]}`` with ``indent=2`` and a
    trailing newline.  Any other format raises ``ConfigError``.
    """
    if fmt == "csv":
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:  # str of a float is its shortest round-trip repr
            fh.write(",".join(["" if v is None else str(v) for v in row]) + "\n")
    elif fmt == "json":
        records = [dict(zip(columns, row)) for row in rows]
        fh.write(json.dumps({"meta": meta, "rows": records}, indent=2))
        fh.write("\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")


def write_dump(fh: IO[str], meta: dict[str, str], rows: Sequence[DumpRow], fmt: str) -> None:
    table = (
        (
            row.step,
            row.raw_numerator,
            row.raw_denominator,
            None if row.reduced is None else format_rational(row.reduced),
            row.float_value,
        )
        for row in rows
    )
    write_table(fh, meta, DUMP_COLUMNS, table, fmt)


def _parse_int(cell: str, lineno: int, column: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DumpParseError(f"line {lineno}: column {column!r} is not an integer: {cell!r}") from None


def _parse_row_cells(cells: Sequence[str], lineno: int) -> DumpRow:
    if len(cells) != len(DUMP_COLUMNS):
        raise DumpParseError(
            f"line {lineno}: expected {len(DUMP_COLUMNS)} comma-separated fields, got {len(cells)}"
        )
    step_cell, num_cell, den_cell, reduced_cell, value_cell = cells
    if not step_cell:
        raise DumpParseError(f"line {lineno}: missing step number")
    step = _parse_int(step_cell, lineno, "step")
    num = _parse_int(num_cell, lineno, "raw_numerator") if num_cell else None
    den = _parse_int(den_cell, lineno, "raw_denominator") if den_cell else None
    if (num is None) != (den is None):
        raise DumpParseError(f"line {lineno}: raw numerator and denominator must appear together")
    reduced: Fraction | None = None
    if reduced_cell:
        try:
            j, _, q = reduced_cell.partition("/")
            reduced = Fraction(int(j), int(q))
        except (ValueError, ZeroDivisionError):
            raise DumpParseError(f"line {lineno}: bad reduced fraction {reduced_cell!r}") from None
    try:
        value = float(value_cell)
    except ValueError:
        raise DumpParseError(f"line {lineno}: bad float value {value_cell!r}") from None
    if not 0.0 <= value <= 1.0:
        raise DumpParseError(f"line {lineno}: float value {value!r} is outside [0, 1]")
    return DumpRow(step, num, den, reduced, value)


def read_dump_text(text: str) -> tuple[dict[str, str], list[DumpRow]]:
    """Parse a dump file (CSV or JSON, auto-detected) into metadata and rows."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _read_dump_json(text)
    return _read_dump_csv(text)


def _read_dump_json(text: str) -> tuple[dict[str, str], list[DumpRow]]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DumpParseError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("rows"), list):
        raise DumpParseError("line 1: JSON dump must be an object with a 'rows' array")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise DumpParseError("line 1: JSON dump 'meta' must be an object")
    rows = []
    for i, item in enumerate(payload["rows"], 1):
        if not isinstance(item, dict):
            raise DumpParseError(f"row {i}: expected an object")
        cells = [
            "" if item.get(col) is None else str(item.get(col)) for col in DUMP_COLUMNS
        ]
        rows.append(_parse_row_cells(cells, i))
    if not rows:
        raise DumpParseError("line 1: dump contains no rows")
    return {str(k): str(v) for k, v in meta.items()}, rows


def _read_dump_csv(text: str) -> tuple[dict[str, str], list[DumpRow]]:
    meta: dict[str, str] = {}
    rows: list[DumpRow] = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if sep:
                meta[key.strip()] = value
            continue
        if not header_seen:
            if tuple(line.split(",")) != DUMP_COLUMNS:
                raise DumpParseError(
                    f"line {lineno}: expected header {','.join(DUMP_COLUMNS)!r}, got {line!r}"
                )
            header_seen = True
            continue
        rows.append(_parse_row_cells(line.split(","), lineno))
    if not header_seen:
        raise DumpParseError("line 1: no dump header found")
    if not rows:
        raise DumpParseError("line 1: dump contains no rows")
    return meta, rows


def read_dump_file(path: str) -> tuple[dict[str, str], list[DumpRow]]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return read_dump_text(text)
    except DumpParseError as exc:
        raise DumpParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# metric reports


def _column(series: dict, key: str) -> list[float]:
    # Plain Python numbers, so that cells print as Python's repr rather than
    # numpy's scalar formatting; json also rejects numpy integers (hence the
    # int() on the n columns).
    return np.asarray(series[key], dtype=np.float64).tolist()


def write_report(fh: IO[str], meta: dict[str, str], series: dict, fmt: str, star_scale: str = "count") -> None:
    ns = [int(n) for n in series["n"]]
    table = (
        (n, w2, l2, star / n if star_scale == "normalized" else star, maxh, star_over_log(n, star))
        for n, w2, l2, star, maxh in zip(
            ns, *(_column(series, key) for key in ("w2", "l2", "star", "maxh"))
        )
    )
    write_table(fh, meta, REPORT_COLUMNS, table, fmt)


def write_compare(
    fh: IO[str], meta: dict[str, str], labeled_series: Iterable[tuple[str, dict]], fmt: str
) -> None:
    table = (
        (label, n, star, star_over_log(n, star))
        for label, series in labeled_series
        for n, star in zip([int(n) for n in series["n"]], _column(series, "star"))
    )
    write_table(fh, meta, COMPARE_COLUMNS, table, fmt)
