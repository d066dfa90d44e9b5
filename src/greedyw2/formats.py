"""Run configuration and deterministic file formats.

Every artifact written by the CLI (dump, metrics report, comparison) is a
table: a metadata dict plus columns of plain cells.  ``write_dump``,
``write_report`` and ``write_compare`` only gather those columns; the one
writer, ``write_table``, owns the on-disk layout, so the bytes are a pure
function of the run configuration: metadata is emitted in a fixed key
order, floats are serialized with ``repr`` (shortest round-trip form), and
files always use ``\\n`` line endings.  A dump file can be read back and fed
to the metrics pipeline without re-running the generator.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import truediv
from typing import IO, Iterable, Sequence

import numpy as np

from ._version import __version__
from .classical import GOLDEN_RATIO, kronecker, uniform_stream, van_der_corput
from .greedy import SequenceState, TIE_RULES, extend
from .metrics import star_over_log
from .numeric import (
    Backend,
    ConfigError,
    DomainError,
    format_rational,
    parse_decimal,
    parse_int,
    parse_rational,
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
            value = parse_decimal(self.alpha)
        except DomainError:
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


class Cells(list):
    """An optional dump column: its cells up to the last filled one, with
    ``None`` for an empty cell; rows past the end read ``None``."""

    def __getitem__(self, i):
        try:
            return list.__getitem__(self, i)
        except IndexError:
            return None


@dataclass
class Dump:
    """A dump as typed columns, one entry per row in file order: int64
    ``step`` and float64 ``float_value`` arrays, and ``Cells`` for the raw
    pair and the reduced fraction."""

    step: array = field(default_factory=lambda: array("q"))
    raw_numerator: Cells = field(default_factory=Cells)
    raw_denominator: Cells = field(default_factory=Cells)
    reduced: Cells = field(default_factory=Cells)
    float_value: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.step)

    def append(self, step, num, den, reduced, value) -> None:
        """Add a block of rows given as five columns of cells, ``None`` for an
        empty one; ``()`` stands for an optional column empty in every row."""
        n = len(self.step)
        self.float_value.extend(value)
        self.step.extend(step)
        for column, cells in zip((self.raw_numerator, self.raw_denominator, self.reduced), (num, den, reduced)):
            if any(v is not None for v in cells):
                column.extend([None] * (n - len(column)) + list(cells))
                while column[-1] is None:
                    column.pop()


def build_dump(config: RunConfig) -> Dump:
    """Generate the configured sequence and return its dump in step order."""
    config.validate()
    dump, steps = Dump(), range(1, config.count + 1)
    if config.sequence == "kritzinger":
        backend = config.parsed_backend
        seeds = [parse_seed(s, backend) for s in config.seeds]
        exact = [v if isinstance(v, Fraction) else None for v in seeds]
        dump.append(steps[: len(seeds)], (), (), exact, map(float, seeds))
        added = extend(SequenceState(seeds, backend=backend), config.count, tie_rule=config.tie_rule)
        # The point added at step k is odd/(2k), so 2k is a multiple of its
        # reduced denominator.
        dens = [2 * k for k in steps[len(seeds) :]]
        nums = [v.numerator * (den // v.denominator) for v, den in zip(added, dens)]
        dump.append(steps[len(seeds) :], nums, dens, added, map(truediv, nums, dens))
    elif config.sequence == "vdc":
        reduced = [van_der_corput(k) for k in steps]
        dump.append(steps, (), (), reduced, map(float, reduced))
    elif config.sequence == "kronecker":
        alpha = config.parsed_alpha
        dump.append(steps, (), (), (), [kronecker(k, alpha) for k in steps])
    else:
        dump.append(steps, (), (), (), uniform_stream(config.count, config.rng_seed, config.generator))
    return dump


def dump_values(dump: Dump) -> np.ndarray:
    """Float values of a dump in emission (step) order, as a float64 array.

    When the steps already ascend this is a view of ``dump.float_value``,
    which cannot grow while the view is alive."""
    step, value = np.asarray(dump.step), np.asarray(dump.float_value)
    return value if (step[1:] >= step[:-1]).all() else value[np.argsort(step, kind="stable")]


# ---------------------------------------------------------------------------
# serialization

_CHUNK_ROWS = 4096  # rows that write_table formats at a time


def _plain_cells(column: Sequence, a: int, b: int) -> list:
    # Python numbers, so that a float prints as its shortest round-trip
    # repr and json takes it; fractions as 'j/q'.
    if hasattr(column, "tolist"):
        return column[a:b].tolist()
    return [format_rational(v) if isinstance(v, Fraction) else v for v in map(column.__getitem__, range(a, b))]


def write_table(
    fh: IO[str], meta: dict[str, str], names: Sequence[str], columns: Sequence[Sequence], fmt: str
) -> None:
    """Write one artifact: metadata plus columns of int/float/str/Fraction/None cells.

    ``columns`` holds one sequence per name, the first one dense; rows are
    formatted ``_CHUNK_ROWS`` at a time.  CSV is ``# key=value`` lines, the
    header, then one line per row (floats as ``repr``, fractions as
    ``j/q``, ``None`` as an empty cell).  JSON is
    ``{"meta": ..., "rows": [{name: cell}, ...]}`` with ``indent=2`` and a
    trailing newline.  Any other format raises ``ConfigError``.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")
    count = len(columns[0])
    head, _, tail = json.dumps({"meta": meta, "rows": []}, indent=2).rpartition("[]")
    if fmt == "csv":
        fh.write("".join(f"# {key}={value}\n" for key, value in meta.items()) + ",".join(names) + "\n")
    for a in range(0, count, _CHUNK_ROWS):
        rows = zip(*(_plain_cells(c, a, min(a + _CHUNK_ROWS, count)) for c in columns))
        if fmt == "csv":
            fh.write("".join(",".join(["" if v is None else str(v) for v in row]) + "\n" for row in rows))
        else:  # the chunk's records without their brackets, one level deeper
            text = json.dumps([dict(zip(names, row)) for row in rows], indent=2)
            fh.write((head + "[" if a == 0 else ",") + text[1:-2].replace("\n", "\n  "))
    if fmt == "json":
        fh.write((head + "[]" if count == 0 else "\n  ]") + tail + "\n")


def write_dump(fh: IO[str], meta: dict[str, str], dump: Dump, fmt: str) -> None:
    write_table(fh, meta, DUMP_COLUMNS, [getattr(dump, name) for name in DUMP_COLUMNS], fmt)


# Each dump column's name in errors, its parser and whether a cell is required.
_CELL_PARSERS = (("step", parse_int, True), ("raw_numerator", parse_int, False),
                 ("raw_denominator", parse_int, False), ("reduced fraction", parse_rational, False),
                 ("float value", parse_decimal, True))


def _parse_row_cells(cells: Sequence[str], lineno: int) -> tuple:
    """The one definition of a valid dump row: its (step, raw_numerator,
    raw_denominator, reduced, float_value), or a line-numbered error."""
    if len(cells) != len(DUMP_COLUMNS):
        raise DumpParseError(
            f"line {lineno}: expected {len(DUMP_COLUMNS)} comma-separated fields, got {len(cells)}"
        )
    parsed = []
    for (what, parse, required), cell in zip(_CELL_PARSERS, cells):
        try:
            parsed.append(parse(cell) if cell or required else None)
        except DomainError:
            raise DumpParseError(f"line {lineno}: bad {what} {cell!r}") from None
    step, num, den, reduced, value = parsed
    if (num is None) != (den is None):
        raise DumpParseError(f"line {lineno}: raw numerator and denominator must appear together")
    if not 0.0 <= value <= 1.0:
        raise DumpParseError(f"line {lineno}: float value {value!r} is outside [0, 1]")
    if not -(2**63) <= step < 2**63:
        raise DumpParseError(f"line {lineno}: step {step} is outside the int64 range")
    if den is not None and den < 1:
        raise DumpParseError(f"line {lineno}: raw denominator {den} is not positive")
    if None not in (num, reduced) and num * reduced.denominator != den * reduced.numerator:
        raise DumpParseError(f"line {lineno}: raw form {num}/{den} is not the reduced {cells[3]}")
    return step, num, den, reduced, value


def _parse_block(rows: list[str]) -> tuple | None:
    """The rows' five columns, parsed a column at a time; None when a row
    fails a check of ``_parse_row_cells`` or an optional column is filled
    in only some rows.  On lines of ASCII text with no space, tab or ``_``,
    int() and float() accept just the cells of ``numeric``'s grammar, and
    float's 'nan' and 'inf', which the range check turns away."""
    text = ",".join(rows)
    if set(map(str.count, rows, repeat(","))) != {4} or not text.isascii() or any(c in text for c in " \t_"):
        return None
    cells = text.split(",")
    try:
        step, value = array("q", map(int, cells[0::5])), array("d", map(float, cells[4::5]))
        num, den, reduced = (  # an empty cell among filled ones fails to parse
            list(map(parse, cells[k::5])) if any(cells[k::5]) else ()
            for k, parse in ((1, int), (2, int), (3, parse_rational))
        )
    except (ValueError, OverflowError):
        return None
    v = np.asarray(value)
    if ((v >= 0.0) & (v <= 1.0)).all() and len(num) == len(den) and min(den, default=1) >= 1:
        if not any(a * r.denominator != b * r.numerator for a, b, r in zip(num, den, reduced)):
            return step, num, den, reduced, value
    return None


def read_dump_text(text: str) -> tuple[dict[str, str], Dump]:
    """Parse a dump file (CSV or JSON, auto-detected) into metadata and columns."""
    return (_read_dump_json if text.lstrip().startswith("{") else _read_dump_csv)(text)


def _read_dump_json(text: str) -> tuple[dict[str, str], Dump]:
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
    for i, item in enumerate(payload.pop("rows"), 1):  # the parsed objects go after the loop
        if not isinstance(item, dict):
            raise DumpParseError(f"row {i}: expected an object")
        cells = [
            "" if item.get(col) is None else str(item.get(col)) for col in DUMP_COLUMNS
        ]
        rows.append(_parse_row_cells(cells, i))
    if not rows:
        raise DumpParseError("line 1: dump contains no rows")
    dump = Dump()
    dump.append(*zip(*rows))
    return {str(k): str(v) for k, v in meta.items()}, dump


_BLOCK_CHARS = 1 << 16  # text per block of the CSV reader: a few thousand rows


def _read_dump_csv(text: str) -> tuple[dict[str, str], Dump]:
    """Parse a CSV dump in blocks, each cut right after a newline, so that
    their lines are those of ``text.splitlines()``.  A block that
    ``_parse_block`` rejects is parsed again row by row, which raises the
    first line-numbered error."""
    meta: dict[str, str] = {}
    dump, header_seen, lineno, start = Dump(), False, 0, 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        chunk = text[start:end]
        lines = chunk.splitlines()
        rows = list(filter(None, map(str.strip, lines)))
        if "#" in chunk:
            for key, sep, value in (row[1:].strip().partition("=") for row in rows if row[0] == "#"):
                if sep:
                    meta[key.strip()] = value
            rows = [row for row in rows if row[0] != "#"]
        linenos = (i for i, line in enumerate(map(str.strip, lines), lineno + 1) if line and line[0] != "#")
        if rows and not header_seen:
            i = next(linenos)
            if tuple(rows[0].split(",")) != DUMP_COLUMNS:
                raise DumpParseError(
                    f"line {i}: expected header {','.join(DUMP_COLUMNS)!r}, got {rows[0]!r}"
                )
            header_seen, rows = True, rows[1:]
        if rows:
            block = _parse_block(rows)
            if block is None:
                block = zip(*map(_parse_row_cells, map(str.split, rows, repeat(",")), linenos))
            dump.append(*block)
        start, lineno = end, lineno + len(lines)
    if not header_seen:
        raise DumpParseError("line 1: no dump header found")
    if not len(dump):
        raise DumpParseError("line 1: dump contains no rows")
    return meta, dump


def read_dump_file(path: str) -> tuple[dict[str, str], Dump]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return read_dump_text(fh.read())
    except (DumpParseError, UnicodeDecodeError) as exc:
        raise DumpParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# metric reports


def _star_ratio(n: np.ndarray, star: np.ndarray) -> list[float | None]:
    return [star_over_log(k, v) for k, v in zip(n.tolist(), star.tolist())]


def write_report(fh: IO[str], meta: dict[str, str], series: dict, fmt: str, star_scale: str = "count") -> None:
    n = np.asarray(series["n"], dtype=np.int64)
    w2, l2, star, maxh = (np.asarray(series[key], dtype=np.float64) for key in ("w2", "l2", "star", "maxh"))
    scaled = star / n if star_scale == "normalized" else star
    write_table(fh, meta, REPORT_COLUMNS, [n, w2, l2, scaled, maxh, _star_ratio(n, star)], fmt)


def write_compare(
    fh: IO[str], meta: dict[str, str], labeled_series: Iterable[tuple[str, dict]], fmt: str
) -> None:
    labels, ns, stars = [], [], []
    for label, series in labeled_series:
        ns.append(np.asarray(series["n"], dtype=np.int64))
        stars.append(np.asarray(series["star"], dtype=np.float64))
        labels += [label] * len(ns[-1])
    n, star = np.concatenate(ns), np.concatenate(stars)
    write_table(fh, meta, COMPARE_COLUMNS, [labels, n, star, _star_ratio(n, star)], fmt)
