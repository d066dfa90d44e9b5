"""Run configuration and deterministic file formats.

Every artifact written by the CLI goes through this module so that the
on-disk bytes are a pure function of the run configuration: metadata is
emitted in a fixed key order, floats are serialized with ``repr`` (shortest
round-trip form), and files always use ``\\n`` line endings.  A dump file
can be read back and fed to the metrics pipeline without re-running the
generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Sequence

from ._version import __version__
from .classical import (
    GOLDEN_RATIO,
    KroneckerConfig,
    SeededUniformConfig,
    kronecker,
    uniform_stream,
    van_der_corput,
)
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
        if not value > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha!r}")
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


@dataclass(frozen=True)
class DumpRow:
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
        kc = KroneckerConfig(alpha=config.parsed_alpha)
        return [
            DumpRow(k, None, None, None, kronecker(k, kc)) for k in range(1, config.count + 1)
        ]
    stream = uniform_stream(
        config.count, SeededUniformConfig(seed=config.rng_seed, generator=config.generator)
    )
    return [DumpRow(k, None, None, None, float(v)) for k, v in enumerate(stream, 1)]


def _kritzinger_rows(config: RunConfig) -> list[DumpRow]:
    backend = config.parsed_backend
    seed_values = [parse_seed(s, backend) for s in config.seeds]
    rows = []
    for step, value in enumerate(seed_values, 1):
        reduced = value if isinstance(value, Fraction) else None
        rows.append(DumpRow(step, None, None, reduced, float(value)))
    state = SequenceState(seed_values, backend=backend)
    extend(state, config.count, tie_rule=config.tie_rule)
    for chosen in state.history:
        rows.append(
            DumpRow(
                chosen.step,
                chosen.numerator,
                chosen.denominator,
                chosen.reduced,
                chosen.numerator / chosen.denominator,
            )
        )
    return rows


def dump_values(rows: Sequence[DumpRow]) -> list[float]:
    """Float values of a dump in emission (step) order."""
    return [row.float_value for row in sorted(rows, key=lambda r: r.step)]


# ---------------------------------------------------------------------------
# serialization


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_meta_lines(fh: IO[str], meta: dict[str, str]) -> None:
    for key, value in meta.items():
        fh.write(f"# {key}={value}\n")


def write_dump_csv(fh: IO[str], meta: dict[str, str], rows: Sequence[DumpRow]) -> None:
    _write_meta_lines(fh, meta)
    fh.write(",".join(DUMP_COLUMNS) + "\n")
    for row in rows:
        cells = (
            str(row.step),
            _cell(row.raw_numerator),
            _cell(row.raw_denominator),
            _cell(row.reduced),
            repr(row.float_value),
        )
        fh.write(",".join(cells) + "\n")


def _row_dict(row: DumpRow) -> dict:
    return {
        "step": row.step,
        "raw_numerator": row.raw_numerator,
        "raw_denominator": row.raw_denominator,
        "reduced": None if row.reduced is None else format_rational(row.reduced),
        "float_value": row.float_value,
    }


def write_dump_json(fh: IO[str], meta: dict[str, str], rows: Sequence[DumpRow]) -> None:
    payload = {"meta": meta, "rows": [_row_dict(r) for r in rows]}
    fh.write(json.dumps(payload, indent=2))
    fh.write("\n")


def write_dump(fh: IO[str], meta: dict[str, str], rows: Sequence[DumpRow], fmt: str) -> None:
    if fmt == "csv":
        write_dump_csv(fh, meta, rows)
    elif fmt == "json":
        write_dump_json(fh, meta, rows)
    else:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")


def _parse_optional_int(cell: str, lineno: int, column: str) -> int | None:
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        raise DumpParseError(f"line {lineno}: column {column!r} is not an integer: {cell!r}") from None


def _parse_row_cells(cells: Sequence[str], lineno: int) -> DumpRow:
    if len(cells) != len(DUMP_COLUMNS):
        raise DumpParseError(
            f"line {lineno}: expected {len(DUMP_COLUMNS)} comma-separated fields, got {len(cells)}"
        )
    step = _parse_optional_int(cells[0], lineno, "step")
    if step is None:
        raise DumpParseError(f"line {lineno}: missing step number")
    num = _parse_optional_int(cells[1], lineno, "raw_numerator")
    den = _parse_optional_int(cells[2], lineno, "raw_denominator")
    if (num is None) != (den is None):
        raise DumpParseError(f"line {lineno}: raw numerator and denominator must appear together")
    reduced: Fraction | None = None
    if cells[3]:
        try:
            j, _, q = cells[3].partition("/")
            reduced = Fraction(int(j), int(q))
        except (ValueError, ZeroDivisionError):
            raise DumpParseError(f"line {lineno}: bad reduced fraction {cells[3]!r}") from None
    try:
        value = float(cells[4])
    except ValueError:
        raise DumpParseError(f"line {lineno}: bad float value {cells[4]!r}") from None
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
    if not isinstance(payload, dict) or "rows" not in payload:
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


def _report_cells(series: dict, i: int, star_scale: str) -> tuple[str, ...]:
    n = int(series["n"][i])
    star = float(series["star"][i])
    star_disc = star / n if star_scale == "normalized" else star
    ratio = star_over_log(n, star)
    over_log = "" if ratio is None else repr(ratio)
    return (
        str(n),
        repr(float(series["w2"][i])),
        repr(float(series["l2"][i])),
        repr(star_disc),
        repr(float(series["maxh"][i])),
        over_log,
    )


def write_report_csv(fh: IO[str], meta: dict[str, str], series: dict, star_scale: str = "count") -> None:
    _write_meta_lines(fh, meta)
    fh.write(",".join(REPORT_COLUMNS) + "\n")
    for i in range(len(series["n"])):
        fh.write(",".join(_report_cells(series, i, star_scale)) + "\n")


def write_report_json(fh: IO[str], meta: dict[str, str], series: dict, star_scale: str = "count") -> None:
    records = []
    for i in range(len(series["n"])):
        cells = _report_cells(series, i, star_scale)
        records.append(
            {
                col: (None if cell == "" else (int(cell) if col == "n" else float(cell)))
                for col, cell in zip(REPORT_COLUMNS, cells)
            }
        )
    fh.write(json.dumps({"meta": meta, "rows": records}, indent=2))
    fh.write("\n")


def write_report(fh: IO[str], meta: dict[str, str], series: dict, fmt: str, star_scale: str = "count") -> None:
    if fmt == "csv":
        write_report_csv(fh, meta, series, star_scale)
    elif fmt == "json":
        write_report_json(fh, meta, series, star_scale)
    else:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")


def write_compare_csv(
    fh: IO[str], meta: dict[str, str], labeled_series: Iterable[tuple[str, dict]]
) -> None:
    _write_meta_lines(fh, meta)
    fh.write(",".join(COMPARE_COLUMNS) + "\n")
    for label, series in labeled_series:
        for i in range(len(series["n"])):
            n = int(series["n"][i])
            star = float(series["star"][i])
            ratio = star_over_log(n, star)
            over_log = "" if ratio is None else repr(ratio)
            fh.write(f"{label},{n},{repr(star)},{over_log}\n")


def write_compare_json(
    fh: IO[str], meta: dict[str, str], labeled_series: Iterable[tuple[str, dict]]
) -> None:
    records = []
    for label, series in labeled_series:
        for i in range(len(series["n"])):
            n = int(series["n"][i])
            star = float(series["star"][i])
            records.append(
                {
                    "sequence": label,
                    "n": n,
                    "star_disc": star,
                    "star_over_log": star_over_log(n, star),
                }
            )
    fh.write(json.dumps({"meta": meta, "rows": records}, indent=2))
    fh.write("\n")


def write_compare(
    fh: IO[str], meta: dict[str, str], labeled_series: Iterable[tuple[str, dict]], fmt: str
) -> None:
    if fmt == "csv":
        write_compare_csv(fh, meta, labeled_series)
    elif fmt == "json":
        write_compare_json(fh, meta, list(labeled_series))
    else:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")
