"""Scalar backends: exact rationals and 64-bit floats behind one contract.

Every quantity in this package lives in one of two backends, fixed per run:
exact ``fractions.Fraction`` values (arbitrary precision, always reduced,
positive denominator) or IEEE-754 doubles.  Values of the two are never
mixed in one public operation.  The greedy engine and every evaluation
route compute on exact values in both backends, so the backend fixes only
the scalar type of the values they take and hand out.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction

__all__ = [
    "Backend",
    "BackendMismatch",
    "ConfigError",
    "DomainError",
    "NAMED_SEEDS",
    "format_rational",
    "is_float_scalar",
    "is_rational_scalar",
    "parse_rational",
    "parse_seed",
    "seed_help",
]


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class BackendMismatch(TypeError):
    """Scalars from different backends met in one operation."""


class ConfigError(ValueError):
    """A run configuration violates its invariants."""


class Backend(enum.Enum):
    RATIONAL = "rational"
    FLOAT = "float"

    @classmethod
    def from_str(cls, name: str) -> "Backend":
        try:
            return cls(name)
        except ValueError:
            raise ConfigError(
                f"unknown backend {name!r}; expected 'rational' or 'float'"
            ) from None


_RATIONAL_RE = re.compile(r"^([+-]?\d+)/(\d+)$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)$")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical 'j/q' text form into a reduced fraction."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise DomainError(f"not a rational literal: {text!r} (expected 'j/q')")
    j, q = int(m.group(1)), int(m.group(2))
    if q == 0:
        raise DomainError(f"zero denominator in rational literal {text!r}")
    return Fraction(j, q)


def format_rational(r: Fraction) -> str:
    """Canonical 'j/q' text form; zero renders as '0/1'.

    Round-trips bit-exactly through :func:`parse_rational`.
    """
    return f"{r.numerator}/{r.denominator}"


def is_rational_scalar(x: object) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def is_float_scalar(x: object) -> bool:
    return isinstance(x, float)


#: Named seed constants accepted by the CLI and the seed parser.  Each maps
#: to (exact value or None, maximum-precision float value).
NAMED_SEEDS: dict[str, tuple[Fraction | None, float]] = {
    "half": (Fraction(1, 2), 0.5),
    "inv_pi": (None, 1.0 / math.pi),
    "inv_e": (None, 1.0 / math.e),
    "inv_sqrt2": (None, 1.0 / math.sqrt(2.0)),
}


def seed_help() -> str:
    """One line per named seed constant with its float expansion."""
    lines = []
    for name, (exact, approx) in NAMED_SEEDS.items():
        tag = format_rational(exact) if exact is not None else "irrational"
        lines.append(f"{name} = {approx!r} ({tag})")
    return "\n".join(lines)


def parse_seed(spec: str, backend: Backend) -> Fraction | float:
    """Parse one seed literal into a backend value.

    Accepts named constants (see :data:`NAMED_SEEDS`), 'j/q' rationals, and
    decimal literals.  The rational backend rejects named irrational
    constants outright: they have no exact representation.
    """
    spec = spec.strip()
    if spec in NAMED_SEEDS:
        exact, approx = NAMED_SEEDS[spec]
        if backend is Backend.RATIONAL:
            if exact is None:
                raise ConfigError(
                    f"seed {spec!r} is irrational and has no exact "
                    "representation; use the float backend"
                )
            return exact
        return approx
    if _RATIONAL_RE.match(spec):
        value = parse_rational(spec)
    elif _DECIMAL_RE.match(spec):
        value = Fraction(spec)  # exact decimal-to-rational conversion
    else:
        raise ConfigError(f"cannot parse seed {spec!r}")
    if not 0 <= value <= 1:
        raise DomainError(f"seed {spec!r} lies outside [0, 1]")
    return value if backend is Backend.RATIONAL else float(value)
