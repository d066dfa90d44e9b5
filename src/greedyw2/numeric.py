"""Scalars: exact rationals in every functional, 64-bit floats at the edges.

The library functionals (metrics, greedy functionals, the lemma lab) take
ints and ``fractions.Fraction`` values only and return Fractions, checked by
:func:`unit_rational`; for a float x pass ``Fraction(x)``, which is exact.
Floats enter only as float-backend seeds and as points of the batch float
routes (``metrics.metric_series``, the oracles).  The greedy engine computes
exactly in both backends, so a backend fixes only the scalar type of a run's
seeds and of the points it hands out.  Every number the program reads as
text is parsed here, by one ASCII grammar.
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
    "parse_decimal",
    "parse_int",
    "parse_rational",
    "parse_seed",
    "seed_help",
    "unit_rational",
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


# The one grammar of number text, in ASCII digits only: a signed integer,
# 'j/q', and a decimal as float() reads a finite one, of any exponent length,
# so that it covers every repr and agrees with the dump reader's fast path.
_INT_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+/[0-9]+")
_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?([0-9]+))?")


def _literal(convert, pattern: re.Pattern, text: str, kind: str):
    """``convert(text)`` once ``text`` matches ``pattern``; else DomainError."""
    if pattern.fullmatch(text) is None:
        raise DomainError(f"not {kind} literal: {text!r}")
    try:
        return convert(text)
    except ValueError:  # int()'s limit on the digits it converts
        raise DomainError(f"{kind} literal of {len(text)} characters exceeds int()'s digit limit") from None


def parse_int(text: str) -> int:
    """Parse an optionally signed integer literal, such as '12' or '-3'."""
    return _literal(int, _INT_RE, text, "an integer")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical 'j/q' text form into a reduced fraction."""
    j, q = _literal(lambda t: tuple(map(int, t.split("/"))), _RATIONAL_RE, text, "a rational 'j/q'")
    if q == 0:
        raise DomainError(f"zero denominator in rational literal {text!r}")
    return Fraction(j, q)


def parse_decimal(text: str) -> float:
    """Parse a decimal literal, such as a float's repr ('0.5', '5e-05')."""
    return _literal(float, _DECIMAL_RE, text, "a decimal")


def format_rational(r: Fraction) -> str:
    """Canonical 'j/q' text form; zero renders as '0/1'.

    Round-trips bit-exactly through :func:`parse_rational`.
    """
    return f"{r.numerator}/{r.denominator}"


def is_rational_scalar(x: object) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def is_float_scalar(x: object) -> bool:
    return isinstance(x, float)


def unit_rational(x: object, what: str = "argument") -> Fraction:
    """``x`` as a Fraction once it is checked to be an int or a Fraction (not
    a float or a bool) in [0, 1], else ``DomainError`` naming it ``what``."""
    if not is_rational_scalar(x):
        raise DomainError(f"{what} must be int or Fraction, got {x!r}")
    if not 0 <= x <= 1:
        raise DomainError(f"{what} {x!r} lies outside [0, 1]")
    return Fraction(x)


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


def parse_seed(spec: str, backend: Backend):
    """Parse one seed literal into a Fraction, or a float on the float backend.

    Accepts named constants (see :data:`NAMED_SEEDS`), 'j/q' rationals, and
    decimal literals with an optional exponent of up to three digits, such
    as a dumped float's repr ('5e-05').  The rational backend rejects named irrational
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
    if _RATIONAL_RE.fullmatch(spec):
        value = parse_rational(spec)
    elif (decimal := _DECIMAL_RE.fullmatch(spec)) and len(decimal[1] or "") <= 3:  # keeps 10**exp small
        value = _literal(Fraction, _DECIMAL_RE, spec, "a decimal")  # exact
    else:
        raise ConfigError(f"cannot parse seed {spec!r}")
    if not 0 <= value <= 1:
        raise DomainError(f"seed {spec!r} lies outside [0, 1]")
    return value if backend is Backend.RATIONAL else float(value)
