"""Exact piecewise-linear function lab for the integrated-deviation bounds.

For an integrable g on [0,1] with antiderivative G(x) = int_0^x g, the
quantity driving the one-step analysis is

    L(z) = int_0^z g(x) x dx - int_z^1 g(x) (1-x) dx,

and integration by parts gives L(z) = G(z) - int_0^1 G, so

    max_z L(z) = max G - mean G >= 0                       (basic bound)
    max_z L(z) >= (1/16) (max|G|)^3 / int g^2              (cubic bound)

together with the intermediate fact max G - mean G >=
(mean G - min G)^3 / (8 int g^2).  The cubic bound's constant is within a
factor 8 of optimal: for g = 1 on [0, eps] the two sides are eps^2/2 and
eps^2/16 exactly.

Everything here works on piecewise-linear g represented by strictly
increasing breakpoints 0 = b_0 < ... < b_K = 1 and per-piece (slope,
intercept) pairs; continuity across breakpoints is not required (G stays
continuous regardless, which is all the derivations use, so the bounds are
exercised on discontinuous g as well).  All data are Fractions (a float
entry raises ``DomainError``) and every operation is exact: G is piecewise
quadratic, so its extrema sit at breakpoints or at interior zeros of g, a
finite candidate set.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .numeric import DomainError, is_rational_scalar

__all__ = [
    "PiecewiseFunction",
    "basic_lemma_identity",
    "fact_check",
    "lemma_lhs",
    "lemma_rhs",
    "lemma_sweep",
    "random_piecewise",
    "sharpness_scan",
]


def _fraction(value) -> Fraction:
    if not is_rational_scalar(value):
        raise DomainError(f"piecewise data must be int or Fraction, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class PiecewiseFunction:
    """Piecewise-linear function on [0,1], held exactly.

    ``breakpoints`` are strictly increasing from 0 to 1; piece i takes the
    value slope*x + intercept on (b_i, b_{i+1}).  Entries must be ints or
    Fractions and are held as Fractions; any other entry, a float or a bool,
    raises ``DomainError`` (pass ``Fraction(x)`` for a float x).  G's
    breakpoint values, extrema and mean are computed once, on first use.
    """

    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        breaks = tuple(_fraction(b) for b in self.breakpoints)
        pieces = tuple((_fraction(s), _fraction(t)) for s, t in self.pieces)
        if len(breaks) < 2 or len(pieces) != len(breaks) - 1:
            raise DomainError(
                f"{len(breaks)} breakpoints need {max(len(breaks) - 1, 1)} pieces, "
                f"got {len(pieces)}"
            )
        if breaks[0] != 0 or breaks[-1] != 1:
            raise DomainError("breakpoints must start at 0 and end at 1")
        for a, b in zip(breaks, breaks[1:]):
            if not a < b:
                raise DomainError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "pieces", pieces)

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value) -> "PiecewiseFunction":
        return cls((0, 1), ((0, value),))

    @classmethod
    def indicator(cls, eps) -> "PiecewiseFunction":
        """Characteristic function of [0, eps] for 0 < eps <= 1."""
        if not 0 < eps <= 1:
            raise DomainError(f"eps must lie in (0, 1], got {eps!r}")
        if eps == 1:
            return cls.constant(1)
        return cls((0, eps, 1), ((0, 1), (0, 0)))

    @classmethod
    def from_counting_deviation(cls, points: Sequence) -> "PiecewiseFunction":
        """g(x) = #{k : x_k <= x} - n x for a sorted multiset in [0,1]."""
        pts = list(points)
        n = len(pts)
        breaks = [0]
        for p in pts:
            if not 0 <= p <= 1:
                raise DomainError(f"point {p!r} lies outside [0, 1]")
            if p != breaks[-1]:
                breaks.append(p)
        if breaks[-1] != 1:
            breaks.append(1)
        pieces = [(-n, bisect.bisect_right(pts, b)) for b in breaks[:-1]]
        return cls(tuple(breaks), tuple(pieces))

    # -- structure -------------------------------------------------------

    def _segments(self):
        """(a, b, slope, intercept) for each piece on [a, b]."""
        b = self.breakpoints
        return ((b[i], b[i + 1], s, t) for i, (s, t) in enumerate(self.pieces))

    def is_zero(self) -> bool:
        return all(s == 0 and t == 0 for s, t in self.pieces)

    def is_continuous(self) -> bool:
        inner = zip(self.breakpoints[1:], self.pieces, self.pieces[1:])
        return all(s0 * b + t0 == s1 * b + t1 for b, (s0, t0), (s1, t1) in inner)

    def _piece_index(self, x) -> int:
        i = bisect.bisect_right(self.breakpoints, x) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def eval(self, x):
        """Value at x, using the right-hand piece at interior breakpoints."""
        if not 0 <= x <= 1:
            raise DomainError(f"argument {x!r} lies outside [0, 1]")
        s, t = self.pieces[self._piece_index(x)]
        return s * x + t

    # -- exact integrals ---------------------------------------------------

    @cached_property
    def _g_breaks(self) -> tuple:
        """Antiderivative G at every breakpoint, G(0) = 0."""
        out = [Fraction(0)]
        for a, b, s, t in self._segments():
            out.append(out[-1] + s * (b * b - a * a) / 2 + t * (b - a))
        return tuple(out)

    @cached_property
    def _g_mean(self) -> Fraction:
        total = Fraction(0)
        for g_a, (a, b, s, t) in zip(self._g_breaks, self._segments()):
            length = b - a
            total += (
                g_a * length
                + s * ((b * b * b - a * a * a) / 3 - a * a * length) / 2
                + t * length * length / 2
            )
        return total

    @cached_property
    def _g_extrema(self) -> tuple:
        # G is piecewise quadratic: its extrema lie at breakpoints or at
        # interior zeros of g (vertex x = -t/s of a piece).
        lo, hi = min(self._g_breaks), max(self._g_breaks)
        for g_a, (a, b, s, t) in zip(self._g_breaks, self._segments()):
            if s == 0:
                continue
            x0 = -t / s
            if a < x0 < b:
                v = g_a + s * (x0 * x0 - a * a) / 2 + t * (x0 - a)
                lo = min(lo, v)
                hi = max(hi, v)
        return lo, hi

    def integral(self) -> Fraction:
        """int_0^1 g = G(1)."""
        return self._g_breaks[-1]

    def integral_sq(self) -> Fraction:
        """int_0^1 g^2 (the squared L2 norm)."""
        return sum(
            (
                s * s * (b * b * b - a * a * a) / 3 + s * t * (b * b - a * a) + t * t * (b - a)
                for a, b, s, t in self._segments()
            ),
            Fraction(0),
        )

    def antiderivative(self, z):
        """G(z) = int_0^z g."""
        if not 0 <= z <= 1:
            raise DomainError(f"argument {z!r} lies outside [0, 1]")
        i = self._piece_index(z)
        a = self.breakpoints[i]
        s, t = self.pieces[i]
        return self._g_breaks[i] + s * (z * z - a * a) / 2 + t * (z - a)

    def antiderivative_mean(self) -> Fraction:
        """int_0^1 G."""
        return self._g_mean

    def antiderivative_extrema(self) -> tuple:
        """(min G, max G) over [0,1], exact."""
        return self._g_extrema

    def max_abs_antiderivative(self) -> Fraction:
        lo, hi = self._g_extrema
        return max(abs(lo), abs(hi))


def lemma_lhs(g: PiecewiseFunction):
    """max_z [int_0^z g x dx - int_z^1 g (1-x) dx] = max G - mean G.

    Nonnegative for every integrable g (the maximum of continuous G is at
    least its average).
    """
    _, hi = g.antiderivative_extrema()
    return hi - g.antiderivative_mean()


def lemma_rhs(g: PiecewiseFunction):
    """(1/16) (max|G|)^3 / int g^2.  Undefined for identically zero g."""
    if g.is_zero():
        raise DomainError("lemma right-hand side requires g not identically zero")
    m = g.max_abs_antiderivative()
    return m * m * m / (16 * g.integral_sq())


def basic_lemma_identity(g: PiecewiseFunction, z) -> tuple:
    """Both evaluation routes for L(z): direct integrals and G(z) - mean G.

    Returns (direct, via_antiderivative); the pair agrees exactly, which is
    the executable form of the integration-by-parts identity.
    """
    if not 0 <= z <= 1:
        raise DomainError(f"argument {z!r} lies outside [0, 1]")
    direct = Fraction(0)
    for a, b, s, t in g._segments():
        # int g(x) x dx over [a, min(b, z)]
        hi = min(b, z)
        if a < hi:
            direct += s * (hi * hi * hi - a * a * a) / 3 + t * (hi * hi - a * a) / 2
        # -int g(x) (1-x) dx over [max(a, z), b]
        lo = max(a, z)
        if lo < b:
            direct -= (
                -s * (b * b * b - lo * lo * lo) / 3
                + (s - t) * (b * b - lo * lo) / 2
                + t * (b - lo)
            )
    return direct, g.antiderivative(z) - g.antiderivative_mean()


def fact_check(g: PiecewiseFunction):
    """Margin of  max G - mean G >= (mean G - min G)^3 / (8 int g^2).

    Returns the left side minus the right side; nonnegative for every
    admissible g.
    """
    if g.is_zero():
        raise DomainError("fact margin requires g not identically zero")
    lo, hi = g.antiderivative_extrema()
    mean = g.antiderivative_mean()
    d = mean - lo
    return (hi - mean) - d * d * d / (8 * g.integral_sq())


def sharpness_scan(eps_values: Iterable) -> list[tuple]:
    """Cubic-bound ratio for the extremal family g = 1 on [0, eps].

    Returns (eps, lhs, rhs, lhs/rhs) per entry; with Fraction inputs the
    arithmetic is exact and the ratio is identically 8, pinning the
    constant 1/16 within a factor of 8.
    """
    out = []
    for eps in eps_values:
        g = PiecewiseFunction.indicator(eps)
        lhs = lemma_lhs(g)
        rhs = lemma_rhs(g)
        out.append((eps, lhs, rhs, lhs / rhs))
    return out


# -- randomized adversarial sweeps ----------------------------------------

_BREAK_GRID = 4096
_VALUE_GRID = 64


def random_piecewise(
    rng: random.Random,
    max_pieces: int = 64,
    value_bound: int = 10,
    kind: str = "mixed",
) -> PiecewiseFunction:
    """Random piecewise function with values in [-value_bound, value_bound].

    Kinds: 'constant' (step function), 'linear' (independent endpoint values
    per piece, generally discontinuous), 'continuous' (shared node values),
    or 'mixed' to pick one at random.  Breakpoints lie on a dyadic grid of
    4096 cells and values on multiples of 1/64.  Needs 1 <= max_pieces <=
    4096 and value_bound >= 1, so that a nonzero draw exists.
    """
    if not 1 <= max_pieces <= _BREAK_GRID:
        raise DomainError(f"max_pieces must lie in [1, {_BREAK_GRID}], got {max_pieces}")
    if value_bound < 1:
        raise DomainError(f"value_bound must be >= 1, got {value_bound}")
    if kind == "mixed":
        kind = rng.choice(("constant", "linear", "continuous"))
    npieces = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, _BREAK_GRID), npieces - 1))
    breaks = [Fraction(0)] + [Fraction(c, _BREAK_GRID) for c in cuts] + [Fraction(1)]

    span = value_bound * _VALUE_GRID

    def rand_value():
        return Fraction(rng.randint(-span, span), _VALUE_GRID)

    while True:
        if kind == "constant":
            pieces = [(Fraction(0), rand_value()) for _ in range(npieces)]
        elif kind == "continuous":
            nodes = [rand_value() for _ in range(npieces + 1)]
            pieces = []
            for i in range(npieces):
                s = (nodes[i + 1] - nodes[i]) / (breaks[i + 1] - breaks[i])
                pieces.append((s, nodes[i] - s * breaks[i]))
        else:
            pieces = []
            for i in range(npieces):
                va, vb = rand_value(), rand_value()
                s = (vb - va) / (breaks[i + 1] - breaks[i])
                pieces.append((s, va - s * breaks[i]))
        if any(s != 0 or t != 0 for s, t in pieces):
            return PiecewiseFunction(tuple(breaks), tuple(pieces))


def lemma_sweep(
    trials: int = 1000,
    seed: int = 0,
    max_pieces: int = 64,
    value_bound: int = 10,
) -> dict:
    """Adversarial random search against the cubic bound.

    Every trial records lhs, rhs, margin = lhs - rhs and their ratio; a
    negative margin on continuous g is a hard failure, while one on
    discontinuous g would fall outside the bound's stated hypothesis and is
    reported separately (none are expected either way, since only the
    continuity of G enters the derivation).  Needs trials >= 1.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    records = []
    outside = 0
    for trial in range(trials):
        g = random_piecewise(rng, max_pieces=max_pieces, value_bound=value_bound)
        lhs = lemma_lhs(g)
        rhs = lemma_rhs(g)
        margin = lhs - rhs
        ratio = lhs / rhs
        continuous = g.is_continuous()
        if margin < 0 and not continuous:
            outside += 1
        records.append(
            {
                "trial": trial,
                "pieces": len(g.pieces),
                "continuous": continuous,
                "lhs": float(lhs),
                "rhs": float(rhs),
                "margin": float(margin),
                "ratio": float(ratio),
            }
        )
    # float() rounds monotonically, so these are the exact minima rounded once.
    return {
        "seed": seed,
        "trials": trials,
        "min_margin": min(r["margin"] for r in records),
        "min_ratio": min(r["ratio"] for r in records),
        "outside_hypothesis_violations": outside,
        "records": records,
    }
