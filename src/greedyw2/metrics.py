"""Regularity functionals for point multisets on [0,1].

For sorted points x_1 <= ... <= x_n and the counting deviation
g_n(x) = #{k : x_k <= x} - n x the module computes, in closed form:

    W2^2      squared transport cost to Lebesgue measure,
              n^2 W2^2 = n^2/3 + n sum x_k^2 - sum (2k-1) x_k
    int g^2   squared L2 deviation of the counting function,
              int_0^1 g_n^2 = n sum (x_k - (2k-1)/(2n))^2 + 1/12
    star      sup_x |g_n(x)| = max_k max(|k - n x_k|, |(k-1) - n x_k|)
              (count scale; divide by n for the classical normalization)
    max|H|    sup_x |int_0^x g_n|, found exactly from the piecewise-quadratic
              structure of H (breakpoints, interior zeros of g, endpoints)
              by ``lemma.PiecewiseFunction``.

The two quadratic functionals coincide after scaling,
int g_n^2 = n^2 W2^2, because sum (2k-1)^2 = n(4n^2-1)/3 makes every
point-independent term cancel; the test suite re-derives this before any
code relies on it.  W2^2, int g^2 and max|H| are computed exactly on the
points (a float is an exact binary fraction) and rounded once to float when
the input holds floats; exact input gives exact Fractions.

``metric_series`` is the batch float path over every prefix of a sequence.
Each row reads all four columns from a few shared arrays: the deviations
d_k = x_k - (2k-1)/(2n), giving int g^2 = n sum d_k^2 + 1/12 and
W2^2 = int g^2 / n^2, and the one-sided values of g at the breakpoints
b = (0, x_1, ..., x_n, 1), giving the star discrepancy (bit for bit the
formula above) and H at its breakpoints and interior vertices.  It uses
only elementwise numpy passes and pairwise sums, never a BLAS product, so
its output bytes do not depend on the machine's BLAS library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .greedy import SequenceState, e_functional
from .lemma import PiecewiseFunction
from .numeric import Backend, DomainError, is_rational_scalar

__all__ = [
    "DiscrepancyReport",
    "l2_discrepancy_squared",
    "max_abs_H",
    "metric_series",
    "report",
    "sorted_prefixes",
    "star_discrepancy",
    "star_over_log",
    "step_identity_check",
    "w2_squared",
]


def _validated(points: Iterable, allow_empty: bool = False) -> list:
    pts = list(points)
    if not pts and not allow_empty:
        raise DomainError("point set must not be empty")
    prev = None
    for p in pts:
        if not 0 <= p <= 1:
            raise DomainError(f"point {p!r} lies outside [0, 1]")
        if prev is not None and p < prev:
            raise DomainError("points must be sorted ascending")
        prev = p
    return pts


def _like(points: Sequence, value: Fraction) -> Fraction | float:
    """The exact value as a Fraction for exact points, else rounded to float."""
    return value if all(is_rational_scalar(p) for p in points) else float(value)


def w2_squared(points: Iterable) -> Fraction | float:
    """Squared W2 distance between the empirical measure of sorted points
    and Lebesgue measure on [0,1].

    Expands sum_i int_{(i-1)/n}^{i/n} (x - x_i)^2 dx exactly.
    """
    pts = _validated(points)
    n = len(pts)
    x = [Fraction(p) for p in pts]
    s2 = sum(p * p for p in x)
    s1 = sum((2 * k - 1) * p for k, p in enumerate(x, 1))
    return _like(pts, (Fraction(n * n, 3) + n * s2 - s1) / (n * n))


def l2_discrepancy_squared(points: Iterable) -> Fraction | float:
    """int_0^1 (f_n(x) - nx)^2 dx for the sorted multiset (count scale)."""
    pts = _validated(points)
    n = len(pts)
    acc = sum((Fraction(p) - Fraction(2 * k - 1, 2 * n)) ** 2 for k, p in enumerate(pts, 1))
    return _like(pts, n * acc + Fraction(1, 12))


def star_discrepancy(points: Iterable) -> Fraction | float:
    """sup_x |f_n(x) - nx| on the count scale (not divided by n).

    The supremum of the piecewise-linear deviation is attained against one
    of the one-sided limits at a data point, giving
    max_k max(|k - n x_k|, |(k-1) - n x_k|).
    """
    pts = _validated(points)
    n = len(pts)
    best = None
    for k, p in enumerate(pts, 1):
        np_ = n * p
        d = max(abs(k - np_), abs((k - 1) - np_))
        if best is None or d > best:
            best = d
    return best


def max_abs_H(points: Iterable) -> Fraction | float:
    """sup_x |H(x)| with H(x) = int_0^x g, computed exactly.

    H is piecewise quadratic, so its extrema lie at breakpoints or at
    interior zeros of g; ``lemma.PiecewiseFunction`` scans that finite set.
    The points must be sorted and lie in [0, 1]; an empty set gives 0.
    They are converted to Fractions first (PiecewiseFunction rejects
    floats), and the exact maximum is rounded once for float input.
    """
    pts = _validated(points, allow_empty=True)
    exact = PiecewiseFunction.from_counting_deviation([Fraction(p) for p in pts])
    return _like(pts, exact.max_abs_antiderivative())


def step_identity_check(state: SequenceState, chosen) -> Fraction | float:
    """Residual of the one-step update identity for int g^2.

    Adding a point at z to a state with deviation g_n must satisfy
    int g_{n+1}^2 = int g_n^2 + E(z) + (z^3 + (1-z)^3)/3.  Returns
    int g_{n+1}^2 minus the right-hand side, computed exactly on the state's
    exact points and returned in the backend's scalar type.  ``chosen`` may
    be the exact fraction returned by the greedy step even for float states.
    """
    exact = SequenceState(state.exact_points, backend=Backend.RATIONAL)
    z = Fraction(chosen)
    pts = exact.points
    l2_old = l2_discrepancy_squared(pts) if pts else 0
    l2_new = l2_discrepancy_squared(sorted(pts + [z]))
    w = 1 - z
    residual = l2_new - (l2_old + e_functional(exact, z) + (z**3 + w**3) / 3)
    return state._scalar(residual)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Bundle of the four regularity metrics for one point count."""

    n: int
    w2_squared: Fraction | float
    l2_disc_squared: Fraction | float
    star_disc: Fraction | float
    max_abs_h: Fraction | float

    @property
    def star_over_log(self) -> float | None:
        """star / ln n; undefined at n = 1."""
        return star_over_log(self.n, self.star_disc)


def star_over_log(n: int, star) -> float | None:
    """Count-scale star discrepancy divided by ln(n); undefined at n <= 1."""
    if n <= 1:
        return None
    return float(star) / math.log(n)


def report(points: Iterable) -> DiscrepancyReport:
    """One-shot report for a sorted multiset, exact when the points are."""
    pts = _validated(points)
    return DiscrepancyReport(
        n=len(pts),
        w2_squared=w2_squared(pts),
        l2_disc_squared=l2_discrepancy_squared(pts),
        star_disc=star_discrepancy(pts),
        max_abs_h=max_abs_H(pts),
    )


# -- batch float path ----------------------------------------------------


def sorted_prefixes(values: Sequence[float], every: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, the first n values sorted) for every ``every``-th n and for
    the full length.

    One sorted buffer grows by one stride per row: the stride's values are
    sorted and merged in at their ``searchsorted`` ranks, so a row costs
    O(n + s log s) for a stride of s values.  A stride of one is shifted in
    place.  The yielded array is a view of that buffer: the next row
    overwrites it, so copy it to keep it.  Raises DomainError for a stride
    below 1.
    """
    if every < 1:
        raise DomainError(f"stride must be >= 1, got {every}")
    vals = np.asarray(values, dtype=np.float64)
    total = vals.size
    buf = np.empty(total, dtype=np.float64)
    i = 0
    while i < total:
        n = min(i + every, total)
        if n == i + 1:
            v = vals[i]
            pos = int(np.searchsorted(buf[:i], v))
            buf[pos + 1 : n] = buf[pos:i]
            buf[pos] = v
        else:
            chunk = np.sort(vals[i:n])
            buf[:n] = np.insert(buf[:i], np.searchsorted(buf[:i], chunk), chunk)
        yield n, buf[:n]
        i = n


def metric_series(
    values: Sequence[float],
    metrics: Sequence[str] = ("w2", "l2", "star", "maxh"),
    every: int = 1,
) -> dict[str, np.ndarray]:
    """Per-prefix metrics of an append-ordered float sequence.

    Returns arrays keyed by 'n' plus the requested metric names; rows cover
    every ``every``-th prefix size and always the full length.  The prefixes
    come from ``sorted_prefixes``.  Each row fills a few shared arrays, in
    scratch buffers allocated once at length N + 2, and reads every
    requested column from them, so a row costs O(n) elementwise work on top
    of its prefix and makes no BLAS call:

    - d_k = x_k - (2k-1)/(2n); l2 = n sum d_k^2 + 1/12, summed by numpy's
      pairwise ``add.reduce``, and w2 = l2 / n^2 (int g^2 = n^2 W2^2).
    - b = (0, x_1, ..., x_n, 1) and nb = n b.  For c = 0..n,
      A_c = c - nb_c is g just right of b_c and B_c = c - nb_{c+1} is g just
      left of b_{c+1}.
    - star = max(max A, -min B), equal bit for bit to
      max_k max(|k - n x_k|, |k-1 - n x_k|).
    - 2H at the breakpoints is the running sum of (A_c + B_c)(b_{c+1} - b_c);
      where A_c > 0 > B_c, g has a zero inside segment c and
      2H there is 2H(b_c) + A_c^2/n.  max|H| is half the largest |2H|.

    The float columns agree with the exact closed forms to about 1e-13
    relative; they are for plotting and for bounds with real slack, not for
    near-tie decisions.  Raises DomainError for an empty sequence, a value
    that is NaN or outside [0, 1], an unknown metric or a stride below 1.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise DomainError("empty sequence")
    outside = ~((vals >= 0.0) & (vals <= 1.0))  # NaN compares false
    if outside.any():
        raise DomainError(f"point {float(vals[outside][0])!r} lies outside [0, 1]")
    want = set(metrics)
    unknown = want - {"w2", "l2", "star", "maxh"}
    if unknown:
        raise DomainError(f"unknown metrics {sorted(unknown)}")
    quad = bool(want & {"w2", "l2"})
    jumps = bool(want & {"star", "maxh"})
    size = vals.size
    counts = np.arange(size + 1, dtype=np.float64)  # 0, 1, ..., N
    odd = 2.0 * counts[1:] - 1.0  # odd weights 1, 3, ..., 2N-1
    d = np.empty(size)
    b = np.zeros(size + 2)  # b[0] = 0 stays
    nb, h2 = np.empty(size + 2), np.zeros(size + 2)  # h2[0] = 2H(0) = 0 stays
    A, B, t = np.empty(size + 1), np.empty(size + 1), np.empty(size + 1)
    ns: list[int] = []
    cols: dict[str, list[float]] = {name: [] for name in want}
    for n, x in sorted_prefixes(vals, every):
        ns.append(n)
        if quad:
            dn = d[:n]
            np.divide(odd[:n], 2.0 * n, out=dn)
            np.subtract(x, dn, out=dn)
            np.multiply(dn, dn, out=dn)
            l2 = n * float(np.add.reduce(dn)) + 1.0 / 12.0
            if "l2" in want:
                cols["l2"].append(l2)
            if "w2" in want:
                cols["w2"].append(l2 / (n * n))
        if not jumps:
            continue
        bn, nbn, An, Bn = b[: n + 2], nb[: n + 2], A[: n + 1], B[: n + 1]
        bn[1 : n + 1] = x
        bn[n + 1] = 1.0
        np.multiply(bn, n, out=nbn)
        np.subtract(counts[: n + 1], nbn[:-1], out=An)
        np.subtract(counts[: n + 1], nbn[1:], out=Bn)
        if "star" in want:
            cols["star"].append(float(max(np.maximum.reduce(An), -np.minimum.reduce(Bn))))
        if "maxh" in want:
            hn, tn = h2[: n + 2], t[: n + 1]
            np.subtract(bn[1:], bn[:-1], out=hn[1:])  # segment widths, then 2H
            np.add(An, Bn, out=tn)
            np.multiply(tn, hn[1:], out=tn)
            np.cumsum(tn, out=hn[1:])
            best = max(np.maximum.reduce(hn), -np.minimum.reduce(hn))
            inner = np.flatnonzero((An > 0.0) & (Bn < 0.0))
            if inner.size:
                a = An[inner]
                best = max(best, np.maximum.reduce(hn[inner] + a * a / n))
            cols["maxh"].append(0.5 * float(best))
    out: dict[str, np.ndarray] = {"n": np.asarray(ns, dtype=np.int64)}
    for name, col in cols.items():
        out[name] = np.asarray(col, dtype=np.float64)
    return out
