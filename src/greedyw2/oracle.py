"""Brute-force numerical oracles for cross-checking the closed forms.

Nothing here shares formulas with the analytic implementations: objectives
are evaluated from their defining integrals or by dense grid scans, so
agreement between the two routes is evidence, not tautology.  Each oracle
takes a plain int ``resolution``, the number of uniform cells over [0, 1];
a value below 2 raises ``DomainError``.  Functions with known interior
breakpoints (counting functions, quantile maps) are integrated segment by
segment, so a cell never straddles a jump.  The quadrature is composite
Simpson on vectorized integrands (float64 array in, array of the same
shape out), exact on the piecewise-quadratic defining integrands.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .numeric import DomainError

__all__ = [
    "ARGMIN_RESOLUTION",
    "QUADRATURE_RESOLUTION",
    "grid_argmin_w2",
    "grid_max_abs_h",
    "quadrature_split",
    "w2_defining_integral",
    "l2_defining_integral",
]

#: Default grid density for argmin / max scans.
ARGMIN_RESOLUTION = 10**6
#: Default cell count for quadrature oracles.
QUADRATURE_RESOLUTION = 10**4


def _check_resolution(resolution: int) -> None:
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")


def _segments(breaks: Iterable[float], resolution: int) -> list[tuple[float, float, int]]:
    """(a, b, cells) for the segments of [0, 1] cut at the breaks inside it.

    Cells go to segments in proportion to their length, at least one each.
    """
    _check_resolution(resolution)
    edges = sorted({0.0, 1.0} | {float(b) for b in breaks if 0.0 < float(b) < 1.0})
    return [(a, b, max(1, round(resolution * (b - a)))) for a, b in zip(edges, edges[1:])]


def _simpson(f: Callable, a: float, b: float, cells: int) -> float:
    edges = np.linspace(a, b, cells + 1)
    h = (b - a) / cells
    # The integrand may jump exactly at the interval endpoints (they are the
    # split points), so the end nodes are evaluated as one-sided limits.
    nodes = edges.copy()
    nodes[0] = np.nextafter(a, b)
    nodes[-1] = np.nextafter(b, a)
    ye = f(nodes)
    ym = f((edges[:-1] + edges[1:]) / 2.0)
    return (h / 6.0) * float((ye[:-1] + 4.0 * ym + ye[1:]).sum())


def quadrature_split(
    f: Callable, breaks: Iterable[float], resolution: int = QUADRATURE_RESOLUTION
) -> float:
    """Composite Simpson estimate of int_0^1 f, split at known breakpoints."""
    return sum(_simpson(f, a, b, cells) for a, b, cells in _segments(breaks, resolution))


def _float_points(points: Sequence) -> np.ndarray:
    return np.asarray([float(p) for p in points], dtype=np.float64)


def w2_defining_integral(points: Sequence, resolution: int = QUADRATURE_RESOLUTION) -> float:
    """Quadrature of sum_i int_{(i-1)/n}^{i/n} (x - x_i)^2 dx for sorted points."""
    x = _float_points(points)
    n = x.size
    if n == 0:
        raise DomainError("point set must not be empty")
    # Index quantile segments via the same float breakpoint array the
    # splitter uses, so the integrand's jumps sit exactly on split points.
    breaks = np.array([i / n for i in range(1, n)], dtype=np.float64)

    def integrand(t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(breaks, t, side="right")
        return (t - x[idx]) ** 2

    return quadrature_split(integrand, breaks, resolution)


def l2_defining_integral(points: Sequence, resolution: int = QUADRATURE_RESOLUTION) -> float:
    """Quadrature of int_0^1 (#{x_k <= t} - n t)^2 dt for sorted points."""
    x = _float_points(points)
    n = x.size
    if n == 0:
        raise DomainError("point set must not be empty")

    def integrand(t: np.ndarray) -> np.ndarray:
        return (np.searchsorted(x, t, side="right") - n * t) ** 2

    return quadrature_split(integrand, x, resolution)


def grid_max_abs_h(points: Sequence, resolution: int = ARGMIN_RESOLUTION) -> float:
    """Grid estimate of sup |int_0^t g| by cumulative per-segment midpoint sums.

    g is evaluated pointwise through the counting function; segments are cut
    at the data points, where the midpoint rule integrates the in-segment
    linear part of g without error.
    """
    x = _float_points(points)
    n = x.size
    best = 0.0
    h_acc = 0.0
    for a, b, cells in _segments(x, resolution):
        nodes = np.linspace(a, b, cells + 1)
        mids = (nodes[:-1] + nodes[1:]) / 2.0
        g_mid = np.searchsorted(x, mids, side="right") - n * mids
        h_vals = h_acc + np.cumsum(g_mid) * ((b - a) / cells)
        best = max(best, float(np.abs(h_vals).max()))
        h_acc = float(h_vals[-1])
    return best


def grid_argmin_w2(points: Sequence, resolution: int = ARGMIN_RESOLUTION) -> float:
    """Grid point minimizing W2^2 of the augmented empirical measure.

    For each node t the candidate set is the sorted insertion of t into the
    sorted points, and W2^2 comes from the expanded defining integral

        1/3 + (sum x^2 + t^2)/m - (sum_k (2k-1) y_k)/m^2,   m = n+1,

    with the rank weights re-read off the insertion position.  Ties resolve
    to the smallest node.
    """
    _check_resolution(resolution)
    x = _float_points(points)
    n = x.size
    m = n + 1
    t = np.linspace(0.0, 1.0, resolution + 1)
    j = np.searchsorted(x, t, side="left")
    odd = np.dot(2 * np.arange(1, n + 1) - 1, x)
    suffix = np.concatenate((np.cumsum(x[::-1])[::-1], [0.0]))
    s2 = float(np.dot(x, x))
    w2 = (
        1.0 / 3.0
        + (s2 + t * t) / m
        - (odd + t * (2 * j + 1) + 2.0 * suffix[j]) / (m * m)
    )
    return float(t[int(np.argmin(w2))])
