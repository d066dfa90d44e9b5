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
code relies on it.  Every closed form takes ints and Fractions only and
returns an exact Fraction; a float point raises DomainError, so pass
``Fraction(x)`` (exact, since a double is a binary fraction).

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
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .greedy import SequenceState, e_functional
from .lemma import PiecewiseFunction
from .numeric import DomainError, unit_rational

__all__ = [
    "DiscrepancyReport",
    "l2_discrepancy_squared",
    "max_abs_H",
    "metric_series",
    "report",
    "star_discrepancy",
    "star_over_log",
    "step_identity_check",
    "w2_squared",
]


def _validated(points: Iterable, allow_empty: bool = False) -> list[Fraction]:
    pts = [unit_rational(p, "point") for p in points]
    if not pts and not allow_empty:
        raise DomainError("point set must not be empty")
    if any(b < a for a, b in zip(pts, pts[1:])):
        raise DomainError("points must be sorted ascending")
    return pts


def w2_squared(points: Iterable) -> Fraction:
    """Squared W2 distance between the empirical measure of sorted points
    and Lebesgue measure on [0,1].

    Expands sum_i int_{(i-1)/n}^{i/n} (x - x_i)^2 dx exactly.
    """
    x = _validated(points)
    n = len(x)
    s2 = sum(p * p for p in x)
    s1 = sum((2 * k - 1) * p for k, p in enumerate(x, 1))
    return (Fraction(n * n, 3) + n * s2 - s1) / (n * n)


def l2_discrepancy_squared(points: Iterable) -> Fraction:
    """int_0^1 (f_n(x) - nx)^2 dx for the sorted multiset (count scale)."""
    pts = _validated(points)
    n = len(pts)
    acc = sum((p - Fraction(2 * k - 1, 2 * n)) ** 2 for k, p in enumerate(pts, 1))
    return n * acc + Fraction(1, 12)


def star_discrepancy(points: Iterable) -> Fraction:
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


def max_abs_H(points: Iterable) -> Fraction:
    """sup_x |H(x)| with H(x) = int_0^x g, computed exactly.

    H is piecewise quadratic, so its extrema lie at breakpoints or at
    interior zeros of g; ``lemma.PiecewiseFunction`` scans that finite set.
    The points must be sorted and lie in [0, 1]; an empty set gives 0.
    """
    pts = _validated(points, allow_empty=True)
    return PiecewiseFunction.from_counting_deviation(pts).max_abs_antiderivative()


def step_identity_check(state: SequenceState, chosen) -> Fraction:
    """Residual of the one-step update identity for int g^2.

    Adding a point at z to a state with deviation g_n must satisfy
    int g_{n+1}^2 = int g_n^2 + E(z) + (z^3 + (1-z)^3)/3.  Returns
    int g_{n+1}^2 minus the right-hand side, computed exactly on the state's
    exact points in either backend.  ``chosen`` is an int or a Fraction in
    [0, 1], such as the exact value a greedy step returns.
    """
    z = unit_rational(chosen, "chosen point")
    pts = state.exact_points
    l2_old = l2_discrepancy_squared(pts) if pts else 0
    l2_new = l2_discrepancy_squared(sorted(pts + [z]))
    w = 1 - z
    return l2_new - (l2_old + e_functional(state, z) + (z**3 + w**3) / 3)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Bundle of the four regularity metrics for one point count."""

    n: int
    w2_squared: Fraction
    l2_disc_squared: Fraction
    star_disc: Fraction
    max_abs_h: Fraction

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
    """One-shot exact report for a sorted multiset; W2^2 is read off
    int g^2 = n^2 W2^2."""
    pts = _validated(points)
    n, l2 = len(pts), l2_discrepancy_squared(pts)
    return DiscrepancyReport(
        n=n,
        w2_squared=l2 / (n * n),
        l2_disc_squared=l2,
        star_disc=star_discrepancy(pts),
        max_abs_h=max_abs_H(pts),
    )


# -- batch float path ----------------------------------------------------

_METRICS = ("w2", "l2", "star", "maxh")

# A row of n points weighs n + ROW_POINTS when a series is cut into slices,
# and a slice that weighs less than SLICE_FLOOR earns no worker process;
# ``metric_series`` says how both were set.
ROW_POINTS = 4096
SLICE_FLOOR = 1 << 20


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sorted_prefixes(
    vals: np.ndarray, every: int, start: int, bufs: list[np.ndarray] | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, the first n values sorted) for every ``every``-th n after
    ``start``, a row of it or 0, and for the full length.

    The rows live in ``bufs`` = [b, spare] (made if not given), arrays of
    size + 2 that start with 0: the yield is b[1 : n+1], and b[n+1] = 1.  A
    stride of one is shifted into b; a stride of s > 1 is sorted and merged
    with b into spare, which then swaps with b, so a row costs
    O(n + s log s).  Between rows the caller may use spare but its [0].
    ``every`` must be at least 1.
    """
    total = vals.size
    if bufs is None:
        bufs = [np.zeros(total + 2), np.zeros(total + 2)]
    row = bufs[0][1:]  # b without its leading 0: the prefix, then 1
    row[:start] = vals[:start]
    row[:start].sort()
    row[start] = 1.0  # moves up as each row's values come in
    keep = np.empty(total + 1, dtype=bool)  # which merged entries come from b
    i = start
    while i < total:
        n = min(i + every, total)
        if n == i + 1:
            v = vals[i]
            pos = int(np.searchsorted(row[:i], v))
            row[pos + 1 : n + 1] = row[pos:n]
            row[pos] = v
        else:
            chunk = np.sort(vals[i:n])
            pos = np.searchsorted(row[:i], chunk)
            pos += np.arange(n - i)  # the stride's places in the merged row
            merged, kept = bufs[1][1 : n + 2], keep[: n + 1]
            kept.fill(True)
            kept[pos] = False
            merged[pos] = chunk
            merged[kept] = row[: i + 1]
            bufs.reverse()
            row = bufs[0][1:]
        yield n, row[:n]
        i = n


def metric_series(
    values: Sequence[float],
    metrics: Sequence[str] = _METRICS,
    every: int = 1,
) -> dict[str, np.ndarray]:
    """Per-prefix metrics of an append-ordered float sequence.

    Returns arrays keyed by 'n' plus the requested metric names; rows cover
    every ``every``-th prefix size and always the full length.  The prefixes
    come from ``_sorted_prefixes``.  Each row reads every requested column
    from a few arrays that it fills in place, so a row costs O(n)
    elementwise work on top of its prefix and makes no BLAS call:

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

    A slice holds six float64 arrays of its size N: counts 0..N, odd
    weights, b, a spare, A and B.  The spare takes a strided row's merge,
    then nb, then 2H; B holds d, then A + B.  With three boolean masks
    that is about 51 bytes per point.

    A row depends only on its sorted prefix, so a large series is cut into
    contiguous slices of rows of about equal weight, one per usable CPU.  A
    row of n points weighs n + ``ROW_POINTS`` = n + 4096: it costs about
    25-45 us plus 8-9 ns per point (fits over dense rows of 200-8000
    uniform points on a 2-core x86-64 host), so its fixed part is worth
    about 3000-4700 points.  This process computes the first slice; each
    other slice runs in a child made with ``os.fork``, which sorts the
    prefix before its first row once and sends its columns back over a pipe
    as float64 bytes.  Every row is computed by the same code from the same
    sorted multiset, so the output bytes do not depend on the number of
    slices.  A slice weighs at least ``SLICE_FLOOR`` = 2^20, about 9-10 ms
    of rows, because a fork, pipe and reap round trip costs about 2-3 ms in
    a numpy process of 40-50 MB: a lighter slice would spend a large share
    of its time on its worker.  A dense series splits from about 490 points
    on; the 10 rows of a 100k-point series at stride 10000 (weight 5.9e5)
    stay one slice.  Without ``os.fork`` the series runs as one slice.

    The float columns agree with the exact closed forms to about 1e-13
    relative; they are for plotting and for bounds with real slack, not for
    near-tie decisions.  Raises DomainError for an empty sequence, a value
    that is NaN or outside [0, 1], an unknown metric or a stride below 1,
    and RuntimeError, naming the slice, when a worker fails.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise DomainError("empty sequence")
    outside = ~((vals >= 0.0) & (vals <= 1.0))  # NaN compares false
    if outside.any():
        raise DomainError(f"point {float(vals[outside][0])!r} lies outside [0, 1]")
    want = set(metrics)
    unknown = want - set(_METRICS)
    if unknown:
        raise DomainError(f"unknown metrics {sorted(unknown)}")
    if every < 1:
        raise DomainError(f"stride must be >= 1, got {every}")
    names = tuple(name for name in _METRICS if name in want)
    ns = np.arange(every, vals.size + 1, every, dtype=np.int64)
    if ns.size == 0 or ns[-1] != vals.size:
        ns = np.append(ns, np.int64(vals.size))
    parts = _run_slices(vals, names, every, _slice_stops(ns))
    out: dict[str, np.ndarray] = {"n": ns}
    for j, name in enumerate(names):
        out[name] = np.concatenate([part[j] for part in parts])
    return out


def _slice_stops(ns: np.ndarray) -> list[int]:
    """The prefix sizes at which the slices of the rows ``ns`` end: at most
    one slice per usable CPU and per row, each of about equal weight and
    weighing at least ``SLICE_FLOOR``."""
    weight = ns + ROW_POINTS
    work = np.cumsum(weight)
    slices = 1
    if hasattr(os, "fork"):
        slices = max(1, min(_usable_cpus(), int(work[-1]) // SLICE_FLOOR, ns.size))
    # Each row goes to the slice in which the middle of its weight falls.
    ends = np.searchsorted(work - weight / 2, work[-1] * np.arange(1, slices) / slices) - 1
    return sorted({*ns[ends].tolist(), int(ns[-1])})


def _row_count(start: int, stop: int, every: int) -> int:
    """The number of rows after prefix size ``start`` up to ``stop``."""
    return -(-(stop - start) // every)


def _run_slices(vals: np.ndarray, names: tuple[str, ...], every: int, stops: list[int]) -> list[np.ndarray]:
    """The columns of each slice of rows ending at ``stops``, as
    (len(names), rows) arrays: the first slice computed here and each other
    one in a forked worker.  Every worker is reaped before this returns or
    raises; on an error or an interrupt here, the workers still running are
    killed first."""
    starts = [0, *stops[:-1]]
    workers: list[tuple[int, int]] = []  # (pid, pipe read end), oldest first
    try:
        for start, stop in zip(starts[1:], stops[1:]):
            workers.append(_start_worker(vals[:stop], names, every, start))
        parts = [_metric_rows(vals[: stops[0]], names, every, 0)]
        for j in range(1, len(stops)):
            pid, fd = workers[0]
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            os.close(fd)
            if code != 0:
                raise RuntimeError(
                    f"metric_series worker for slice {j + 1} of {len(stops)} (prefix sizes "
                    f"{starts[j] + 1}..{stops[j]}) failed with exit code {code}: "
                    f"{data.decode(errors='replace')}"
                )
            rows = _row_count(starts[j], stops[j], every)
            parts.append(np.frombuffer(data, dtype=np.float64).reshape(len(names), rows))
        return parts
    finally:
        if workers:
            import signal

            for pid, fd in workers:
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _start_worker(vals: np.ndarray, names: tuple[str, ...], every: int, start: int) -> tuple[int, int]:
    """Fork a worker that computes the rows after prefix size ``start`` and
    writes their columns to a pipe as float64 bytes, or on failure the
    error's repr and exit code 1.  Returns (pid, the pipe's read end)."""
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that fork() in a multi-threaded process may
            # deadlock the child.  numpy's other thread is OpenBLAS's idle
            # pool; the child takes none of its locks, since it runs only
            # ufunc loops, searchsorted and sort, and leaves through _exit.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                data, failed = _metric_rows(vals, names, every, start).tobytes(), False
            except BaseException as exc:
                data, failed = repr(exc).encode(), True
            with open(write_end, "wb") as fh:
                fh.write(data)
            code = int(failed)
        finally:
            os._exit(code)  # never return into the caller's stack
    os.close(write_end)
    return pid, read_end


def _metric_rows(vals: np.ndarray, names: tuple[str, ...], every: int, start: int) -> np.ndarray:
    """The ``metric_series`` columns ``names`` of the rows after prefix size
    ``start`` up to ``vals.size``, as a (len(names), rows) float64 array."""
    want = set(names)
    quad = bool(want & {"w2", "l2"})
    jumps = bool(want & {"star", "maxh"})
    size = vals.size
    counts = np.arange(size + 1, dtype=np.float64)  # 0, 1, ..., N
    odd = 2.0 * counts[1:] - 1.0  # odd weights 1, 3, ..., 2N-1
    bufs = [np.zeros(size + 2), np.zeros(size + 2)]  # b and a spare
    A, B = np.empty(size + 1), np.empty(size + 1)  # B first holds d
    rising, falling = np.empty(size + 1, dtype=bool), np.empty(size + 1, dtype=bool)
    cols: dict[str, list[float]] = {name: [] for name in names}
    for n, x in _sorted_prefixes(vals, every, start, bufs):
        if quad:
            dn = B[:n]
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
        bn, spare, An, Bn = bufs[0][: n + 2], bufs[1][: n + 2], A[: n + 1], B[: n + 1]
        np.multiply(bn, n, out=spare)  # n b
        np.subtract(counts[: n + 1], spare[:-1], out=An)
        np.subtract(counts[: n + 1], spare[1:], out=Bn)
        if "star" in want:
            cols["star"].append(float(max(np.maximum.reduce(An), -np.minimum.reduce(Bn))))
        if "maxh" in want:
            zero = np.greater(An, 0.0, out=rising[: n + 1])
            zero &= np.less(Bn, 0.0, out=falling[: n + 1])
            np.add(An, Bn, out=Bn)  # A + B
            np.subtract(bn[1:], bn[:-1], out=spare[1:])  # segment widths, then 2H
            np.multiply(Bn, spare[1:], out=Bn)
            np.cumsum(Bn, out=spare[1:])
            best = max(np.maximum.reduce(spare), -np.minimum.reduce(spare))
            inner = zero.nonzero()[0]
            if inner.size:
                a = An[inner]
                best = max(best, np.maximum.reduce(spare[inner] + a * a / n))
            cols["maxh"].append(0.5 * float(best))
    rows = _row_count(start, size, every)
    return np.array([cols[name] for name in names], dtype=np.float64).reshape(len(names), rows)
