"""Greedy construction of Wasserstein-minimizing point sequences on [0,1].

Given points x_1, ..., x_n the next point is chosen to minimize the squared
W2 transport cost between the empirical measure of the augmented set and
Lebesgue measure on [0,1].  Dropping terms that do not depend on the new
point, this is equivalent to minimizing

    F(x) = (n+1) x^2 - x - 2 sum_k max(x, x_k),

and every minimizer of F has the form (2m+1)/(2n+2) with 0 <= m <= n, lies
strictly inside (0,1), and never coincides with an existing point.  The
greedy step therefore evaluates F only on that candidate set.

An independent route reaches the same choice through the counting-function
deviation g_n(x) = #{k : x_k <= x} - n x: adding a point at z changes
int_0^1 g^2 by E(z) + (z^3 + (1-z)^3)/3 where

    E(z) = -2 int_0^z g_n(x) x dx + 2 int_z^1 g_n(x) (1-x) dx,

so minimizing E(z) + (z^3 + (1-z)^3)/3 over the candidates selects the same
points (the two objectives differ by a constant of the current state).  Both
routes are implemented separately and cross-checked by the test suite.

The engine behind :func:`next_point` compares sums of deviations, not values
of F.  Index the sorted points from 0 and write S_i for the sum of the n-i
largest.  Then sum_k max(x, x_k) = max_i (i x + S_i), so F = min_i q_i with
q_i(x) = (n+1) x^2 - x - 2 (i x + S_i), least at c_i = (2i+1)/(2n+2), where

    q_m(c_m) = -2 S_0 - 1/(4(n+1)) + 2 D_m,
    D_m = sum_{k<m} (x_k - (k+1)/(n+1)).

So min F = min_m q_m(c_m) is a constant plus 2 min D.  Let m attain min D.
As D_{m+1} - D_m = x_m - (m+1)/(n+1) >= 0 and D_m - D_{m-1} = x_{m-1} -
m/(n+1) <= 0,

    x_{m-1} <= c_m - 1/(2n+2) < c_m < c_m + 1/(2n+2) <= x_m,

so c_m is feasible (exactly m points lie below it, none on it), F(c_m) =
q_m(c_m) = min F, and the new point takes rank m.  Conversely a minimizer
of F is no kink (F bends down at each point), so it is the stationary
point c_i of the piece q_i it lies on, and its D_i is least.  The tie set
is therefore {m : D_m = min D}, and the tie rule picks its least or
greatest m.  No feasibility test is needed: a candidate that is not
feasible, or that coincides with a point, has a neighbour whose D is
smaller by at least 1/(2n+2).

The state keeps float sums D^_m (m = 0..n) and a bound eps with
|D^_m - D_m| <= eps for every m, and updates both in place at each
insertion; u = 2^-53 is the unit roundoff and gamma_k = k u / (1 - k u).

Construction.  d^_k = fl(x^_k - fl((k+1)/(n+1))), where x^_k is the seed as
a double (correctly rounded; float seeds are exact), and D^ is their running
sum (numpy's cumsum, which adds in order).  Every D^_m is within

    E0 = 3 u n + gamma_n sum_k |d^_k|

of D_m: x^_k, the quotient and the difference each round once, by at most
u (all three lie in [-1, 1]), and a running sum of m terms errs by at most
gamma_{m-1} times the sum of their magnitudes (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, eq. 4.4).  The state starts from

    eps = 4 u (n+1) + 2 gamma_{n+1} sum_k |d^_k|,

whose excess over E0 covers, for n < 2^40, the rounding of the float sum
of the |d^_k| (relative error below gamma_n) and of eps itself.

Insertion.  Adding candidate m of step n+1 (the point (2m+1)/(2n+2) at
rank m) turns the sums into, with T_j = j(j+1)/2 and delta = 1/((n+1)(n+2)),

    D'_j = D_j + T_j delta                               for j <= m,
    D'_j = D_{j-1} + T_j delta - (2i+1)/(2n+2)           for j = m+1+i,

the last term being the new point minus j/(n+1).  The state shifts D^ up
by one rank above m, adds t^_j = fl(T_j fl(delta)) to every entry and then
w^_j = fl(-(2i+1)/(2n+2)) to those above m.  T_j and 2i+1 are exact
doubles, so t^_j errs by at most gamma_2 t_j <= gamma_2/2 (t_j <= 1/2) and
w^_j by at most u (|w_j| < 1).  An addition errs by at most u times its
computed result (Higham eq. 2.5), so with M' = max_j |D^'_j| an entry
below m errs by at most eps + gamma_2/2 + u M', and one above m by at most
eps + gamma_2/2 + u + u |a_j| + u M', where a_j = fl(D^_{j-1} + t^_j) has
|a_j| <= (1 + u) M' + 1.  As gamma_2/2 <= u (1 + 3u), both are at most
eps + 3u + 2u M' + u^2 (M' + 3), and the state advances

    eps' = eps (1 + 4u) + u (2 M' + 5),

which stays above that bound after its own three roundings while 5 M' + 13
<= 2/u; as |D_j| <= n, n < 2^40 suffices.  The update is one shift and
three elementwise passes over preallocated buffers, which double their
capacity when full, plus the max and min that give M'.

Window.  Let m^ attain min D^ and L = fl(D^_{m^} + 2 eps) raised by one ulp,
so L >= D^_{m^} + 2 eps.  For an exact minimizer m*, D^_{m*} <= D_{m*} +
eps <= D_{m^} + eps <= D^_{m^} + 2 eps <= L, so every exact minimizer lies
in the window {m : D^_m <= L}; comparing doubles with L is exact.

A window of one candidate is the answer.  A wider one is settled by exact
Fraction sums of the deviations over its ranks: the adaptive exact
predicate of Shewchuk (Adaptive Precision Floating-Point Arithmetic and
Fast Robust Geometric Predicates, 1997).  A candidate that is not feasible
lies at least 1/(2n+2) above the exact minimum, so it enters the window
only if 4 eps plus one ulp of L exceeds that gap, and the exact stage then
drops it.  No float comparison of a candidate with a point is made, so none
can come out equal and need settling.  Seeds are checked to lie in [0, 1];
a deviation sum that is not a finite number (only a corrupted state holds
one) makes the minimum or maximum of D^ non-finite and raises
:class:`GreedyInvariantError`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .numeric import (
    Backend,
    BackendMismatch,
    ConfigError,
    DomainError,
    is_float_scalar,
    is_rational_scalar,
)

__all__ = [
    "CandidateEvaluation",
    "GreedyInvariantError",
    "SequenceState",
    "TIE_RULES",
    "e_functional",
    "enumerate_candidates",
    "extend",
    "greedy_values",
    "kritzinger_f",
    "next_point",
    "next_point_via_e",
]

TIE_RULES = ("smallest", "largest")

_U = 2.0**-53  # unit roundoff of float64


class GreedyInvariantError(RuntimeError):
    """The state contradicts the minimizer structure; it has been corrupted."""


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate (2m+1)/(2n+2) paired with its functional value.

    ``value`` and ``f_value`` are exact fractions in either backend, so
    candidates tie exactly when their ``f_value`` are equal.  A candidate
    may coincide with an existing point for particular states; such
    candidates can never attain the global minimum and are skipped when the
    next point is selected.
    """

    m: int
    value: Fraction
    f_value: Fraction


class SequenceState:
    """Sorted point multiset on [0,1] being grown one point at a time.

    Both backends hold the same state: the sorted points as exact
    Fractions (a float state's seeds are the doubles nearest the given
    values, converted once), the float deviation sums D^_0..D^_n the greedy
    kernel filters with, and the bound ``eps`` on their rounding error (see
    the module docstring).  Each insertion updates D^ and ``eps`` in place.
    The backend fixes only the scalar type of what the state hands out; a
    float state's points are the doubles nearest the exact ones.  The point
    added at step k (the state then holds k points) is (2m+1)/(2k) for its
    rank m, so its raw form follows from its value and step and is not
    stored.  Every evaluation computes on the exact points and converts its
    result to the backend's scalar type once, at the return.
    """

    # _dev holds D^ in its first n+1 entries; _tmp and _mask are scratch;
    # _tri (T_j) and _odd (2j+1) are constant tables that copies share.  All
    # five have the same capacity and are replaced, never resized, on growth.
    __slots__ = (
        "backend",
        "seed_count",
        "_pts",
        "_dev",
        "_eps",
        "_tmp",
        "_mask",
        "_tri",
        "_odd",
    )

    def __init__(self, seeds: Iterable = (), backend: Backend = Backend.RATIONAL) -> None:
        if not isinstance(backend, Backend):
            backend = Backend.from_str(backend)
        self.backend = backend
        seeds = list(seeds)
        self.seed_count = len(seeds)
        rational = backend is Backend.RATIONAL
        vals = []
        for s in seeds:
            v = _unit_scalar(backend, s, "seed")
            # a float state seeds from the nearest double
            vals.append(Fraction(v if rational else float(v)))
        self._pts = sorted(vals)
        arr = np.array([float(p) for p in self._pts], dtype=np.float64)
        n = arr.size
        self._dev = np.empty(0)
        self._reserve(2 * (n + 1))
        d = arr - np.arange(1, n + 1) / (n + 1)
        self._dev[0] = 0.0
        np.cumsum(d, out=self._dev[1 : n + 1])
        gamma = (n + 1) * _U / (1.0 - (n + 1) * _U)
        self._eps = 4.0 * _U * (n + 1) + 2.0 * gamma * float(np.abs(d).sum())

    def _reserve(self, size: int) -> None:
        """Give every buffer room for ``size`` entries, doubling the capacity."""
        old = self._dev
        if size <= old.size:
            return
        cap = max(2 * old.size, size)
        j = np.arange(cap, dtype=np.float64)
        self._tri = j * (j + 1) / 2  # exact while cap < 2^26
        self._odd = 2 * j + 1
        self._tri.flags.writeable = self._odd.flags.writeable = False
        self._tmp = np.empty(cap)
        self._mask = np.empty(cap, dtype=bool)
        self._dev = np.empty(cap)
        self._dev[: old.size] = old

    @property
    def n(self) -> int:
        return len(self._pts)

    @property
    def exact_points(self) -> list[Fraction]:
        """Sorted exact point values as Fractions, in either backend (fresh list)."""
        return list(self._pts)

    @property
    def points(self) -> list:
        """Sorted point values in the backend's scalar type (fresh list)."""
        if self.backend is Backend.RATIONAL:
            return list(self._pts)
        return [float(p) for p in self._pts]

    def copy(self) -> "SequenceState":
        dup = SequenceState((), backend=self.backend)
        dup.seed_count = self.seed_count
        dup._pts = list(self._pts)
        dup._dev = self._dev.copy()
        dup._eps = self._eps
        dup._tmp = self._tmp.copy()
        dup._mask = self._mask.copy()
        dup._tri, dup._odd = self._tri, self._odd
        return dup

    def __repr__(self) -> str:
        return (
            f"SequenceState(n={self.n}, backend={self.backend.value}, "
            f"seeds={self.seed_count}, chosen={self.n - self.seed_count})"
        )

    def _scalar(self, value: Fraction) -> Fraction | float:
        """An exact value in the backend's scalar type."""
        return value if self.backend is Backend.RATIONAL else float(value)

    def _insert_candidate(self, m: int) -> Fraction:
        """Insert candidate m of the current step, which is feasible (m points
        lie below it), and update D^ and ``eps`` as the module docstring
        derives; returns the point's exact value."""
        n = self.n
        value = Fraction(2 * m + 1, 2 * n + 2)
        end = n + 2
        self._reserve(end)
        dev, tmp = self._dev[:end], self._tmp[:end]
        upper, w = dev[m + 1 :], tmp[: end - m - 1]
        upper[:] = dev[m:-1]
        np.multiply(self._tri[:end], 1 / ((n + 1) * (n + 2)), out=tmp)
        np.add(dev, tmp, out=dev)
        np.divide(self._odd[: end - m - 1], -(2 * n + 2), out=w)
        np.add(upper, w, out=upper)
        top = max(float(np.maximum.reduce(dev)), -float(np.minimum.reduce(dev)))
        self._eps = self._eps * (1.0 + 4.0 * _U) + _U * (2.0 * top + 5.0)
        self._pts.insert(m, value)
        return value


def _unit_scalar(backend: Backend, x, what: str):
    """``x`` unchanged after two checks: it is a rational, or a float on a
    float backend (else ``BackendMismatch``), and it lies in [0, 1] (else
    ``DomainError``); ``what`` names it in the messages."""
    if not (is_rational_scalar(x) or (backend is Backend.FLOAT and is_float_scalar(x))):
        raise BackendMismatch(f"{backend.value}-backend state got {type(x).__name__} {what} {x!r}")
    if not 0 <= x <= 1:  # NaN fails too
        raise DomainError(f"{what} {x!r} lies outside [0, 1]")
    return x


def kritzinger_f(state: SequenceState, x) -> Fraction | float:
    """Evaluate F(x) = (n+1)x^2 - x - 2 sum_k max(x, x_k).

    Points equal to x contribute x to the max-sum either way, so the split
    into #(points below x) and a suffix sum over points >= x is exact.
    """
    x = Fraction(_unit_scalar(state.backend, x, "argument"))
    pts = state.exact_points
    i = bisect.bisect_left(pts, x)
    return state._scalar((state.n + 1) * x * x - x - 2 * (x * i + sum(pts[i:])))


def enumerate_candidates(state: SequenceState) -> list[CandidateEvaluation]:
    """All n+1 candidates (2m+1)/(2n+2) with their exact F values, ascending in m.

    One sweep over the sorted points serves every candidate: candidates
    ascend with m, so the below-count pointer never backtracks.
    """
    n = state.n
    q = 2 * n + 2
    pts = state.exact_points
    sfx = [0] * (n + 1)  # sfx[i] = sum of points[i:]
    for i in range(n - 1, -1, -1):
        sfx[i] = sfx[i + 1] + pts[i]
    out: list[CandidateEvaluation] = []
    t = 0
    for m in range(n + 1):
        c = Fraction(2 * m + 1, q)
        while t < n and pts[t] < c:
            t += 1
        f = (n + 1) * c * c - c - 2 * (c * t + sfx[t])
        out.append(CandidateEvaluation(m=m, value=c, f_value=f))
    return out


def _check_tie_rule(tie_rule: str) -> None:
    if tie_rule not in TIE_RULES:
        raise ConfigError(f"unknown tie rule {tie_rule!r}; expected one of {TIE_RULES}")


def _invariant_error(n: int, lo: int, hi: int, what: str) -> GreedyInvariantError:
    return GreedyInvariantError(
        f"step {n + 1} (n = {n}), candidate ranks m = {lo}..{hi}: {what}; "
        "the state contradicts the minimizer structure (it has been corrupted)"
    )


def _select(objectives, collides, tie_rule: str) -> int:
    """Index of the minimizing entry under the tie rule.

    The objectives are exact, so ties are equality.  Entries flagged in
    ``collides`` coincide with an existing point; they can never attain the
    true minimum, so they are dropped from the tie set rather than selected.
    """
    best = min(objectives)
    tie = [m for m, v in enumerate(objectives) if v == best]
    eligible = [m for m in tie if not collides[m]]
    if not eligible:
        raise _invariant_error(
            len(objectives) - 1,
            tie[0],
            tie[-1],
            "every minimizing candidate coincides with an existing point",
        )
    return eligible[0] if tie_rule == "smallest" else eligible[-1]


def _argmin(state: SequenceState, tie_rule: str) -> int:
    """The tie rule's pick among the candidates of least D_m.

    The float filter over the state's D^, its error bound and the exact
    fallback are derived in the module docstring.  The pick is feasible, so
    its rank among the points is m itself.
    """
    n = state.n
    dev = state._dev[: n + 1]
    m = int(dev.argmin())
    lo, hi = float(dev[m]), float(np.maximum.reduce(dev))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _invariant_error(n, 0, n, "a deviation sum is not a finite number")
    limit = math.nextafter(lo + 2.0 * state._eps, math.inf)
    mask = state._mask[: n + 1]
    np.less_equal(dev, limit, out=mask)
    if np.count_nonzero(mask) == 1:
        return m
    return _exact_argmin(state, np.flatnonzero(mask).tolist(), tie_rule)


def _exact_argmin(state: SequenceState, window: list[int], tie_rule: str) -> int:
    """The tie rule's pick among the window's ranks, by exact D_m differences."""
    pts = state._pts
    np1 = state.n + 1
    k = window[0]
    exact_d = Fraction(0)  # D_m - D_k for the window's first rank k
    ranked = []
    for w in window:
        while k < w:
            exact_d += pts[k] - Fraction(k + 1, np1)
            k += 1
        ranked.append((exact_d, w))
    best = min(v for v, _ in ranked)
    tied = [w for v, w in ranked if v == best]
    return tied[0] if tie_rule == "smallest" else tied[-1]


def next_point(state: SequenceState, tie_rule: str = "smallest") -> Fraction:
    """Greedy step: append and return the F-minimizing candidate.

    Among exact ties the tie rule picks the smallest or largest candidate
    value.  The decision is exact in both backends (see the module
    docstring); the returned fraction is the exact chosen value, which the
    state stores.
    """
    _check_tie_rule(tie_rule)
    return state._insert_candidate(_argmin(state, tie_rule))


def e_functional(state: SequenceState, z) -> Fraction | float:
    """Evaluate E(z) = -2 int_0^z g x dx + 2 int_z^1 g (1-x) dx exactly.

    Integrating the step structure of g_n termwise gives the closed form

        E(z) = -sum_{x_k <= z} (z^2 - x_k^2)
               + sum_k (1 - max(x_k, z))^2 + n z^2 - n/3,

    used here with prefix/suffix splits at z (points equal to z contribute
    identically to either side).
    """
    z = Fraction(_unit_scalar(state.backend, z, "argument"))
    n = state.n
    pts = state.exact_points
    j = bisect.bisect_right(pts, z)
    a = sum(p * p for p in pts[:j])
    b = sum((1 - p) * (1 - p) for p in pts[j:])
    return state._scalar(-j * z * z + a + j * (1 - z) * (1 - z) + b + n * z * z - Fraction(n, 3))


def next_point_via_e(state: SequenceState, tie_rule: str = "smallest") -> Fraction:
    """Greedy step through the independent objective E(z) + (z^3+(1-z)^3)/3.

    Shares no functional-evaluation code with :func:`next_point`; the two
    must select identical points, which the verification suite checks.  The
    objective is evaluated exactly on the exact points in either backend, so
    candidates tie exactly when their values are equal.
    """
    _check_tie_rule(tie_rule)
    n = state.n
    q = 2 * n + 2
    pts = state.exact_points
    n_third = Fraction(n, 3)
    pre = [0] * (n + 1)  # pre[i] = sum of x_k^2 over the i smallest points
    for k, p in enumerate(pts):
        pre[k + 1] = pre[k] + p * p
    suf = [0] * (n + 1)  # suf[i] = sum of (1-x_k)^2 over points[i:]
    for k in range(n - 1, -1, -1):
        suf[k] = suf[k + 1] + (1 - pts[k]) * (1 - pts[k])
    objectives = []
    collides = []
    below = []
    t = 0
    for m in range(n + 1):
        c = Fraction(2 * m + 1, q)
        while t < n and pts[t] <= c:
            t += 1
        collides.append(t > 0 and pts[t - 1] == c)
        below.append(t)
        e = -t * c * c + pre[t] + t * (1 - c) * (1 - c) + suf[t] + n * c * c - n_third
        cc = 1 - c
        objectives.append(e + (c * c * c + cc * cc * cc) / 3)
    m = _select(objectives, collides, tie_rule)
    if below[m] != m:
        raise _invariant_error(n, m, m, f"the minimizer has {below[m]} points below it")
    return state._insert_candidate(m)


def extend(state: SequenceState, count: int, tie_rule: str = "smallest") -> list[Fraction]:
    """Grow the state until it holds ``count`` points; returns the exact
    additions in step order."""
    if count < state.n:
        raise DomainError(f"cannot shrink a state of {state.n} points to {count}")
    return [next_point(state, tie_rule) for _ in range(count - state.n)]


def greedy_values(
    seeds: Sequence[float] = (),
    count: int = 1,
    tie_rule: str = "smallest",
) -> np.ndarray:
    """Float-backend run returning values in append order (seeds first)."""
    state = SequenceState(seeds, backend=Backend.FLOAT)
    chosen = extend(state, count, tie_rule)
    vals = [float(s) for s in seeds] + [float(c) for c in chosen]
    return np.asarray(vals, dtype=np.float64)
