"""Executable verification suites for the structural claims.

Each suite re-checks one claim at a configurable budget and reports named
checks with signed margins (nonnegative means pass, and the value is the
distance to failure).  The suites only combine public operations from the
other modules, pairing independent evaluation routes wherever a claim has
two sides.  The two L^2 suites, ``kritzinger_bound`` and ``prop2``, check
the same three random-seed runs.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import lemma, metrics, oracle
from .greedy import (
    Backend,
    SequenceState,
    enumerate_candidates,
    extend,
    greedy_values,
    next_point,
    next_point_via_e,
    kritzinger_f,
)
from .numeric import ConfigError

__all__ = ["CheckResult", "SuiteReport", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    budget: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "budget": self.budget,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "margin": float(c.margin) + 0.0,  # drop the sign of -0.0
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _random_rational_points(rng: random.Random, n: int, max_den: int = 64) -> list[Fraction]:
    pts = []
    for _ in range(n):
        d = rng.randint(1, max_den)
        pts.append(Fraction(rng.randint(0, d), d))
    pts.sort()
    return pts


def l2_series_fsum(values) -> np.ndarray:
    """Per-prefix int g^2 via exact-rounded float summation.

    One fsum per prefix keeps each value within an ulp or two, so adjacent
    differences are trustworthy at the 1e-12 scale that the per-step
    increment check needs.
    """
    vals = np.asarray(values, dtype=np.float64)
    out = np.empty(vals.size, dtype=np.float64)
    odd = 2.0 * np.arange(1, vals.size + 1) - 1.0  # odd weights 1, 3, ..., 2N-1
    for n, x in metrics.sorted_prefixes(vals):
        d = x - odd[:n] / (2.0 * n)
        out[n - 1] = n * math.fsum((d * d).tolist()) + 1.0 / 12.0
    return out


def _l2_runs(budget: int, seed: int):
    """The three random-seed runs that the two L^2 suites share.

    Yields ``(r, n0, l2)``: the run index, the number n0 of uniform float
    seeds (at most 50, and below the budget so that every run takes a
    greedy step), and the ``l2_series_fsum`` of the run extended to the
    budget.
    """
    rng = random.Random(seed)
    for r in range(3):
        n0 = rng.randint(0, min(50, budget - 1))
        seeds = [rng.random() for _ in range(n0)]
        yield r, n0, l2_series_fsum(greedy_values(seeds, budget))


# -- suites ---------------------------------------------------------------


def suite_theorem1(budget: int = 200, seed: int = 0) -> list[CheckResult]:
    """Greedy W2 minimization selects exactly the F-minimizing candidates.

    Checks, on random exact states: (a) differences of F across candidate
    pairs equal (n+1)^2 times the corresponding differences of the
    augmented-set W2^2 computed by the transport closed form; (b) the two
    greedy routes (F and the counting-deviation objective) pick identical
    points.
    """
    rng = random.Random(seed)
    worst_residual = Fraction(0)
    mismatches = 0
    for _ in range(budget):
        n = rng.randint(0, 20)
        pts = _random_rational_points(rng, n)
        state = SequenceState(pts, backend=Backend.RATIONAL)
        cand = [Fraction(2 * m + 1, 2 * n + 2) for m in range(n + 1)]
        a, b = rng.choice(cand), rng.choice(cand)
        df = kritzinger_f(state, a) - kritzinger_f(state, b)
        w2a = metrics.w2_squared(sorted(pts + [a]))
        w2b = metrics.w2_squared(sorted(pts + [b]))
        residual = abs(df - (n + 1) * (n + 1) * (w2a - w2b))
        worst_residual = max(worst_residual, residual)
        s1, s2 = state.copy(), state.copy()
        if next_point(s1) != next_point_via_e(s2):
            mismatches += 1
    return [
        CheckResult(
            name="f_matches_w2_difference",
            passed=worst_residual == 0,
            margin=-float(worst_residual),
            detail=f"max |F diff - (n+1)^2 W2^2 diff| over {budget} exact trials",
        ),
        CheckResult(
            name="route_agreement",
            passed=mismatches == 0,
            margin=-float(mismatches),
            detail=f"{mismatches} disagreements between the two greedy routes",
        ),
    ]


def suite_kritzinger_bound(budget: int = 2000, seed: int = 0) -> list[CheckResult]:
    """int g_n^2 <= n/3 + c with c = max(0, int g_{n0}^2 - n0/3), on the
    greedy steps of three runs from n0 random seeds."""
    checks = []
    for r, n0, l2 in _l2_runs(budget, seed):
        c = max(0.0, l2[n0 - 1] - n0 / 3.0) if n0 else 0.0
        slack = np.arange(1, budget + 1) / 3.0 + c - l2
        margin = float(slack[n0:].min())
        checks.append(
            CheckResult(
                name=f"bound_run_{r}",
                passed=margin >= -1e-9,
                margin=margin,
                detail=f"{n0} seeds extended to {budget}; min of n/3 + c - int g^2",
            )
        )
    return checks


def suite_prop2(budget: int = 2000, seed: int = 0) -> list[CheckResult]:
    """Each greedy step raises int g^2 by at most 1/3, on the greedy steps
    of the same three runs as ``suite_kritzinger_bound``."""
    checks = []
    for r, n0, l2 in _l2_runs(budget, seed):
        inc = np.diff(np.concatenate(([0.0], l2))[n0:])  # int g_0^2 = 0
        margin = float(1.0 / 3.0 - inc.max())
        checks.append(
            CheckResult(
                name=f"increment_run_{r}",
                passed=margin >= -1e-12,
                margin=margin,
                detail=f"max per-step increment over {inc.size} greedy steps",
            )
        )
    return checks


def suite_cn_zero(budget: int = 100, seed: int = 0, max_n: int = 200) -> list[CheckResult]:
    """int g^2 and n^2 W2^2 agree exactly on arbitrary rational point sets."""
    rng = random.Random(seed)
    lattice_bad = sum(
        1
        for n in range(1, max_n + 1)
        if sum((2 * k - 1) ** 2 for k in range(1, n + 1)) * 3 != n * (4 * n * n - 1)
    )
    worst = Fraction(0)
    for _ in range(budget):
        n = rng.randint(1, max_n)
        pts = _random_rational_points(rng, n)
        diff = abs(
            metrics.l2_discrepancy_squared(pts) - n * n * metrics.w2_squared(pts)
        )
        worst = max(worst, diff)
    return [
        CheckResult(
            name="odd_square_lattice_sum",
            passed=lattice_bad == 0,
            margin=-float(lattice_bad),
            detail=f"sum (2k-1)^2 = n(4n^2-1)/3 for n <= {max_n}",
        ),
        CheckResult(
            name="identity_exact",
            passed=worst == 0,
            margin=-float(worst),
            detail=f"max |int g^2 - n^2 W2^2| over {budget} exact point sets",
        ),
    ]


def suite_main_lemma(budget: int = 1000, seed: int = 0) -> list[CheckResult]:
    """Randomized adversarial search against the cubic lower bound."""
    sweep = lemma.lemma_sweep(trials=budget, seed=seed)
    return [
        CheckResult(
            name="cubic_bound",
            passed=sweep["min_margin"] >= 0,
            margin=sweep["min_margin"],
            detail=(
                f"min (lhs - rhs) over {budget} exact trials; min ratio "
                f"{sweep['min_ratio']:.6f}; outside-hypothesis violations "
                f"{sweep['outside_hypothesis_violations']}"
            ),
        ),
    ]


def suite_theorem2_windows(budget: int = 10000, seed: int = 0) -> list[CheckResult]:
    """Every window [N, 100N] contains n with max|H_n| <= 2 n^(1/3).

    Runs the greedy sequence from the single seed 1/2 (smallest-tie rule)
    out to the budget and scans all complete windows.
    """
    values = greedy_values([0.5], budget)
    maxh = metrics.metric_series(values, metrics=("maxh",))["maxh"]
    ns = np.arange(1, budget + 1)
    slack = 2.0 * ns ** (1.0 / 3.0) - maxh
    margin = None
    for n_lo in range(1, budget // 100 + 1):
        window = slack[n_lo - 1 : 100 * n_lo]
        best = float(window.max())
        margin = best if margin is None else min(margin, best)
    if margin is None:
        raise ConfigError(f"budget {budget} leaves no complete window [N, 100N]")
    return [
        CheckResult(
            name="windows",
            passed=margin >= 0,
            margin=margin,
            detail=f"min over windows of max (2 n^(1/3) - max|H_n|), n <= {budget}",
        ),
    ]


def suite_oracle_equiv(
    budget: int = 100, seed: int = 0, argmin_resolution: int = oracle.ARGMIN_RESOLUTION
) -> list[CheckResult]:
    """Closed forms versus defining-integral quadrature and grid scans.

    Each closed form is exact and rounded once to meet the float oracles.
    The quadrature oracles run at their default resolution and max|H| at
    1e5 cells; ``argmin_resolution`` sets the grid of the dense argmin.
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(budget):
        n = rng.randint(1, 50)
        pts = sorted(Fraction(rng.random()) for _ in range(n))
        worst = max(
            worst,
            abs(float(metrics.w2_squared(pts)) - oracle.w2_defining_integral(pts)),
            abs(float(metrics.l2_discrepancy_squared(pts)) - oracle.l2_defining_integral(pts)),
            abs(float(metrics.max_abs_H(pts)) - oracle.grid_max_abs_h(pts, 10**5)),
        )
    cell = 1.0 / argmin_resolution
    worst_gap = 0.0
    worst_beat = 0.0
    for _ in range(min(budget, 50)):
        n = rng.randint(0, 40)
        state = SequenceState(
            sorted(rng.random() for _ in range(n)), backend=Backend.FLOAT
        )
        grid_min = oracle.grid_argmin_w2(state.points, argmin_resolution)
        # The argmin is a set when candidates tie exactly, so measure the
        # distance from the grid minimizer to the nearest tied candidate.
        evals = enumerate_candidates(state)
        best = min(c.f_value for c in evals)
        tied = [float(c.value) for c in evals if c.f_value == best]
        worst_gap = max(worst_gap, min(abs(grid_min - t) for t in tied))
        chosen = next_point(state.copy())
        with_chosen = metrics.w2_squared(sorted([*state.exact_points, chosen]))
        with_grid = metrics.w2_squared(sorted([*state.exact_points, Fraction(grid_min)]))
        worst_beat = max(worst_beat, float(with_chosen - with_grid))
    return [
        CheckResult(
            name="closed_forms_vs_quadrature",
            passed=worst <= 1e-6,
            margin=1e-6 - worst,
            detail=f"max abs deviation over {budget} instances (n <= 50)",
        ),
        CheckResult(
            name="grid_argmin_within_one_cell",
            passed=worst_gap <= cell + 1e-9,
            margin=cell + 1e-9 - worst_gap,
            detail=f"max distance from grid argmin to tied candidate set at resolution {argmin_resolution}",
        ),
        CheckResult(
            name="chosen_never_beaten_by_grid",
            passed=worst_beat <= 1e-12,
            margin=1e-12 - worst_beat,
            detail="W2^2 after inserting the chosen point minus W2^2 after inserting the grid argmin",
        ),
    ]


SUITES = {
    "theorem1": suite_theorem1,
    "kritzinger_bound": suite_kritzinger_bound,
    "prop2": suite_prop2,
    "cn_zero": suite_cn_zero,
    "main_lemma": suite_main_lemma,
    "theorem2_windows": suite_theorem2_windows,
    "oracle_equiv": suite_oracle_equiv,
}


def run_suite(name: str, budget: int | None = None, seed: int = 0, **kwargs) -> SuiteReport:
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; expected one of {sorted(SUITES)}"
        )
    if budget is None:
        budget = inspect.signature(SUITES[name]).parameters["budget"].default
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    checks = SUITES[name](budget=budget, seed=seed, **kwargs)
    return SuiteReport(suite=name, budget=budget, seed=seed, checks=checks)
