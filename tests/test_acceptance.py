"""Acceptance checks, one test per criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; each test also prints the measured margin it was judged on
(visible with ``-rA`` or ``-s``).  The randomized criteria use fixed seeds
so the whole file is deterministic.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from greedyw2 import cli, metrics, oracle
from greedyw2.greedy import (
    SequenceState,
    enumerate_candidates,
    extend,
    next_point,
    next_point_via_e,
)
from greedyw2.lemma import lemma_sweep, sharpness_scan
from greedyw2.numeric import Backend
from greedyw2.verify import l2_series_fsum, run_suite

F = Fraction

# Reference-run supremum of star_disc / ln n over 100 <= n <= 5000 for the
# greedy sequence seeded {1/2} (smallest tie rule); attained at n = 114.
FROZEN_STAR_OVER_LOG_SUP = 0.39588712771011497

RUN_COUNT = 5000


@pytest.fixture(scope="module")
def randomized_runs():
    """Ten float-backend greedy runs from random seed configurations.

    Shared by the growth-bound and step-increment criteria so the expensive
    extensions to n = 5000 happen once.
    """
    rng = random.Random(2026)
    runs = []
    for _ in range(10):
        n0 = rng.randint(0, 50)
        seeds = [rng.random() for _ in range(n0)]
        state = SequenceState(seeds, backend=Backend.FLOAT)
        chosen = extend(state, RUN_COUNT)
        values = np.asarray(
            [float(s) for s in seeds] + [float(c) for c in chosen], dtype=float
        )
        runs.append((n0, chosen, values, l2_series_fsum(values)))
    return runs


def test_criterion_01_seeded_continuation_exact_and_fast():
    seeds = [1.0 / math.pi, 1.0 / math.e, 1.0 / math.sqrt(2.0)]
    start = time.perf_counter()
    state = SequenceState(seeds, backend=Backend.FLOAT)
    chosen = extend(state, 9)
    elapsed = time.perf_counter() - start
    steps = range(state.n - len(chosen) + 1, state.n + 1)
    raw = [(v * 2 * k, 2 * k) for k, v in zip(steps, chosen, strict=True)]
    assert raw == [(7, 8), (1, 10), (7, 12), (7, 14), (13, 16), (3, 18)]
    assert list(steps) == [4, 5, 6, 7, 8, 9]
    assert elapsed < 1.0
    print(f"criterion 01 PASS: x4..x9 raw forms exact, {elapsed * 1e3:.1f} ms")


def test_criterion_02_growth_bound_on_random_seed_runs(randomized_runs):
    worst = math.inf
    for n0, chosen, values, l2 in randomized_runs:
        seen = set()
        for k, v in enumerate(values, start=1):
            if k > n0:  # greedily added point: new and of form (2j+1)/(2k)
                raw = chosen[k - n0 - 1] * 2 * k
                assert raw.denominator == 1
                assert raw.numerator % 2 == 1
                assert v not in seen
            seen.add(v)
        c0 = max(0.0, float(l2[n0 - 1]) - n0 / 3.0) if n0 else 0.0
        ns = np.arange(1, RUN_COUNT + 1)
        slack = ns / 3.0 + c0 - l2
        worst = min(worst, float(slack[max(n0 - 1, 0) :].min()))
    assert worst >= -1e-9
    print(
        f"criterion 02 PASS: 10 runs to n={RUN_COUNT}, "
        f"min of n/3 + c - int g^2 = {worst:.6f}"
    )


def test_criterion_03_step_increment_bound(randomized_runs):
    worst = -math.inf
    for n0, _, _, l2 in randomized_runs:
        if n0:
            inc = np.diff(l2[n0 - 1 :])
        else:
            inc = np.diff(np.concatenate(([0.0], l2)))
        worst = max(worst, float(inc.max()))
    assert worst <= 1.0 / 3.0 + 1e-12
    print(
        f"criterion 03 PASS: max per-step increment {worst:.15f} "
        f"<= 1/3 + 1e-12 across all runs"
    )


def test_criterion_04_l2_equals_n_squared_w2_exactly():
    rng = random.Random(4)
    worst = F(0)
    for _ in range(100):
        n = rng.randint(1, 200)
        d_max = rng.choice((8, 64, 997))
        pts = sorted(
            F(rng.randint(0, d), d)
            for d in (rng.randint(1, d_max) for _ in range(n))
        )
        diff = abs(
            metrics.l2_discrepancy_squared(pts) - n * n * metrics.w2_squared(pts)
        )
        worst = max(worst, diff)
    assert worst == 0
    print("criterion 04 PASS: int g^2 == n^2 W2^2 exactly on 100 rational sets")


def test_criterion_05_cubic_bound_and_sharpness():
    sweep = lemma_sweep(trials=1000, seed=0)
    assert sweep["min_margin"] >= -1e-12
    assert sweep["outside_hypothesis_violations"] == 0
    rows = sharpness_scan([F(1, 4), F(1, 100), F(1, 1000)])
    ratios = [r[3] for r in rows]
    assert ratios == [8, 8, 8]
    assert all(isinstance(r, F) for r in ratios)
    print(
        f"criterion 05 PASS: 1000 trials min margin {sweep['min_margin']:.6g} "
        f"(min ratio {sweep['min_ratio']:.4f}); sharpness ratio exactly 8"
    )


def test_criterion_06_integrated_deviation_windows():
    report = run_suite("theorem2_windows", budget=10**4)
    assert report.passed
    margin = report.checks[0].margin
    assert margin >= 0
    print(
        f"criterion 06 PASS: every window [N,100N] in [1,1e4] hits "
        f"max|H_n| <= 2 n^(1/3); min window slack {margin:.3f}"
    )


def test_criterion_07_candidate_argmin_matches_dense_grid():
    rng = random.Random(7)
    resolution = 10**6
    cell = 1.0 / resolution
    worst_gap = 0.0
    for _ in range(50):
        n = rng.randint(0, 40)
        state = SequenceState(
            sorted(rng.random() for _ in range(n)), backend=Backend.FLOAT
        )
        grid_min = oracle.grid_argmin_w2(state.points, resolution)
        evals = enumerate_candidates(state)
        best = min(c.f_value for c in evals)
        tied = [float(c.value) for c in evals if c.f_value == best]
        worst_gap = max(worst_gap, min(abs(grid_min - t) for t in tied))
        assert next_point(state.copy()) == next_point_via_e(state.copy())
    assert worst_gap <= cell + 1e-9
    print(
        f"criterion 07 PASS: grid argmin within one cell on 50 states "
        f"(max gap {worst_gap:.2e} <= {cell:.0e}); both greedy routes agree"
    )


def test_criterion_08_closed_forms_match_quadrature_oracles():
    rng = random.Random(8)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 50)
        pts = sorted(rng.random() for _ in range(n))
        worst = max(
            worst,
            abs(metrics.w2_squared(pts) - oracle.w2_defining_integral(pts)),
            abs(
                metrics.l2_discrepancy_squared(pts)
                - oracle.l2_defining_integral(pts)
            ),
            abs(
                float(metrics.max_abs_H(pts))
                - oracle.grid_max_abs_h(pts, 10**5)
            ),
        )
    assert worst <= 1e-6
    print(
        f"criterion 08 PASS: closed forms vs defining-integral oracles, "
        f"max deviation {worst:.2e} <= 1e-6 on 100 instances"
    )


def test_criterion_09_compare_series_deterministic_with_frozen_sup(
    tmp_path, capsys
):
    argv = [
        "compare",
        "--series",
        "kritzinger:seeds=half",
        "--series",
        "vdc",
        "--series",
        "kronecker",
        "--count",
        "5000",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    text = out_a.read_text()
    assert text == out_b.read_text()  # byte-identical across runs

    sup = -math.inf
    for line in text.splitlines():
        if not line.startswith("kritzinger,"):
            continue
        _, n_str, _, ratio_str = line.split(",")
        n = int(n_str)
        if 100 <= n <= 5000 and ratio_str:
            sup = max(sup, float(ratio_str))
    assert sup == pytest.approx(FROZEN_STAR_OVER_LOG_SUP, rel=0.01)
    print(
        f"criterion 09 PASS: three-series output byte-identical; "
        f"sup star/ln n = {sup:.10f} vs frozen {FROZEN_STAR_OVER_LOG_SUP:.10f}"
    )


def test_criterion_10_first_point_and_centered_lattice():
    state = SequenceState([], backend=Backend.RATIONAL)
    chosen = extend(state, 1)
    assert state.points == [F(1, 2)]
    assert [(v * 2 * k, 2 * k) for k, v in enumerate(chosen, 1)] == [(1, 2)]
    for n in range(1, 101):
        lattice = [F(2 * k - 1, 2 * n) for k in range(1, n + 1)]
        assert metrics.l2_discrepancy_squared(lattice) == F(1, 12)
    print(
        "criterion 10 PASS: empty start gives x1 = 1/2; centered lattice "
        "scores int g^2 = 1/12 exactly for all n <= 100"
    )
