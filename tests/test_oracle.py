import random
from fractions import Fraction

import numpy as np
import pytest

from greedyw2 import (
    Backend,
    GFunction,
    SequenceState,
    enumerate_candidates,
    max_abs_H,
    next_point,
    l2_discrepancy_squared,
    w2_squared,
)
from greedyw2.numeric import DomainError
from greedyw2.oracle import (
    GridSpec,
    grid_argmin_w2,
    grid_max_abs,
    grid_max_abs_h,
    l2_defining_integral,
    quadrature,
    quadrature_split,
    w2_defining_integral,
)

F = Fraction


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.resolution > 0
        assert spec.rule == "midpoint"

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(resolution=0)
        with pytest.raises(DomainError):
            GridSpec(resolution=100, rule="monte-carlo")


class TestQuadrature:
    def test_simpson_exact_on_quadratics(self):
        got = quadrature(lambda x: x * x, GridSpec(resolution=3, rule="simpson"))
        assert got == pytest.approx(1 / 3, abs=1e-15)

    def test_midpoint_second_order(self):
        res_err = []
        for res in (100, 200):
            got = quadrature(lambda x: x * x, GridSpec(resolution=res, rule="midpoint"))
            res_err.append(abs(got - 1 / 3))
        assert res_err[1] == pytest.approx(res_err[0] / 4, rel=0.05)

    def test_trapezoid(self):
        got = quadrature(lambda x: x, GridSpec(resolution=10, rule="trapezoid"))
        assert got == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid", "simpson"])
    def test_split_handles_jumps_exactly(self, rule):
        def step(x):
            return np.where(np.asarray(x) < 0.3, 2.0, -1.0)

        got = quadrature_split(step, [0.3], GridSpec(resolution=50, rule=rule))
        assert got == pytest.approx(2.0 * 0.3 - 1.0 * 0.7, abs=1e-12)

    def test_grid_max_abs(self):
        got = grid_max_abs(lambda x: np.abs(x - 1 / 3), GridSpec(resolution=1000))
        assert got == pytest.approx(2 / 3, abs=1e-9)


class TestDefiningIntegrals:
    def test_w2_matches_closed_form(self):
        rng = random.Random(0)
        grid = GridSpec(resolution=10**4, rule="simpson")
        for _ in range(10):
            pts = sorted(rng.random() for _ in range(rng.randint(1, 50)))
            assert w2_defining_integral(pts, grid) == pytest.approx(
                w2_squared(pts), abs=1e-9
            )

    def test_l2_matches_closed_form(self):
        rng = random.Random(1)
        grid = GridSpec(resolution=10**4, rule="simpson")
        for _ in range(10):
            pts = sorted(rng.random() for _ in range(rng.randint(1, 50)))
            assert l2_defining_integral(pts, grid) == pytest.approx(
                l2_discrepancy_squared(pts), abs=1e-9
            )

    def test_empty_points_rejected(self):
        with pytest.raises(DomainError):
            w2_defining_integral([])
        with pytest.raises(DomainError):
            l2_defining_integral([])

    def test_accepts_state(self):
        state = SequenceState([0.25, 0.75], backend=Backend.FLOAT)
        got = w2_defining_integral(state, GridSpec(resolution=2000, rule="simpson"))
        assert got == pytest.approx(float(w2_squared([F(1, 4), F(3, 4)])), abs=1e-10)

    def test_max_abs_h_grid(self):
        rng = random.Random(2)
        for _ in range(8):
            pts = sorted(rng.random() for _ in range(rng.randint(1, 40)))
            exact = float(max_abs_H(GFunction(tuple(pts))))
            grid = grid_max_abs_h(pts, GridSpec(resolution=10**5))
            assert grid == pytest.approx(exact, abs=1e-7)
            assert grid <= exact + 1e-12  # grid scan is a lower bound


class TestGridArgmin:
    def test_within_one_cell_of_unique_minimizer(self):
        rng = random.Random(3)
        grid = GridSpec(resolution=10**5)
        for _ in range(8):
            n = rng.randint(0, 30)
            state = SequenceState(
                sorted(rng.random() for _ in range(n)), backend=Backend.FLOAT
            )
            got = grid_argmin_w2(state, grid)
            chosen = float(next_point(state.copy()))
            assert abs(got - chosen) <= 1 / grid.resolution + 1e-9

    def test_tied_minimizers_both_acceptable(self):
        # {1/2} ties candidates 1/4 and 3/4 exactly (F = -9/8); the grid
        # may land near either.
        state = SequenceState([0.5], backend=Backend.FLOAT)
        evals = enumerate_candidates(state)
        best = min(c.f_value for c in evals)
        tied = [float(c.value) for c in evals if c.f_value == best]
        assert tied == [0.25, 0.75]
        got = grid_argmin_w2(state, GridSpec(resolution=10**5))
        assert min(abs(got - t) for t in tied) <= 1 / 10**5 + 1e-9

    def test_empty_state_grid_argmin_is_center(self):
        state = SequenceState([], backend=Backend.FLOAT)
        got = grid_argmin_w2(state, GridSpec(resolution=10**4))
        assert got == pytest.approx(0.5, abs=1e-4)
