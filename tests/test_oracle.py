import random
from fractions import Fraction

import numpy as np
import pytest

from greedyw2 import (
    Backend,
    SequenceState,
    enumerate_candidates,
    max_abs_H,
    next_point,
    l2_discrepancy_squared,
    w2_squared,
)
from greedyw2.numeric import DomainError
from greedyw2.oracle import (
    grid_argmin_w2,
    grid_max_abs_h,
    l2_defining_integral,
    quadrature_split,
    w2_defining_integral,
)

_PTS = [0.25, 0.75]
_ORACLES = {
    "quadrature_split": lambda res: quadrature_split(np.square, [0.3], res),
    "w2_defining_integral": lambda res: w2_defining_integral(_PTS, res),
    "l2_defining_integral": lambda res: l2_defining_integral(_PTS, res),
    "grid_max_abs_h": lambda res: grid_max_abs_h(_PTS, res),
    "grid_argmin_w2": lambda res: grid_argmin_w2(_PTS, res),
}


@pytest.mark.parametrize("name", list(_ORACLES))
def test_resolution_below_two_rejected(name):
    assert isinstance(_ORACLES[name](2), float)
    with pytest.raises(DomainError):
        _ORACLES[name](1)


class TestQuadrature:
    def test_simpson_exact_on_quadratics(self):
        got = quadrature_split(lambda x: x * x, [], 3)
        assert got == pytest.approx(1 / 3, abs=1e-15)

    def test_split_handles_jumps_exactly(self):
        def step(x):
            return np.where(x < 0.3, 2.0, -1.0)

        got = quadrature_split(step, [0.3], 50)
        assert got == pytest.approx(2.0 * 0.3 - 1.0 * 0.7, abs=1e-12)


class TestDefiningIntegrals:
    def test_w2_matches_closed_form(self):
        rng = random.Random(0)
        for _ in range(10):
            pts = sorted(Fraction(rng.random()) for _ in range(rng.randint(1, 50)))
            assert w2_defining_integral(pts, 10**4) == pytest.approx(
                w2_squared(pts), abs=1e-9
            )

    def test_l2_matches_closed_form(self):
        rng = random.Random(1)
        for _ in range(10):
            pts = sorted(Fraction(rng.random()) for _ in range(rng.randint(1, 50)))
            assert l2_defining_integral(pts, 10**4) == pytest.approx(
                l2_discrepancy_squared(pts), abs=1e-9
            )

    def test_empty_points_rejected(self):
        with pytest.raises(DomainError):
            w2_defining_integral([])
        with pytest.raises(DomainError):
            l2_defining_integral([])

    def test_max_abs_h_grid(self):
        rng = random.Random(2)
        for _ in range(8):
            pts = sorted(Fraction(rng.random()) for _ in range(rng.randint(1, 40)))
            exact = float(max_abs_H(pts))
            grid = grid_max_abs_h(pts, 10**5)
            assert grid == pytest.approx(exact, abs=1e-7)
            assert grid <= exact + 1e-12  # grid scan is a lower bound


class TestGridArgmin:
    def test_within_one_cell_of_unique_minimizer(self):
        rng = random.Random(3)
        resolution = 10**5
        for _ in range(8):
            n = rng.randint(0, 30)
            state = SequenceState(
                sorted(rng.random() for _ in range(n)), backend=Backend.FLOAT
            )
            got = grid_argmin_w2(state.points, resolution)
            chosen = float(next_point(state.copy()))
            assert abs(got - chosen) <= 1 / resolution + 1e-9

    def test_tied_minimizers_both_acceptable(self):
        # {1/2} ties candidates 1/4 and 3/4 exactly (F = -9/8); the grid
        # may land near either.
        state = SequenceState([0.5], backend=Backend.FLOAT)
        evals = enumerate_candidates(state)
        best = min(c.f_value for c in evals)
        tied = [float(c.value) for c in evals if c.f_value == best]
        assert tied == [0.25, 0.75]
        got = grid_argmin_w2(state.points, 10**5)
        assert min(abs(got - t) for t in tied) <= 1 / 10**5 + 1e-9

    def test_empty_state_grid_argmin_is_center(self):
        state = SequenceState([], backend=Backend.FLOAT)
        got = grid_argmin_w2(state.points, 10**4)
        assert got == pytest.approx(0.5, abs=1e-4)
