import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyw2 import (
    Backend,
    SequenceState,
    l2_discrepancy_squared,
    max_abs_H,
    metric_series,
    report,
    star_discrepancy,
    step_identity_check,
    w2_squared,
)
from greedyw2.metrics import DiscrepancyReport, sorted_prefixes
from greedyw2.numeric import DomainError

F = Fraction

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)
# Floats in [0, 1] with many repeats and both endpoints; "+ 0.0" folds -0.0
# into 0.0, which sorts equal to it and so has no fixed place in a row.
unit_floats = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.25]),
    st.floats(min_value=0.0, max_value=1.0).map(lambda v: v + 0.0),
)
point_sets = st.lists(unit_fractions, min_size=1, max_size=24).map(sorted)


class TestClosedForms:
    def test_single_midpoint(self):
        assert w2_squared([F(1, 2)]) == F(1, 12)
        assert l2_discrepancy_squared([F(1, 2)]) == F(1, 12)
        assert star_discrepancy([F(1, 2)]) == F(1, 2)

    def test_single_quarter(self):
        assert l2_discrepancy_squared([F(1, 4)]) == F(7, 48)

    def test_symmetric_pair(self):
        assert w2_squared([F(1, 4), F(3, 4)]) == F(1, 48)

    def test_endpoint_extremes(self):
        assert star_discrepancy([F(0)]) == 1
        assert star_discrepancy([F(1)]) == 1
        assert w2_squared([F(0)]) == F(1, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 41])
    def test_centered_lattice_minimizes(self, n):
        pts = [F(2 * k - 1, 2 * n) for k in range(1, n + 1)]
        assert l2_discrepancy_squared(pts) == F(1, 12)
        assert w2_squared(pts) == F(1, 12 * n * n)
        assert star_discrepancy(pts) == F(1, 2)

    def test_float_path_matches_exact(self):
        pts = [F(1, 7), F(2, 5), F(9, 10)]
        fl = [float(p) for p in pts]
        assert math.isclose(w2_squared(fl), float(w2_squared(pts)), abs_tol=1e-14)
        assert math.isclose(
            l2_discrepancy_squared(fl), float(l2_discrepancy_squared(pts)), abs_tol=1e-13
        )
        assert math.isclose(star_discrepancy(fl), float(star_discrepancy(pts)), abs_tol=1e-12)

    @pytest.mark.parametrize(
        "bad", [[], [F(1, 2), F(1, 4)], [F(-1, 4)], [F(5, 4)]]
    )
    def test_input_validation(self, bad):
        with pytest.raises(DomainError):
            w2_squared(bad)
        with pytest.raises(DomainError):
            l2_discrepancy_squared(bad)
        if bad:  # max|H| of the empty set is 0
            with pytest.raises(DomainError):
                max_abs_H(bad)

    @given(point_sets)
    def test_transport_identity(self, pts):
        # The two quadratic discrepancies agree up to the exact n^2 factor.
        n = len(pts)
        assert l2_discrepancy_squared(pts) == n * n * w2_squared(pts)

    @given(point_sets)
    def test_l2_lower_bound_and_star_envelope(self, pts):
        n = len(pts)
        l2 = l2_discrepancy_squared(pts)
        assert l2 >= F(1, 12)  # centered lattice is optimal
        star = star_discrepancy(pts)
        assert star * star >= l2 - F(1, 12) or star * star >= 0  # sup dominates L2 deviation
        assert F(1, 2) <= star <= n


class TestGFunction:
    def test_max_abs_h_single_point(self):
        assert max_abs_H((F(1, 2),)) == F(1, 8)

    def test_max_abs_h_empty(self):
        assert max_abs_H(()) == 0

    def test_max_abs_h_endpoint_mass(self):
        # one point at 0: g = 1 - x on (0, 1], H(z) = z - z^2/2, max at z=1
        assert max_abs_H((F(0),)) == F(1, 2)

    def test_max_abs_h_interior_vertex(self):
        # points {1/4, 3/4}: H has a vertex at the interior zero x = 1/2
        assert max_abs_H((F(1, 4), F(3, 4))) == F(1, 16)

    @given(point_sets)
    def test_h_is_zero_mean_consistent(self, pts):
        # H(1) = int_0^1 g = n/ n... H(1) = sum(1 - x_k) - n/2... direct check
        n = len(pts)
        h1 = sum(F(1) - x for x in pts) - F(n, 2)
        assert abs(h1) <= max_abs_H(pts)


class TestStepIdentity:
    @given(point_sets, unit_fractions)
    def test_exact_residual_zero(self, pts, z):
        state = SequenceState(pts, backend=Backend.RATIONAL)
        assert step_identity_check(state, z) == 0

    def test_float_residual_small(self):
        state = SequenceState([0.3, 0.6, 0.9], backend=Backend.FLOAT)
        assert abs(step_identity_check(state, 0.45)) < 1e-12


class TestReport:
    def test_fields_match_components(self):
        pts = [F(1, 4), F(1, 2)]
        rep = report(pts)
        assert rep.n == 2
        assert rep.w2_squared == pytest.approx(float(w2_squared(pts)), abs=1e-15)
        assert rep.l2_disc_squared == pytest.approx(float(l2_discrepancy_squared(pts)), abs=1e-15)
        assert rep.star_disc == float(star_discrepancy(pts))
        assert rep.max_abs_h == float(max_abs_H(pts))
        assert rep.star_over_log == pytest.approx(rep.star_disc / math.log(2))

    def test_log_ratio_undefined_at_one(self):
        assert report([F(1, 2)]).star_over_log is None

    def test_is_dataclass_with_stable_fields(self):
        rep = report([F(1, 2)])
        assert isinstance(rep, DiscrepancyReport)


class TestMetricSeries:
    def test_matches_per_prefix_closed_forms(self):
        rng = np.random.default_rng(5)
        vals = rng.random(40)
        series = metric_series(vals)
        assert list(series["n"]) == list(range(1, 41))
        for i, n in enumerate(series["n"]):
            prefix = sorted(vals[:n])
            assert series["w2"][i] == pytest.approx(w2_squared(prefix), abs=1e-11)
            assert series["l2"][i] == pytest.approx(
                l2_discrepancy_squared(prefix), abs=1e-10
            )
            assert series["star"][i] == pytest.approx(star_discrepancy(prefix), abs=1e-11)
            assert series["maxh"][i] == pytest.approx(
                max_abs_H(prefix), abs=1e-11
            )

    def test_stride_includes_final_length(self):
        vals = np.linspace(0.05, 0.95, 23)
        series = metric_series(vals, metrics=("star",), every=7)
        assert list(series["n"]) == [7, 14, 21, 23]

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            metric_series(np.array([]))
        with pytest.raises(DomainError):
            metric_series(np.array([0.5]), every=0)
        with pytest.raises(DomainError):
            metric_series(np.array([0.5]), metrics=("volume",))

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25])
    def test_rejects_points_outside_unit_interval(self, bad):
        with pytest.raises(DomainError, match="outside"):
            metric_series(np.array([0.2, bad, 0.5]))
        with pytest.raises(DomainError, match="outside"):
            metric_series([bad, 0.2], metrics=("star",), every=5)

    @pytest.mark.parametrize("every", [0, -2])
    def test_sorted_prefixes_rejects_bad_stride(self, every):
        with pytest.raises(DomainError, match="stride"):
            list(sorted_prefixes([0.1, 0.2, 0.3, 0.4, 0.5], every))

    @settings(max_examples=150)
    @given(st.lists(unit_floats, min_size=1, max_size=60), st.integers(1, 70))
    def test_strided_prefixes_are_sorted_rows(self, values, every):
        v = np.asarray(values, dtype=np.float64)
        rows = [(n, x.copy()) for n, x in sorted_prefixes(v, every)]
        expected = list(range(every, v.size + 1, every))
        if not expected or expected[-1] != v.size:
            expected.append(v.size)
        assert [n for n, _ in rows] == expected
        for n, x in rows:
            assert x.tobytes() == np.sort(v[:n]).tobytes()
        dense = metric_series(v, every=1)
        strided = metric_series(v, every=every)
        at = strided["n"] - 1
        for name in ("w2", "l2", "star", "maxh"):
            assert strided[name].tobytes() == dense[name][at].tobytes(), name

    def test_exact_vs_series_on_lattice(self):
        n = 16
        vals = np.array([(2 * k - 1) / (2 * n) for k in range(1, n + 1)])
        series = metric_series(vals, every=n)
        assert series["l2"][-1] == pytest.approx(1 / 12, abs=1e-14)
        assert series["star"][-1] == pytest.approx(0.5, abs=1e-14)
