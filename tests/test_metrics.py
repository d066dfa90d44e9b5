import math
import os
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from greedyw2 import metrics
from greedyw2.metrics import DiscrepancyReport, sorted_prefixes
from greedyw2.numeric import DomainError
from greedyw2.verify import greedy_values

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
            prefix = sorted(Fraction(v) for v in vals[:n])
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

    @staticmethod
    def _assert_matches_exact_report(vals, every):
        series = metric_series(vals, every=every)
        for i, n in enumerate(series["n"]):
            rep = report(sorted(Fraction(v) for v in vals[:n]))
            exact = {
                "w2": rep.w2_squared,
                "l2": rep.l2_disc_squared,
                "star": rep.star_disc,
                "maxh": rep.max_abs_h,
            }
            for name, want in exact.items():
                err = abs(Fraction(series[name][i]) - Fraction(want))
                assert err <= Fraction(1, 10**12) * abs(Fraction(want)), (name, int(n))

    def test_greedy_rows_match_exact_report(self):
        vals = np.asarray(greedy_values([0.5], 2000))
        self._assert_matches_exact_report(vals, every=250)

    def test_duplicates_and_endpoints_match_exact_report(self):
        m = 400
        lattice = [(2 * k - 1) / (2 * m) for k in range(1, m + 1)]
        vals = np.random.default_rng(7).permutation(lattice * 2 + [0.0, 1.0, 0.0, 1.0])
        self._assert_matches_exact_report(vals, every=101)

    @settings(max_examples=60)
    @given(st.lists(unit_floats, min_size=1, max_size=80))
    def test_star_is_the_elementwise_maximum(self, values):
        v = np.asarray(values, dtype=np.float64)
        series = metric_series(v, metrics=("star",))
        for n, star in zip(series["n"], series["star"]):
            x = np.sort(v[:n])
            k = np.arange(1, n + 1, dtype=np.float64)
            nx = n * x
            want = np.maximum(np.abs(k - nx), np.abs(k - 1 - nx)).max()
            assert star.tobytes() == want.tobytes()


def _sliced(mp, workers):
    """Let ``metric_series`` cut any series into up to ``workers`` slices."""
    mp.setattr(metrics, "_usable_cpus", lambda: workers)
    mp.setattr(metrics, "SLICE_FLOOR", 1)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSlicedSeries:
    @settings(max_examples=80)
    @given(
        st.lists(unit_floats, min_size=1, max_size=300),
        st.integers(1, 9),
        st.lists(st.sampled_from(["w2", "l2", "star", "maxh"]), unique=True),
        st.integers(2, 4),
    )
    # Rows 3, 6, 9, 11 in four slices: a boundary just before the final
    # partial stride.
    @example([0.5, 0.0, 1.0, 0.25, 0.5, 0.9, 0.1, 1.0, 0.0, 0.3, 0.5], 3, ["maxh", "w2"], 4)
    @example([0.5, 0.25], 1, [], 3)
    def test_slices_match_one_slice(self, values, every, names, workers):
        v = np.asarray(values, dtype=np.float64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_usable_cpus", lambda: 1)
            whole = metric_series(v, names, every)
        with pytest.MonkeyPatch.context() as mp:
            _sliced(mp, workers)
            stops = metrics._slice_stops(whole["n"])
            sliced = metric_series(v, names, every)
        assert len(stops) == min(workers, whole["n"].size)
        assert sorted(sliced) == sorted(whole) == sorted(["n", *names])
        for name in whole:
            assert np.array_equal(sliced[name], whole[name]), name
            assert sliced[name].tobytes() == whole[name].tobytes(), name
        _assert_no_child()

    def test_failed_worker_names_its_slice(self, monkeypatch):
        _sliced(monkeypatch, 3)
        rows = metrics._metric_rows

        def failing(vals, names, every, start):
            if start > 0:
                raise ValueError("row failure")
            return rows(vals, names, every, start)

        monkeypatch.setattr(metrics, "_metric_rows", failing)
        stops = metrics._slice_stops(np.arange(1, 61))
        assert len(stops) == 3
        want = rf"slice 2 of 3 \(prefix sizes {stops[0] + 1}\.\.{stops[1]}\).*row failure"
        with pytest.raises(RuntimeError, match=want):
            metric_series(np.linspace(0.0, 1.0, 60))
        _assert_no_child()

    def test_fork_warning_is_silenced_only_at_the_fork(self, monkeypatch):
        # Python 3.12+ warns on fork in a process with threads, which numpy's
        # BLAS pool makes every numpy process; the suite turns warnings into
        # errors, so this fails if the warning escapes the fork call.
        _sliced(monkeypatch, 2)
        fork = os.fork

        def warning_fork():
            warnings.warn("process is multi-threaded", DeprecationWarning)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        v = np.linspace(0.0, 1.0, 30)
        assert metric_series(v, every=4)["maxh"].size == 8
        with pytest.raises(DeprecationWarning):  # no filter outlives the call
            warnings.warn("after the call", DeprecationWarning)
        _assert_no_child()

    def test_interrupt_kills_and_reaps_workers(self, monkeypatch):
        _sliced(monkeypatch, 3)

        def stalled(vals, names, every, start):
            if start > 0:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(metrics, "_metric_rows", stalled)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            metric_series(np.linspace(0.0, 1.0, 60))
        assert time.monotonic() - began < 30
        _assert_no_child()
