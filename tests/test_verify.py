import bisect
from fractions import Fraction

import numpy as np
import pytest

from greedyw2 import SUITES, run_suite, verify
from greedyw2.greedy import greedy_values
from greedyw2.numeric import ConfigError, DomainError
from greedyw2.verify import l2_series_fsum


class TestRunner:
    def test_registry_names(self):
        assert set(SUITES) == {
            "theorem1",
            "kritzinger_bound",
            "prop2",
            "cn_zero",
            "main_lemma",
            "theorem2_windows",
            "oracle_equiv",
        }

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            run_suite("goldbach")

    def test_nonpositive_budget(self):
        with pytest.raises(ConfigError):
            run_suite("theorem1", budget=0)

    def test_report_shape(self):
        rep = run_suite("cn_zero", budget=10, seed=4)
        d = rep.to_dict()
        assert d["suite"] == "cn_zero"
        assert d["budget"] == 10
        assert d["seed"] == 4
        assert isinstance(d["passed"], bool)
        for check in d["checks"]:
            assert set(check) == {"name", "passed", "margin", "detail"}


class TestSuitesPass:
    @pytest.mark.parametrize(
        "name,budget",
        [
            ("theorem1", 40),
            ("kritzinger_bound", 300),
            ("prop2", 300),
            ("cn_zero", 25),
            ("main_lemma", 80),
            ("theorem2_windows", 600),
            ("oracle_equiv", 10),
        ],
    )
    def test_suite_passes_at_reduced_budget(self, name, budget):
        rep = run_suite(name, budget=budget, seed=0)
        failing = [c for c in rep.checks if not c.passed]
        assert rep.passed, f"failing checks: {[(c.name, c.margin, c.detail) for c in failing]}"

    @pytest.mark.parametrize("name", ["prop2", "kritzinger_bound"])
    @pytest.mark.parametrize("budget", [1, 2, 33, 50])
    def test_seeded_runs_pass_at_small_budgets(self, name, budget):
        # A run draws fewer seeds than its budget, so it always takes a greedy step.
        assert run_suite(name, budget=budget, seed=0).passed

    def test_seeds_change_instances_not_outcomes(self):
        a = run_suite("theorem1", budget=20, seed=1)
        b = run_suite("theorem1", budget=20, seed=2)
        assert a.passed and b.passed

    def test_windows_suite_needs_a_full_window(self):
        with pytest.raises(ConfigError):
            run_suite("theorem2_windows", budget=60)


def _exact_l2_rows(values) -> list[Fraction]:
    """Exact int g_n^2 of every prefix, on integers: each double is m / D
    for one power of two D, and for sorted x, int g_n^2 = n Q - R + n^2/3
    with Q = sum x_k^2 and R = sum (2k-1) x_k."""
    D = max(Fraction(v).denominator for v in values)
    m = [int(Fraction(v) * D) for v in values]
    rows, prefix, q = [], [], 0
    for n, mk in enumerate(m, 1):
        bisect.insort(prefix, mk)
        q += mk * mk
        r = sum((2 * k - 1) * x for k, x in enumerate(prefix, 1))
        rows.append(Fraction(3 * n * q - 3 * D * r + n * n * D * D, 3 * D * D))
    return rows


class TestFsumSeries:
    def test_matches_direct_computation(self):
        from greedyw2 import l2_discrepancy_squared

        vals = greedy_values([0.5], 2000)
        series = l2_series_fsum(vals)
        assert series.shape == (2000,)
        for n in (1, 7, 666, 2000):
            direct = float(l2_discrepancy_squared(sorted(Fraction(v) for v in vals[:n])))
            assert series[n - 1] == pytest.approx(direct, rel=1e-13, abs=0)

    def test_increments_on_reference_run_stay_below_third(self):
        vals = greedy_values([0.5], 400)
        series = l2_series_fsum(vals)
        inc = np.diff(series)
        assert inc.max() <= 1 / 3 + 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), 1.5])
    def test_rejects_points_outside_unit_interval(self, bad):
        with pytest.raises(DomainError, match="outside"):
            l2_series_fsum([0.5, bad, 0.25])

    def test_suite_margins_match_exact_margins(self, monkeypatch):
        values = []  # the greedy runs that the two L^2 suites check
        series = verify.l2_series_fsum

        def recording(vals):
            values.append(vals)
            return series(vals)

        monkeypatch.setattr(verify, "l2_series_fsum", recording)
        n0s = [n0 for _, n0, _ in verify._l2_runs(300, 0)]
        bound = run_suite("kritzinger_bound", budget=300, seed=0).checks
        prop2 = run_suite("prop2", budget=300, seed=0).checks
        assert len(values) == 9
        third = Fraction(1, 3)
        for n0, vals, bound_check, prop2_check in zip(n0s, values, bound, prop2):
            l2 = [Fraction(0), *_exact_l2_rows(vals)]  # l2[n] = int g_n^2
            c = max(Fraction(0), l2[n0] - n0 * third)
            slack = min(n * third + c - l2[n] for n in range(n0 + 1, 301))
            step = third - max(l2[n] - l2[n - 1] for n in range(n0 + 1, 301))
            for check, want in ((bound_check, slack), (prop2_check, step)):
                assert abs(Fraction(check.margin) - want) <= Fraction(1, 10**14), check.name
