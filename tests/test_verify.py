import numpy as np
import pytest

from greedyw2 import SUITES, run_suite
from greedyw2.greedy import greedy_values
from greedyw2.numeric import ConfigError
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


class TestFsumSeries:
    def test_matches_direct_computation(self):
        from greedyw2 import l2_discrepancy_squared

        vals = greedy_values([0.5], 80)
        series = l2_series_fsum(vals)
        assert series.shape == (80,)
        for n in (1, 7, 80):
            direct = l2_discrepancy_squared(sorted(vals[:n]))
            assert series[n - 1] == pytest.approx(direct, abs=1e-13)

    def test_increments_on_reference_run_stay_below_third(self):
        vals = greedy_values([0.5], 400)
        series = l2_series_fsum(vals)
        inc = np.diff(series)
        assert inc.max() <= 1 / 3 + 1e-12
