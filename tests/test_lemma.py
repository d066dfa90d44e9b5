import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyw2 import (
    GFunction,
    PiecewiseFunction,
    basic_lemma_identity,
    fact_check,
    lemma_lhs,
    lemma_rhs,
    lemma_sweep,
    random_piecewise,
    sharpness_scan,
)
from greedyw2.numeric import DomainError

F = Fraction

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)
interior_points = st.lists(
    st.fractions(min_value=0, max_value=F(63, 64), max_denominator=64),
    min_size=1,
    max_size=16,
).map(sorted)


def sweep_functions(seed):
    rng = random.Random(seed)
    return random_piecewise(rng, max_pieces=12, value_bound=6)


class TestConstruction:
    def test_rejects_mismatched_pieces(self):
        with pytest.raises(DomainError):
            PiecewiseFunction((0, 1), ((0, 1), (0, 2)))

    def test_rejects_bad_endpoints(self):
        with pytest.raises(DomainError):
            PiecewiseFunction((0, F(1, 2)), ((0, 1),))

    def test_rejects_unordered_breakpoints(self):
        with pytest.raises(DomainError):
            PiecewiseFunction((0, F(2, 3), F(1, 3), 1), ((0, 1), (0, 2), (0, 3)))

    def test_integer_data_becomes_exact(self):
        g = PiecewiseFunction((0, 1), ((1, 0),))
        assert g.exact
        assert isinstance(g.pieces[0][0], Fraction)

    def test_any_float_demotes_to_float(self):
        g = PiecewiseFunction((0, 0.5, 1), ((0, 1), (0, 2)))
        assert not g.exact
        assert isinstance(g.breakpoints[1], float)

    def test_indicator_validates_eps(self):
        with pytest.raises(DomainError):
            PiecewiseFunction.indicator(F(0))
        with pytest.raises(DomainError):
            PiecewiseFunction.indicator(F(3, 2))
        assert PiecewiseFunction.indicator(F(1)).is_continuous()


class TestEvaluation:
    def test_right_continuity_at_breakpoints(self):
        g = PiecewiseFunction.indicator(F(1, 2))
        assert g.eval(F(1, 2)) == 0  # right-hand piece wins at the jump
        assert g.eval(F(1, 4)) == 1
        assert g.eval(F(3, 4)) == 0

    def test_identity_function(self):
        g = PiecewiseFunction((0, 1), ((1, 0),))
        assert g.eval(F(1, 3)) == F(1, 3)
        assert g.integral() == F(1, 2)
        assert g.integral_sq() == F(1, 3)

    def test_indicator_integrals(self):
        g = PiecewiseFunction.indicator(F(1, 4))
        assert g.integral() == F(1, 4)
        assert g.integral_sq() == F(1, 4)

    def test_eval_domain(self):
        g = PiecewiseFunction.constant(F(1))
        with pytest.raises(DomainError):
            g.eval(F(-1, 2))

    @given(interior_points, unit_fractions)
    def test_counting_deviation_matches_count_formula(self, pts, x):
        g = PiecewiseFunction.from_counting_deviation(pts)
        ref = GFunction(tuple(pts))
        assert g.eval(x) == ref.eval(x)


class TestAntiderivative:
    def test_linear_case(self):
        g = PiecewiseFunction((0, 1), ((1, 0),))  # g(x) = x
        assert g.antiderivative(F(1, 2)) == F(1, 8)
        assert g.antiderivative_mean() == F(1, 6)
        lo, hi = g.antiderivative_extrema()
        assert (lo, hi) == (0, F(1, 2))

    def test_symmetric_pair_extrema(self):
        g = PiecewiseFunction.from_counting_deviation([F(1, 4), F(3, 4)])
        lo, hi = g.antiderivative_extrema()
        assert (lo, hi) == (F(-1, 16), 0)
        assert g.max_abs_antiderivative() == F(1, 16)
        repeated = PiecewiseFunction.from_counting_deviation([F(1, 4), F(1, 4), F(3, 4)])
        assert repeated.breakpoints == (0, F(1, 4), F(3, 4), 1)

    def test_interior_vertex_found(self):
        # g = 1 - 2x changes sign at 1/2; H peaks there, not at a breakpoint
        g = PiecewiseFunction((0, 1), ((-2, 1),))
        lo, hi = g.antiderivative_extrema()
        assert hi == F(1, 4)
        assert lo == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_identity_between_routes(self, seed):
        g = sweep_functions(seed)
        rng = random.Random(seed + 1)
        for _ in range(4):
            z = F(rng.randint(0, 64), 64)
            direct, via = basic_lemma_identity(g, z)
            assert direct == via


class TestCubicBound:
    def test_indicator_quarter_values(self):
        g = PiecewiseFunction.indicator(F(1, 4))
        assert lemma_lhs(g) == F(1, 32)
        assert lemma_rhs(g) == F(1, 256)

    def test_indicator_half_values(self):
        g = PiecewiseFunction.indicator(F(1, 2))
        assert lemma_lhs(g) == F(1, 8)
        assert lemma_rhs(g) == F(1, 64)

    def test_constant_one(self):
        g = PiecewiseFunction.constant(F(1))
        assert lemma_lhs(g) == F(1, 2)
        assert lemma_rhs(g) == F(1, 16)
        assert fact_check(g) == F(31, 64)

    def test_sharpness_family_ratio_is_exactly_eight(self):
        scan = sharpness_scan([F(1, 4), F(1, 100), F(1, 1000)])
        for eps, lhs, rhs, ratio in scan:
            assert ratio == 8
            assert lhs == eps * eps / 2
            assert rhs == eps * eps / 16

    def test_zero_function_has_no_bound(self):
        g = PiecewiseFunction.constant(F(0))
        assert lemma_lhs(g) == 0
        with pytest.raises(DomainError):
            lemma_rhs(g)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_bound_holds_on_random_functions(self, seed):
        g = sweep_functions(seed)
        assert lemma_lhs(g) - lemma_rhs(g) >= 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_fact_margin_nonnegative(self, seed):
        g = sweep_functions(seed)
        assert fact_check(g) >= 0

    @given(interior_points)
    def test_counting_deviation_range_bound(self, pts):
        # Apply the bound to g and -g: the range of H dominates the cubic
        # term with constant 1/8, the form used for discrepancy chains.
        g = PiecewiseFunction.from_counting_deviation(pts)
        if g.is_zero():
            return
        neg = PiecewiseFunction(
            g.breakpoints, tuple((-s, -t) for s, t in g.pieces)
        )
        lo, hi = g.antiderivative_extrema()
        rng_h = (lemma_lhs(g) + lemma_lhs(neg))
        assert rng_h == hi - lo
        cubic = g.max_abs_antiderivative() ** 3 / (8 * g.integral_sq())
        assert hi - lo >= cubic


class TestRandomPiecewise:
    def test_reproducible(self):
        a = random_piecewise(random.Random(9))
        b = random_piecewise(random.Random(9))
        assert a == b

    def test_never_identically_zero(self):
        for seed in range(40):
            assert not random_piecewise(random.Random(seed)).is_zero()

    def test_continuous_kind(self):
        g = random_piecewise(random.Random(3), kind="continuous")
        assert g.is_continuous()

    def test_constant_kind_has_flat_pieces(self):
        g = random_piecewise(random.Random(4), kind="constant")
        assert all(s == 0 for s, _ in g.pieces)

    def test_float_mode(self):
        g = random_piecewise(random.Random(5), exact=False)
        assert not g.exact


class TestSweep:
    def test_exact_sweep_clean(self):
        rep = lemma_sweep(trials=80, seed=2)
        assert rep["trials"] == 80
        assert rep["exact"] is True
        assert rep["min_margin"] >= 0
        # Random search reaches ratios below the indicator family's 8
        # (7.12 at this seed) but never at or below 1, which would break
        # the bound itself.
        assert rep["min_ratio"] > 1
        assert rep["outside_hypothesis_violations"] == 0
        assert len(rep["records"]) == 80

    def test_float_sweep_within_tolerance(self):
        rep = lemma_sweep(trials=40, seed=3, exact=False)
        assert rep["min_margin"] >= -1e-12
