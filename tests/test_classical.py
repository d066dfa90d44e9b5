import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greedyw2 import metric_series, star_discrepancy
from greedyw2.classical import GOLDEN_RATIO, kronecker, uniform_stream, van_der_corput
from greedyw2.numeric import ConfigError, DomainError

F = Fraction


class TestVanDerCorput:
    def test_first_terms(self):
        expected = [F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(5, 8), F(3, 8), F(7, 8), F(1, 16)]
        assert [van_der_corput(k) for k in range(1, 9)] == expected

    def test_exact_type(self):
        v = van_der_corput(6)
        assert isinstance(v, Fraction)
        assert v == F(3, 8)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(DomainError):
            van_der_corput(0)

    @given(st.integers(1, 4096))
    def test_dyadic_in_open_interval(self, k):
        v = van_der_corput(k)
        assert 0 < v < 1
        assert v.denominator & (v.denominator - 1) == 0  # power of two

    def test_injective_prefix(self):
        vals = [van_der_corput(k) for k in range(1, 513)]
        assert len(set(vals)) == 512

    @pytest.mark.parametrize("m", range(1, 11))
    def test_dyadic_block_star_bound(self, m):
        # Count-scale star discrepancy of the first 2^m terms stays below
        # m/2 + 1: the canonical logarithmic behavior of the base-2 sequence.
        pts = sorted(van_der_corput(k) for k in range(1, 2**m + 1))
        assert star_discrepancy(pts) <= F(m, 2) + 1


class TestKronecker:
    def test_golden_ratio_constant(self):
        assert GOLDEN_RATIO == pytest.approx((1 + math.sqrt(5)) / 2, abs=0)

    def test_first_term_is_fractional_part(self):
        assert kronecker(1) == pytest.approx(GOLDEN_RATIO - 1, abs=1e-15)

    def test_matches_direct_fmod(self):
        for k in (1, 2, 97):
            assert kronecker(k, math.pi) == math.fmod(k * math.pi, 1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            kronecker(1, 0.0)
        with pytest.raises(ConfigError):
            kronecker(1, -1.5)

    def test_rejects_overflowing_rotation(self):
        assert kronecker(1, 1e308) == math.fmod(1e308, 1.0)
        with pytest.raises(DomainError):
            kronecker(2, 1e308)
        with pytest.raises(DomainError):
            kronecker(1, math.inf)

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            kronecker(0)

    def test_equidistribution_at_moderate_length(self):
        vals = np.array([kronecker(k) for k in range(1, 1001)])
        series = metric_series(vals, metrics=("star",), every=1000)
        # golden-rotation star discrepancy grows ~ log n; normalized it is tiny
        assert series["star"][-1] / 1000 < 0.01


class TestUniformStream:
    def test_deterministic_per_seed(self):
        a = uniform_stream(64, seed=7)
        b = uniform_stream(64, seed=7)
        assert a == b

    def test_seeds_differ(self):
        a = uniform_stream(64, seed=7)
        b = uniform_stream(64, seed=8)
        assert a != b

    def test_mt19937_matches_stdlib(self):
        import random

        got = uniform_stream(10, seed=42, generator="mt19937")
        ref = random.Random(42)
        assert got == [ref.random() for _ in range(10)]

    def test_pcg64_matches_numpy(self):
        got = uniform_stream(10, seed=3, generator="pcg64")
        ref = np.random.Generator(np.random.PCG64(3)).random(10)
        assert np.array_equal(got, ref)

    def test_unknown_generator(self):
        with pytest.raises(ConfigError):
            uniform_stream(4, seed=0, generator="xorshift")

    @pytest.mark.parametrize("generator", ["pcg64", "mt19937"])
    def test_rejects_negative_seed(self, generator):
        with pytest.raises(ConfigError):
            uniform_stream(4, seed=-1, generator=generator)

    def test_range(self):
        vals = uniform_stream(1000, seed=1)
        assert all(0.0 <= v < 1.0 for v in vals)

    @pytest.mark.parametrize("generator", ["pcg64", "mt19937"])
    def test_kolmogorov_smirnov_uniformity(self, generator):
        scipy_stats = pytest.importorskip("scipy.stats")
        sample = uniform_stream(2000, seed=11, generator=generator)
        stat = scipy_stats.kstest(sample, "uniform").statistic
        # 1% critical value for the one-sample KS statistic
        assert stat < 1.63 / math.sqrt(2000)
