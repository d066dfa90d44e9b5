from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greedyw2.numeric import (
    Backend,
    ConfigError,
    DomainError,
    NAMED_SEEDS,
    format_rational,
    is_float_scalar,
    is_rational_scalar,
    parse_rational,
    parse_seed,
    seed_help,
)


class TestBackend:
    def test_from_str(self):
        assert Backend.from_str("rational") is Backend.RATIONAL
        assert Backend.from_str("float") is Backend.FLOAT

    def test_from_str_rejects_unknown(self):
        with pytest.raises(ConfigError):
            Backend.from_str("exact")


class TestRationalText:
    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_round_trip(self, j, q):
        r = Fraction(j, q)
        assert parse_rational(format_rational(r)) == r

    def test_zero_renders_canonically(self):
        assert format_rational(Fraction(0)) == "0/1"

    def test_reduction(self):
        assert format_rational(Fraction(-2, 4)) == "-1/2"
        assert parse_rational("7/14") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["1/0", "x", "1.5", "3", "1/2/3", "/4", ""])
    def test_rejects_non_rational_text(self, bad):
        with pytest.raises(DomainError):
            parse_rational(bad)


class TestScalarPredicates:
    def test_rational_scalars(self):
        assert is_rational_scalar(Fraction(1, 3))
        assert is_rational_scalar(7)
        assert not is_rational_scalar(True)  # bools are not numbers here
        assert not is_rational_scalar(0.5)

    def test_float_scalars(self):
        assert is_float_scalar(0.5)
        assert not is_float_scalar(Fraction(1, 2))


class TestParseSeed:
    def test_named_float(self):
        import math

        assert parse_seed("inv_pi", Backend.FLOAT) == 1.0 / math.pi
        assert parse_seed("half", Backend.FLOAT) == 0.5

    def test_named_rational(self):
        assert parse_seed("half", Backend.RATIONAL) == Fraction(1, 2)

    def test_irrational_name_rejected_by_rational_backend(self):
        with pytest.raises(ConfigError):
            parse_seed("inv_sqrt2", Backend.RATIONAL)

    def test_fraction_literal(self):
        assert parse_seed("1/3", Backend.RATIONAL) == Fraction(1, 3)
        assert parse_seed("1/3", Backend.FLOAT) == float(Fraction(1, 3))

    def test_decimal_literal_is_exact_in_rational_backend(self):
        assert parse_seed("0.25", Backend.RATIONAL) == Fraction(1, 4)
        assert parse_seed(".5", Backend.FLOAT) == 0.5

    def test_exponent_literal_reads_a_dumped_float(self):
        assert parse_seed("5e-05", Backend.RATIONAL) == Fraction(1, 20000)
        assert parse_seed("5e-05", Backend.FLOAT) == 5e-05
        assert parse_seed("5.0638039295118495e-05", Backend.FLOAT) == 5.0638039295118495e-05
        assert parse_seed("1e0", Backend.RATIONAL) == 1

    @pytest.mark.parametrize("bad", ["5/4", "-1/2", "1.5", "1e1"])
    def test_out_of_range(self, bad):
        with pytest.raises(DomainError):
            parse_seed(bad, Backend.RATIONAL)

    def test_garbage(self):
        # An exponent of four digits could ask Fraction for a huge power of ten.
        for bad in ("one half", "1e-1000"):
            with pytest.raises(ConfigError):
                parse_seed(bad, Backend.FLOAT)

    def test_help_covers_all_names(self):
        text = seed_help()
        for name in NAMED_SEEDS:
            assert name in text
