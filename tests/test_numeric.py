import sys
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greedyw2 import (
    SequenceState,
    e_functional,
    kritzinger_f,
    l2_discrepancy_squared,
    max_abs_H,
    report,
    star_discrepancy,
    step_identity_check,
    w2_squared,
)
from greedyw2.lemma import PiecewiseFunction, basic_lemma_identity
from greedyw2.numeric import (
    Backend,
    ConfigError,
    DomainError,
    NAMED_SEEDS,
    format_rational,
    is_float_scalar,
    is_rational_scalar,
    parse_decimal,
    parse_int,
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


# Number text that int(), float() or a \\d regex would take, but the ASCII
# grammar does not: underscores, other scripts' digits, spaces and tabs.
LOOSE_INTS = ["1_0", "١", " 1", "1 ", "\t1", "1\t0", "0x10"]
LOOSE_RATIONALS = ["1_0/2", "١/٢", " 1/2", "1/2 ", "1/\t2", "-1/-2", "1/+2"]
LOOSE_DECIMALS = ["0.5_0", "٠.٥", " 0.5", "0.5\t", "nan", "inf", "1e", "."]
has_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="int() has no digit limit here"
)


class TestNumberGrammar:
    def test_canonical_forms(self):
        assert [parse_int(t) for t in ("0", "-12", "+3", "007")] == [0, -12, 3, 7]
        assert [parse_decimal(t) for t in ("0.5", ".5", "1.", "5e-05", "1E+2", "-0.0")] == [
            0.5, 0.5, 1.0, 5e-05, 100.0, 0.0
        ]

    @pytest.mark.parametrize(
        "parse, bad",
        [(parse_int, t) for t in LOOSE_INTS]
        + [(parse_rational, t) for t in LOOSE_RATIONALS]
        + [(parse_decimal, t) for t in LOOSE_DECIMALS],
    )
    def test_rejects_loose_text(self, parse, bad):
        with pytest.raises(DomainError):
            parse(bad)

    @pytest.mark.parametrize("bad", ["1_0/2", "١/٢", "1/ 2", "1/\t2", "0.5_0", "٠.٥", "1_0", "١"])
    def test_seed_rejects_loose_text(self, bad):
        with pytest.raises(ConfigError):
            parse_seed(bad, Backend.RATIONAL)

    def test_seed_keeps_surrounding_spaces(self):
        for spec in (" 1/2\t", " 0.5 "):
            assert parse_seed(spec, Backend.RATIONAL) == Fraction(1, 2)

    @has_digit_limit
    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_int, "7" * 5000),
            (parse_rational, "1/" + "3" * 5000),
            (lambda t: parse_seed(t, Backend.FLOAT), "0." + "3" * 5000),
        ],
    )
    def test_digit_limit_is_a_domain_error(self, parse, text):
        with pytest.raises(DomainError, match="digit limit"):
            parse(text)


class TestScalarPredicates:
    def test_rational_scalars(self):
        assert is_rational_scalar(Fraction(1, 3))
        assert is_rational_scalar(7)
        assert not is_rational_scalar(True)  # bools are not numbers here
        assert not is_rational_scalar(0.5)

    def test_float_scalars(self):
        assert is_float_scalar(0.5)
        assert not is_float_scalar(Fraction(1, 2))


# A float-backend state: the functionals compute on its exact points and
# return Fractions in either backend.
_STATE = SequenceState([0.25, 0.75], backend=Backend.FLOAT)
_LINE = PiecewiseFunction((0, Fraction(1, 3), 1), ((1, 0), (-2, 1)))

# Each entry evaluates one library functional at the scalar x and returns
# the exact values it hands back.
EXACT_FUNCTIONALS = [
    pytest.param(lambda x: (w2_squared([x]),), id="w2_squared"),
    pytest.param(lambda x: (l2_discrepancy_squared([x]),), id="l2_discrepancy_squared"),
    pytest.param(lambda x: (star_discrepancy([x]),), id="star_discrepancy"),
    pytest.param(lambda x: (max_abs_H([x]),), id="max_abs_H"),
    pytest.param(lambda x: astuple(report([x]))[1:], id="report"),
    pytest.param(lambda x: (step_identity_check(_STATE, x),), id="step_identity_check"),
    pytest.param(lambda x: (kritzinger_f(_STATE, x),), id="kritzinger_f"),
    pytest.param(lambda x: (e_functional(_STATE, x),), id="e_functional"),
    pytest.param(lambda x: (_LINE.eval(x),), id="eval"),
    pytest.param(lambda x: (_LINE.antiderivative(x),), id="antiderivative"),
    pytest.param(lambda x: basic_lemma_identity(_LINE, x), id="basic_lemma_identity"),
    pytest.param(lambda x: PiecewiseFunction.indicator(x).breakpoints, id="indicator"),
]


class TestExactOnlyFunctionals:
    @pytest.mark.parametrize("functional", EXACT_FUNCTIONALS)
    @pytest.mark.parametrize("bad", [0.5, 1.0, True], ids=["float", "float-one", "bool"])
    def test_rejects_float_and_bool(self, functional, bad):
        with pytest.raises(DomainError):
            functional(bad)

    @pytest.mark.parametrize("functional", EXACT_FUNCTIONALS)
    @pytest.mark.parametrize("good", [1, Fraction(1, 2)], ids=["int", "fraction"])
    def test_accepts_int_and_fraction(self, functional, good):
        values = functional(good)
        assert values and all(type(v) is Fraction for v in values)


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
