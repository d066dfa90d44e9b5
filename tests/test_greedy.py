import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyw2 import (
    Backend,
    BackendMismatch,
    GreedyInvariantError,
    SequenceState,
    e_functional,
    enumerate_candidates,
    extend,
    kritzinger_f,
    next_point,
    next_point_via_e,
    w2_squared,
)
from greedyw2 import greedy
from greedyw2.greedy import TIE_RULES, greedy_values
from greedyw2.metrics import step_identity_check
from greedyw2.numeric import ConfigError, DomainError

F = Fraction

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=48)
seed_lists = st.lists(unit_fractions, min_size=0, max_size=6)
dyadic_seed_lists = st.lists(
    st.integers(0, 1024).map(lambda k: k / 1024), min_size=0, max_size=6
)


def rational_state(seeds):
    return SequenceState(seeds, backend=Backend.RATIONAL)


def grown(seeds, count, backend=Backend.RATIONAL):
    state = SequenceState(seeds, backend=backend)
    extend(state, count)
    return state


def raw_forms(added, first_step):
    """(v*2k, 2k) for each value v added at step k, counting from ``first_step``;
    a greedy value's v*2k is an odd integer."""
    return [(v * 2 * k, 2 * k) for k, v in enumerate(added, first_step)]


class TestKnownValues:
    def test_empty_start_picks_one_half(self):
        assert next_point(rational_state([])) == F(1, 2)

    def test_empty_start_float(self):
        assert next_point(SequenceState([], backend=Backend.FLOAT)) == F(1, 2)

    def test_singleton_half_ties_at_quarters(self):
        evals = enumerate_candidates(rational_state([F(1, 2)]))
        assert [c.value for c in evals] == [F(1, 4), F(3, 4)]
        assert evals[0].f_value == evals[1].f_value == F(-9, 8)

    def test_tie_rules_pick_opposite_ends(self):
        assert next_point(rational_state([F(1, 2)]), tie_rule="smallest") == F(1, 4)
        assert next_point(rational_state([F(1, 2)]), tie_rule="largest") == F(3, 4)

    def test_two_point_state_continues_to_five_sixths(self):
        # F(x) = 3x^2 - x - 2[max(x,1/4) + max(x,1/2)] over candidates k/6.
        assert next_point(rational_state([F(1, 4), F(1, 2)])) == F(5, 6)

    def test_published_continuation_from_irrational_seeds(self):
        seeds = [1 / math.pi, 1 / math.e, 1 / math.sqrt(2)]
        state = SequenceState(seeds, backend=Backend.FLOAT)
        assert raw_forms(extend(state, 9), 4) == [
            (7, 8),
            (1, 10),
            (7, 12),
            (7, 14),
            (13, 16),
            (3, 18),
        ]

    def test_raw_reduces(self):
        state = SequenceState([1 / math.pi, 1 / math.e, 1 / math.sqrt(2)], backend=Backend.FLOAT)
        added = extend(state, 7)
        assert raw_forms(added, 4)[-1] == (7, 14)
        assert added[-1] == F(1, 2)

    def test_functional_value_example(self):
        # one point at 1/2, n = 1: F(1/4) = 2/16 - 1/4 - 2*(1/2) = -9/8
        assert kritzinger_f(rational_state([F(1, 2)]), F(1, 4)) == F(-9, 8)

    def test_e_functional_example(self):
        assert e_functional(rational_state([F(1, 2)]), F(1, 2)) == F(1, 6)

    def test_colliding_candidate_is_never_selected(self):
        # Seed 1/2 grown to 4 points; candidate 5/10 equals the existing 1/2.
        state = grown([F(1, 2)], 4)
        evals = enumerate_candidates(state)
        assert F(1, 2) in [c.value for c in evals]
        nxt = next_point(state)
        assert nxt != F(1, 2)
        assert nxt == F(7, 10)


class TestStateBasics:
    def test_points_are_sorted_copies(self):
        state = rational_state([F(3, 4), F(1, 4)])
        assert state.points == [F(1, 4), F(3, 4)]
        state.points.append(F(0))
        assert state.n == 2

    def test_copy_is_independent(self):
        state = rational_state([F(1, 2)])
        clone = state.copy()
        next_point(clone)
        assert state.n == 1
        assert clone.n == 2
        assert clone.points == [F(1, 4), F(1, 2)]
        assert state.points == [F(1, 2)]

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(DomainError):
            rational_state([F(3, 2)])
        with pytest.raises(DomainError):
            SequenceState([-0.25], backend=Backend.FLOAT)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                SequenceState([0.5, bad], backend=Backend.FLOAT)

    def test_rejects_wrong_scalar_type(self):
        with pytest.raises(BackendMismatch):
            rational_state([0.5])  # float seed in the exact backend
        state = rational_state([F(1, 2)])
        for functional in (kritzinger_f, e_functional):
            with pytest.raises(BackendMismatch):
                functional(state, 0.25)

    def test_extend_cannot_shrink(self):
        state = grown([], 5)
        with pytest.raises(DomainError):
            extend(state, 3)

    def test_unknown_tie_rule(self):
        with pytest.raises(ConfigError):
            next_point(rational_state([]), tie_rule="middle")

    def test_candidate_count_is_n_plus_one(self):
        state = rational_state([F(1, 5), F(2, 5), F(4, 5)])
        evals = enumerate_candidates(state)
        assert len(evals) == 4
        assert [c.m for c in evals] == [0, 1, 2, 3]
        assert [c.value for c in evals] == [F(1, 8), F(3, 8), F(5, 8), F(7, 8)]


class TestGreedyProperties:
    @given(seed_lists, st.integers(1, 8))
    def test_step_contract(self, seeds, steps):
        state = rational_state(seeds)
        for _ in range(steps):
            pre = state.copy()
            evals = enumerate_candidates(pre)
            chosen = next_point(state)
            # raw form (2k+1)/(2n) at the new count n
            raw = chosen * 2 * (pre.n + 1)
            assert raw.denominator == 1 and raw.numerator % 2 == 1
            assert 0 < chosen < 1
            # novelty
            assert chosen not in pre.points
            # exact argmin over the candidate set
            best = min(c.f_value for c in evals)
            assert kritzinger_f(pre, chosen) == best
            # smallest tie rule: no smaller non-colliding candidate attains the min
            for c in evals:
                if c.f_value == best and c.value not in pre.points:
                    assert chosen <= c.value

    @given(
        st.one_of(
            seed_lists.map(lambda s: (s, Backend.RATIONAL)),
            dyadic_seed_lists.map(lambda s: (s, Backend.FLOAT)),
        ),
        st.integers(1, 6),
    )
    def test_two_routes_agree(self, instance, steps):
        seeds, backend = instance
        a = SequenceState(seeds, backend=backend)
        b = SequenceState(seeds, backend=backend)
        for _ in range(steps):
            assert next_point(a) == next_point_via_e(b)

    @given(seed_lists)
    def test_functional_difference_is_scaled_transport_difference(self, seeds):
        state = rational_state(seeds)
        n = state.n
        evals = enumerate_candidates(state)
        scale = (n + 1) ** 2
        base = evals[0]
        w_base = w2_squared(sorted([*state.points, base.value]))
        for cand in evals[1:]:
            w_cand = w2_squared(sorted([*state.points, cand.value]))
            assert cand.f_value - base.f_value == scale * (w_cand - w_base)

    @given(seed_lists, unit_fractions)
    def test_step_identity_holds_for_any_insertion(self, seeds, z):
        state = rational_state(seeds)
        assert step_identity_check(state, z) == 0

    @given(seed_lists, st.integers(1, 6))
    def test_largest_tie_rule_contract(self, seeds, steps):
        state = rational_state(seeds)
        for _ in range(steps):
            pre = state.copy()
            evals = enumerate_candidates(pre)
            chosen = next_point(state, tie_rule="largest")
            best = min(c.f_value for c in evals)
            assert kritzinger_f(pre, chosen) == best
            for c in evals:
                if c.f_value == best and c.value not in pre.points:
                    assert chosen >= c.value


class TestBackendAgreement:
    @given(
        st.lists(st.integers(0, 1024).map(lambda k: F(k, 1024)), min_size=0, max_size=4),
        st.integers(1, 60),
        st.sampled_from(TIE_RULES),
    )
    @settings(max_examples=25)
    def test_backends_agree_at_every_step(self, seeds, count, tie_rule):
        # Dyadic seeds convert to float losslessly, so both backends solve
        # the same instance, and both decide exactly.
        count = max(count, len(seeds))
        exact = SequenceState(seeds, backend=Backend.RATIONAL)
        approx = SequenceState([float(s) for s in seeds], backend=Backend.FLOAT)
        for _ in range(count - exact.n):
            assert next_point(exact, tie_rule) == next_point(approx, tie_rule)

    def test_full_precision_seed_takes_exact_winner_on_both_backends(self):
        # A seed one ulp off 1/3 makes F(1/6) and F(1/2) differ by ~4e-16
        # after two steps: a strict winner whose gap is below one float64
        # ulp of the functional values.  Both backends pick it, and so does
        # the E route on the float backend.
        seed = F(0.3333333333333333)
        exact = extend(SequenceState([seed], backend=Backend.RATIONAL), 3)
        approx = extend(SequenceState([float(seed)], backend=Backend.FLOAT), 3)
        assert exact == approx
        assert raw_forms(exact, 2) == [(3, 4), (3, 6)]
        via_e = SequenceState([float(seed)], backend=Backend.FLOAT)
        assert raw_forms([next_point_via_e(via_e) for _ in range(2)], 2) == [(3, 4), (3, 6)]
        pre = SequenceState([seed, F(3, 4)], backend=Backend.RATIONAL)
        gap = kritzinger_f(pre, F(1, 6)) - kritzinger_f(pre, F(1, 2))
        assert 0 < gap < 1e-12

    def test_seed_half_agrees_to_two_thousand(self):
        exact = extend(SequenceState([F(1, 2)], backend=Backend.RATIONAL), 2000)
        approx = extend(SequenceState([0.5], backend=Backend.FLOAT), 2000)
        assert exact == approx

    def test_exact_tie_at_n_16059_from_seed_half(self):
        # Candidates m = 10292 and 10293 tie exactly here; the objective is
        # of size n, so a tolerance on F values cannot see the tie.
        state = grown([0.5], 16059, Backend.FLOAT)
        chosen = next_point(state, "smallest")
        assert chosen == F(20585, 32120)
        assert raw_forms([chosen], 16060) == [(20585, 32120)]


def brute_force_next(seeds, added, tie_rule):
    """The tie rule's pick among the non-colliding exact minimizers of F.

    The exact points are the seeds (a float seed is an exact binary
    fraction) and ``added``, the exact values the greedy steps returned.
    """
    points = [F(s) for s in seeds] + list(added)
    exact = SequenceState(points, backend=Backend.RATIONAL)
    evals = enumerate_candidates(exact)
    best = min(c.f_value for c in evals)
    taken = set(exact.points)
    tied = [c.value for c in evals if c.f_value == best and c.value not in taken]
    return tied[0] if tie_rule == "smallest" else tied[-1]


dyadic = st.integers(0, 2**20).map(lambda k: F(k, 2**20))
seed_kinds = {
    "rational": (st.fractions(min_value=0, max_value=1, max_denominator=10**6), Backend.RATIONAL),
    "dyadic": (dyadic, Backend.FLOAT),
    "duplicate": (st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]), Backend.RATIONAL),
    "float": (st.floats(min_value=0.0, max_value=1.0), Backend.FLOAT),
}


class TestExactEngineFuzz:
    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    @pytest.mark.parametrize("kind", sorted(seed_kinds))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_next_point_matches_brute_force(self, kind, tie_rule, data):
        values, backend = seed_kinds[kind]
        seeds = data.draw(st.lists(values, max_size=8), label="seeds")
        n = data.draw(st.integers(len(seeds), 197), label="n")
        state = SequenceState(seeds, backend=backend)
        added = extend(state, n, tie_rule)
        for _ in range(3):
            want = brute_force_next(seeds, added, tie_rule)
            added.append(next_point(state, tie_rule))
            assert added[-1] == want


def exact_deviation_sums(state):
    """D_m = sum_{k<m} (x_k - (k+1)/(n+1)) for m = 0..n, in Fractions."""
    pts = state.exact_points
    n = len(pts)
    sums = [F(0)]
    for k, p in enumerate(pts):
        sums.append(sums[-1] + p - F(k + 1, n + 1))
    return sums


def assert_sums_within_bound(state):
    eps = F(state._eps)
    approx = state._dev[: state.n + 1].tolist()
    for got, want in zip(approx, exact_deviation_sums(state), strict=True):
        assert abs(F(got) - want) <= eps


class TestDeviationSums:
    @given(
        kind=st.sampled_from(["rational", "float", "duplicate"]),
        data=st.data(),
        tie_rule=st.sampled_from(TIE_RULES),
        routes=st.lists(st.booleans(), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_updates_stay_within_bound(self, kind, data, tie_rule, routes):
        if kind == "float":
            values = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, 1.0])
            backends = [Backend.FLOAT]
        else:
            values = seed_kinds[kind][0] | st.sampled_from([F(0), F(1)])
            backends = [Backend.RATIONAL, Backend.FLOAT]
        seeds = data.draw(st.lists(values, max_size=8), label="seeds")
        backend = data.draw(st.sampled_from(backends), label="backend")
        state = SequenceState(seeds, backend=backend)
        assert_sums_within_bound(state)
        added = []
        for via_e in routes:
            added.append((next_point_via_e if via_e else next_point)(state, tie_rule))
            assert_sums_within_bound(state)
        points = state.points
        dev = state._dev[: state.n + 1].copy()
        clone = state.copy()
        extend(clone, clone.n + 5, tie_rule)
        assert state.points == points
        assert np.array_equal(state._dev[: state.n + 1], dev)
        if backend is Backend.FLOAT:
            seeds = [float(s) for s in seeds]
        want = brute_force_next(seeds, added, tie_rule)
        assert next_point(state, tie_rule) == want


class TestExactFallback:
    def test_fallback_steps_from_seed_half(self, monkeypatch):
        # The exact stage runs only where the certified window holds more
        # than one rank.  A looser bound than the engine's would widen
        # windows and add steps here.
        windows = []
        exact_argmin = greedy._exact_argmin

        def spy(state, window, tie_rule):
            windows.append((state.n, window))
            return exact_argmin(state, window, tie_rule)

        monkeypatch.setattr(greedy, "_exact_argmin", spy)
        state = SequenceState([0.5], backend=Backend.FLOAT)
        extend(state, 10000)
        assert len(windows) == 89
        extend(state, 20000)
        assert len(windows) == 104
        assert (16059, [10292, 10293]) in windows
        for n, window in windows:
            assert window == list(range(window[0], window[-1] + 1))
            assert len(window) == (3 if n in (3, 7, 15) else 2)


class TestInvariantErrors:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_corrupted_state_names_step_and_ranks(self, bad):
        state = grown([0.5], 6, Backend.FLOAT)
        points = state.points
        state._dev[2] = bad
        msg = r"step 7 \(n = 6\), candidate ranks m = 0\.\.6: "
        with pytest.raises(GreedyInvariantError, match=msg):
            next_point(state)
        assert state.n == 6 and state.points == points


class TestConvenienceApis:
    def test_extend_reaches_count(self):
        state = rational_state([F(1, 3)])
        added = extend(state, 7)
        assert state.n == 7
        assert len(added) == 6

    def test_greedy_values_order_and_length(self):
        vals = greedy_values([0.25, 0.75], 6)
        assert vals.shape == (6,)
        assert vals[0] == 0.25 and vals[1] == 0.75
        assert np.all((vals > 0) & (vals < 1))

    def test_greedy_values_empty_start(self):
        vals = greedy_values([], 3)
        assert vals[0] == 0.5
