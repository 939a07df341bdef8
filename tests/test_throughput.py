import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from protoseq import analysis, throughput
from protoseq import (
    DEFAULT_BUDGET,
    BinarySequence,
    BudgetExceededError,
    SequenceSet,
    as_duty_factors,
    consistency_check,
    construct_si,
    curve_csv,
    is_ti,
    min_period_bound,
    optimal_duty,
    symmetric_throughput,
    throughput_curve,
    ti_throughput,
)

from helpers import subset_sum_oracle

BENCH = Path(__file__).resolve().parent.parent / "bench"

WORKED = ("2/3", "1/3", "1/3")


def test_worked_example_values():
    assert ti_throughput(WORKED, 1).per_user == (
        Fraction(8, 27),
        Fraction(2, 27),
        Fraction(2, 27),
    )
    assert ti_throughput(WORKED, 2).per_user == (
        Fraction(16, 27),
        Fraction(7, 27),
        Fraction(7, 27),
    )


def test_zero_duty_user_gets_zero():
    report = ti_throughput(("0/1", "1/2", "1/3"), 2)
    assert report.per_user[0] == 0


def test_gamma_validation():
    with pytest.raises(ValueError):
        ti_throughput(WORKED, 0)
    with pytest.raises(ValueError):
        ti_throughput(WORKED, 3)
    with pytest.raises(ValueError):
        symmetric_throughput(Fraction(1, 2), 3, 3)
    with pytest.raises(ValueError, match="integer"):
        ti_throughput(WORKED, 1.5)
    with pytest.raises(ValueError, match="integer"):
        symmetric_throughput(Fraction(1, 2), 3, 1.5)


def test_matches_subset_enumeration_oracle():
    rng = random.Random(61)
    for _ in range(40):
        k = rng.randint(2, 8)
        # mixed denominators, with silent (0/1) and always-on (1/1) users
        duty = [
            rng.choice((Fraction(0), Fraction(1), Fraction(rng.randint(0, d), d)))
            for d in (rng.randint(1, 12) for _ in range(k))
        ]
        for gamma in range(1, k):
            assert ti_throughput(duty, gamma).per_user == subset_sum_oracle(duty, gamma)


def test_symmetric_values():
    assert symmetric_throughput(Fraction(1, 3), 3, 2) == Fraction(8, 27)
    assert symmetric_throughput(Fraction(0), 5, 2) == 0
    assert symmetric_throughput(Fraction(1), 5, 4) == 0


def binomial_tail(f, users, gamma):
    """f times P(fewer than gamma of the other users transmit), term by term."""
    return sum(
        comb(users - 1, j) * f ** (j + 1) * (1 - f) ** (users - 1 - j)
        for j in range(gamma)
    )


def test_symmetric_reduction():
    rng = random.Random(67)
    for _ in range(30):
        k = rng.randint(2, 7)
        f = Fraction(rng.randint(0, 5), 5)
        gamma = rng.randint(1, k - 1)
        expected = subset_sum_oracle([f] * k, gamma)
        assert ti_throughput([f] * k, gamma).per_user == expected
        assert symmetric_throughput(f, k, gamma) == expected[0]
    for _ in range(60):
        k = rng.randint(2, 60)
        d = rng.randint(1, 40)
        f = Fraction(rng.randint(0, d), d)
        gamma = rng.choice((1, k - 1, rng.randint(1, k - 1)))
        expected = binomial_tail(f, k, gamma)
        assert symmetric_throughput(f, k, gamma) == expected
        assert set(ti_throughput([f] * k, gamma).per_user) == {expected}


def test_binomial_row_matches_comb_terms():
    rng = random.Random(83)
    for _ in range(300):
        d = rng.randint(1, 50)
        a = rng.randint(0, d)
        m = rng.randint(0, 80)
        n = rng.randint(0, m)
        assert throughput._binomial_row(a, d - a, m, n) == [
            comb(m, j) * a**j * (d - a) ** (m - j) for j in range(n + 1)
        ]


def test_repeated_factors_with_silent_and_always_on_users():
    rng = random.Random(79)
    for _ in range(60):
        k = rng.randint(2, 8)
        pool = [Fraction(0), Fraction(1), Fraction(rng.randint(1, 6), 7),
                Fraction(rng.randint(1, 4), 5)]
        duty = [rng.choice(pool) for _ in range(k)]
        for gamma in (1, rng.randint(1, k - 1), k - 1):
            assert ti_throughput(duty, gamma).per_user == subset_sum_oracle(duty, gamma)
    # two always-on users fill a capability of 2 by themselves
    assert ti_throughput(("1/1", "1/1", "1/2"), 2).per_user == (
        Fraction(1, 2), Fraction(1, 2), 0
    )


@pytest.mark.parametrize("f", ["1/0", (1, 0), "3/2", -1])
def test_symmetric_input_errors_match_ti_throughput(f):
    with pytest.raises(ValueError):
        ti_throughput([f] * 3, 1)
    with pytest.raises(ValueError):
        symmetric_throughput(f, 3, 1)


def test_exact_values_of_many_users_in_time():
    start = time.monotonic()
    ti_throughput(["1/99991"] * 900, 1)
    assert time.monotonic() - start < 1.0
    start = time.monotonic()
    symmetric_throughput(Fraction(12345, 99991), 1000, 500)
    assert time.monotonic() - start < 0.3
    start = time.monotonic()
    symmetric_throughput(Fraction(1, 3), 4000, 2000)
    assert time.monotonic() - start < 0.3


def test_monotone_in_gamma():
    rng = random.Random(71)
    for _ in range(20):
        k = rng.randint(3, 6)
        duty = [Fraction(rng.randint(1, 6), 6) for _ in range(k)]
        values = [ti_throughput(duty, g).per_user for g in range(1, k)]
        for a, b in zip(values, values[1:]):
            assert all(x <= y for x, y in zip(a, b))


def test_bounded_by_duty_factor():
    rng = random.Random(73)
    for _ in range(30):
        k = rng.randint(2, 6)
        duty = [Fraction(rng.randint(0, 7), 7) for _ in range(k)]
        gamma = rng.randint(1, k - 1)
        for f, r in zip(duty, ti_throughput(duty, gamma).per_user):
            assert 0 <= r <= f
    # equality when every other user is silent
    lonely = ti_throughput(("3/7", "0/1", "0/1"), 1)
    assert lonely.per_user[0] == Fraction(3, 7)


def test_consistency_with_built_sets():
    assert consistency_check(WORKED, 1)
    assert consistency_check(WORKED, 2)
    assert consistency_check(("1/2", "1/2"), 1)
    # an always-on user starves the other at capability 1, exactly as
    # the closed form predicts
    assert consistency_check(("1/1", "1/2"), 1)
    with pytest.raises(BudgetExceededError):
        consistency_check(WORKED, 1, budget=10)
    # the same sweep and cost as is_ti: L^(K-1) * K * L slot evaluations
    assert consistency_check(WORKED, 1, budget=27**2 * 3 * 27)
    with pytest.raises(BudgetExceededError):
        consistency_check(WORKED, 1, budget=27**2 * 3 * 27 - 1)


@pytest.mark.parametrize("fill", ["left", "random"])
def test_consistency_on_both_fills_of_the_sweep_corpus(fill, monkeypatch):
    # the benchmark's verify-sweep duty lists, built with either fill: the
    # period-reduced sweep finds every set consistent and reads the counts
    # of the exhaustive sweep, and a sweep past the budget is refused at
    # its nominal cost
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import SWEEP_CORPUS

    monkeypatch.setattr(throughput, "construct_si",
                        lambda duty: construct_si(duty, fill, seed=7))
    for spec in SWEEP_CORPUS:
        duty = as_duty_factors(spec)
        K, L = len(duty), min_period_bound(duty)
        for gamma in range(1, K):
            if L ** (K - 1) * K * L > DEFAULT_BUDGET:
                with pytest.raises(BudgetExceededError):
                    consistency_check(duty, gamma)
                continue
            assert consistency_check(duty, gamma) is True
            built = throughput.construct_si(duty)
            sweep = analysis._ti_sweep(built.masks, L, gamma)
            _, counts, difference = analysis._first_difference(sweep)
            assert difference is None
            assert analysis._periodic_ti(built, gamma, DEFAULT_BUDGET)[1:] == (counts, None)


def test_consistency_fails_on_a_set_that_is_not_ti(monkeypatch):
    # moving one of user 1's ones into the next slot keeps every weight,
    # so an average over all shift classes would still match the closed
    # form, but the set is no longer TI
    built = construct_si(WORKED)
    masks = (built.masks[0] ^ 0b110, *built.masks[1:])
    broken = SequenceSet(tuple(
        BinarySequence.from_mask(m, built.period) for m in masks
    ))
    assert broken.duty_factors == built.duty_factors
    assert not is_ti(broken, 1).holds
    monkeypatch.setattr(throughput, "construct_si", lambda duty: broken)
    assert consistency_check(WORKED, 1) is False


def test_optimal_duty_single_capability():
    res = optimal_duty(20, 1, 1e-4)
    assert abs(res.f_star - 0.05) < 1e-3
    assert res.rational_f == Fraction(1, 20)
    res2 = optimal_duty(2, 1, 1e-4)
    assert abs(res2.f_star - 0.5) < 1e-3


def test_optimal_duty_pinned_dense_grid_value():
    # frozen from an independent 1e-6-step scan: argmax 0.18633,
    # value 0.13565916191787997
    res = optimal_duty(20, 5, 1e-4)
    assert abs(res.f_star - 0.18633) < 1e-4
    assert abs(res.value - 0.13565916191787997) < 1e-9
    assert res.rational_value <= Fraction(13565916192, 10**11)


def test_optimal_duty_validation():
    with pytest.raises(ValueError):
        optimal_duty(5, 5, 1e-3)
    for resolution in (0, -1e-3, 5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            optimal_duty(5, 1, resolution)
    # refused before the grid is allocated, also at a Fraction resolution
    # below the smallest float
    with pytest.raises(BudgetExceededError):
        optimal_duty(5, 1, 1e-12)
    with pytest.raises(BudgetExceededError):
        optimal_duty(3, 1, Fraction(1, 10**400))


class _GridReached(Exception):
    pass


def test_optimal_duty_budget_keeps_binomials_within_float_range(monkeypatch):
    # the grid converts C(K - 1, j) to a float; find, for each K, the
    # largest gamma whose search the budget accepts at the coarsest grid
    def reached(*args):
        raise _GridReached

    monkeypatch.setattr(throughput, "_symmetric_values", reached)

    def accepted(users, gamma):
        try:
            optimal_duty(users, gamma, 1.0)
        except _GridReached:
            return True
        except BudgetExceededError:
            return False

    largest = 0
    for users in range(2, 16001, 37):
        lo, hi = 0, users - 1  # accepted(users, lo) holds by convention
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if accepted(users, mid) else (lo, mid - 1)
        if lo:
            j = min(lo - 1, (users - 1) // 2)
            largest = max(largest, comb(users - 1, j).bit_length())
    assert not accepted(16001, 1)
    assert 600 < largest < 1000


def test_optimal_duty_refuses_searches_over_its_budget(monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid was evaluated before the budget check")

    monkeypatch.setattr(throughput, "_symmetric_values", no_grid)
    for users, gamma, resolution in [(1100, 1099, 0.5), (2000, 1500, 0.01),
                                     (1020, 1000, 0.01), (60, 59, 1e-7)]:
        with pytest.raises(BudgetExceededError):
            optimal_duty(users, gamma, resolution)


def test_curve_rows_and_csv():
    rows = throughput_curve(range(10, 12), [1, 5, 10], ["1/10"])
    # gamma=10 is outside the model for K=10 and stays out of the table
    assert {(r.users, r.gamma) for r in rows} == {
        (10, 1), (10, 5), (11, 1), (11, 5), (11, 10)
    }
    first = next(r for r in rows if (r.users, r.gamma) == (10, 1))
    assert first.system == Fraction(9, 10) ** 9
    csv = curve_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "users,gamma,duty,per_user,system"
    assert lines[1] == "10,1,1/10,0.0387420489,0.387420489"


def test_curve_zero_duty_row():
    rows = throughput_curve([4], [1], ["0/1"])
    assert rows[0].per_user == 0 and rows[0].system == 0


@pytest.mark.parametrize("k_values, gammas, duties", [
    (range(1, 100001), [1], ["1/2"]),
    ([4000], [1, 2000], ["1/3"]),
    (range(1, 10**30), [10**29], ["1/2"]),
    (range(10**30, 1, -1), [1], ["1/2"]),
])
def test_curve_refuses_tables_over_its_budget_before_the_first_row(
    monkeypatch, k_values, gammas, duties
):
    def no_rows(*args):
        raise AssertionError("a row was computed before the budget check")

    monkeypatch.setattr(throughput, "symmetric_throughput", no_rows)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        throughput_curve(k_values, gammas, duties)
    assert time.monotonic() - start < 1.0


def test_curve_budget_is_the_sum_of_its_row_costs(monkeypatch):
    k_values, gammas, duties = range(10, 51, 10), [1, 5, 10], ["1/10", "1/20"]
    cost = sum(throughput._row_cost(k, g, Fraction(f))
               for k in k_values for g in gammas if g < k for f in duties)
    monkeypatch.setattr(throughput, "DEFAULT_BUDGET", cost)
    assert len(throughput_curve(k_values, gammas, duties)) == 28
    monkeypatch.setattr(throughput, "DEFAULT_BUDGET", cost - 1)
    with pytest.raises(BudgetExceededError):
        throughput_curve(k_values, gammas, duties)


def test_curve_skips_user_counts_below_every_capability():
    # counts up to the least capability give no row, so huge ranges of them
    # are never walked, and a table left with no row is refused
    start = time.monotonic()
    with pytest.raises(ValueError, match="no rows"):
        throughput_curve(range(1, 10**30, 7), [10**40], ["1/2"])
    assert time.monotonic() - start < 1.0
    for k_values in (range(1, 40), range(39, 0, -1), range(2, 40, 3),
                     range(38, 0, -4)):
        for gammas in ([1], [3, 1], [7, 40], [20]):
            assert throughput_curve(k_values, gammas, ["1/3"]) == \
                throughput_curve(list(k_values), gammas, ["1/3"])
    assert throughput_curve(iter([3, 4]), iter([1, 2]), ["1/2"]) == \
        throughput_curve([3, 4], [1, 2], ["1/2"])


@pytest.mark.parametrize("k_values, gammas", [
    (range(1, 10**30), [0, -3]),
    ([5], [2, 0]),
    ([5], []),
    ([5], [5, 7]),
    (range(0, 4), [7]),
    (range(5, 5), [1]),
    ([], [1]),
])
def test_curve_refuses_capabilities_below_one_and_tables_without_rows(k_values, gammas):
    with pytest.raises(ValueError):
        throughput_curve(k_values, gammas, ["1/2"])
