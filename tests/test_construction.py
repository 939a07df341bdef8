import itertools
import math
import random
from fractions import Fraction

import pytest

from protoseq import (
    DEFAULT_BUDGET,
    BinarySequence,
    BudgetExceededError,
    SequenceSet,
    as_duty_factors,
    build_arrays,
    construct_si,
    format_sequence_set,
    is_si,
    min_period_bound,
    parse_duty_spec,
    parse_sequence_set,
    si_divisibility,
    subset_divisors,
)
from protoseq.construction import _fill_rows, _pool_limit

from helpers import exhaustive_pair_correlations

CORPUS = [
    ("1/1",),
    ("1/2", "1/2"),
    ("1/2", "1/3"),
    ("2/3", "1/3", "1/3"),
    ("3/4", "2/5"),
    ("1/2", "1/3", "1/5"),
    ("5/6", "1/6"),
    ("1/4", "1/4", "1/4"),
    ("2/5", "1/3", "1/2"),
    ("1/2", "1/3", "1/5", "1/7"),
    ("9/10", "7/8", "1/2"),
    ("1/10", "1/10", "1/10"),
]


def test_worked_example_layout(example_set):
    rows = [s.to_string() for s in example_set.sequences]
    assert rows == [
        "110110110110110110110110110",
        "111000000111000000111000000",
        "111111111000000000000000000",
    ]
    assert example_set.period == 27


def test_trivial_all_one():
    sset = construct_si(("1/1",))
    assert sset.period == 1
    assert sset.sequences[0].bits == (1,)


def test_half_half_pair_constant_correlation():
    sset = construct_si(("1/2", "1/2"))
    assert sset.period == 4
    assert exhaustive_pair_correlations(sset, (1, 2)) == {1}


def test_min_period_bound_examples():
    assert min_period_bound(("2/3", "1/3", "1/3")) == 27
    assert min_period_bound(("1/1", "1/1")) == 1
    assert min_period_bound(("1/2", "1/3", "1/5")) == 30


def test_si_divisibility_examples():
    assert si_divisibility(("2/3", "1/3", "1/3"), (1, 2, 3)) == 27
    assert si_divisibility(("2/3", "1/3", "1/3"), (1,)) == 3
    assert si_divisibility(("1/2", "1/3", "1/5"), (2,)) == 3
    with pytest.raises(ValueError):
        si_divisibility(("1/2",), ())
    with pytest.raises(ValueError):
        si_divisibility(("1/2",), (2,))


def test_subset_divisors_match_si_divisibility():
    duty = ("2/3", "1/3", "1/3", "3/4", "5/6")
    subsets = [s for m in range(1, 6) for s in itertools.combinations(range(1, 6), m)]
    subsets += [(3, 1), (2, 2, 5)]
    assert subset_divisors(duty, subsets) == [si_divisibility(duty, s) for s in subsets]
    assert subset_divisors(duty, []) == []
    for bad in ([()], [(1,), (6,)], [(0, 1)]):
        with pytest.raises(ValueError):
            subset_divisors(duty, bad)


def test_duty_factors_reduce_to_lowest_terms():
    duty = as_duty_factors(["2/4"])
    assert duty == (Fraction(1, 2),)
    assert parse_duty_spec(" 2/4 , 3/9 ") == (Fraction(1, 2), Fraction(1, 3))


def test_duty_factor_validation():
    with pytest.raises(ValueError):
        as_duty_factors(["3/2"])
    with pytest.raises(ValueError):
        as_duty_factors(["-1/2"])
    with pytest.raises(ValueError):
        as_duty_factors([math.inf])
    # inputs that Fraction rejects with TypeError
    for bad in ((1.5, 2), (math.inf, 1), (1, 2, 3), None, 1j):
        with pytest.raises(ValueError):
            as_duty_factors([bad])
    with pytest.raises(ValueError):
        as_duty_factors([])
    with pytest.raises(ValueError):
        parse_duty_spec("")
    # a Fraction out of range takes the full check and its message
    for bad in (Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError, match=rf"^duty factor {bad} outside \[0, 1\]$"):
            as_duty_factors([Fraction(1, 2), bad])
    # a checked tuple passes through as the same objects
    checked = as_duty_factors(["2/3", "0", "1", "1/3"])
    assert all(a is b for a, b in zip(as_duty_factors(checked), checked, strict=True))

    class Duty(Fraction):
        pass

    (plain,) = as_duty_factors([Duty(1, 3)])
    assert type(plain) is Fraction and plain == Fraction(1, 3)


def test_left_fill_reads_no_random_state(monkeypatch):
    import protoseq.construction
    from protoseq import throughput

    duty = ("2/3", "1/3", "1/3")
    expected = (construct_si(duty), construct_si(duty, "left", seed=5),
                build_arrays(duty), throughput.consistency_check(duty, 1))

    def no_generator(*args):
        raise AssertionError("the left fill built a random generator")

    monkeypatch.setattr(protoseq.construction.random, "Random", no_generator)
    assert (construct_si(duty), construct_si(duty, "left", seed=5),
            build_arrays(duty), throughput.consistency_check(duty, 1)) == expected
    # the stub is live: the random fill goes through it
    with pytest.raises(AssertionError, match="built a random generator"):
        construct_si(duty, "random", seed=5)
    with pytest.raises(AssertionError, match="built a random generator"):
        build_arrays(duty, "random", seed=5)


def test_construction_realizes_duty_exactly():
    for spec in CORPUS:
        duty = as_duty_factors(spec)
        sset = construct_si(duty)
        assert sset.duty_factors == duty
        assert sset.period == min_period_bound(duty)


def test_period_divisible_by_all_subset_divisors():
    for spec in CORPUS:
        duty = as_duty_factors(spec)
        period = construct_si(duty).period
        k = len(duty)
        for m in range(1, k + 1):
            for users in itertools.combinations(range(1, k + 1), m):
                assert period % si_divisibility(duty, users) == 0


def test_array_rows_carry_exact_ones():
    for fill, seed in (("left", None), ("random", 99)):
        duty = as_duty_factors(("2/3", "1/3", "1/3"))
        arrays = build_arrays(duty, fill=fill, seed=seed)
        rows = 1
        for f, array in zip(duty, arrays):
            assert len(array) == rows
            for row in array:
                assert len(row) == f.denominator
                assert sum(row) == f.numerator
            rows *= f.denominator


def test_built_sets_are_shift_invariant():
    from math import comb

    for factors in CORPUS:
        built = construct_si(factors)
        K, L = built.size, built.period
        cost = sum(comb(K, m) * L ** m for m in range(1, K + 1))
        if cost > 10**8:
            continue  # full sweep too large for a unit test
        assert is_si(built, budget=10**8).holds, factors


def test_random_fill_is_still_shift_invariant():
    for seed in (0, 1, 2):
        sset = construct_si(("1/2", "1/3"), fill="random", seed=seed)
        assert is_si(sset).holds
    assert (
        construct_si(("2/3", "1/3"), fill="random", seed=5).duty_factors
        == as_duty_factors(("2/3", "1/3"))
    )


def test_random_fill_is_seeded():
    a = construct_si(("2/5", "3/7"), fill="random", seed=12)
    b = construct_si(("2/5", "3/7"), fill="random", seed=12)
    c = construct_si(("2/5", "3/7"), fill="random", seed=13)
    assert a == b
    assert a != c


def test_zero_duty_produces_silent_user():
    sset = construct_si(("0/1", "1/2"))
    assert sset.sequences[0].ones == 0
    assert sset.duty_factors[0] == 0


def test_fill_mode_validation():
    with pytest.raises(ValueError):
        build_arrays(("1/2",), fill="middle")


def readout_oracle(duty, fill, seed):
    """Slot-by-slot column-major readout of ``build_arrays``, repeated to L."""
    L = min_period_bound(duty)
    rows = []
    for array in build_arrays(duty, fill=fill, seed=seed):
        base = [array[r][c] for c in range(len(array[0])) for r in range(len(array))]
        rows.append(BinarySequence(tuple(base[t % len(base)] for t in range(L))))
    return SequenceSet(tuple(rows))


#: Duty lists whose rows ``random.sample`` draws with its rejection-set
#: branch (denominators above 21, and above 85 for numerators above 5)
#: as well as with its pool branch.
SET_BRANCH_DUTIES = (
    ("3/22", "7/90"),
    ("1/23", "25/28"),
    ("17/120", "2/3"),
    ("31/97",),
    ("5/26", "13/101"),
    ("1/2", "4/25", "6/7"),
)


def test_construct_si_matches_array_readout():
    rng = random.Random(41)
    duties = [
        tuple(
            Fraction(rng.randint(0, d), d)
            for d in (rng.randint(1, 7) for _ in range(rng.randint(1, 4)))
        )
        for _ in range(40)
    ]
    duties += [as_duty_factors(duty) for duty in SET_BRANCH_DUTIES]
    pooled = {f.denominator <= _pool_limit(f.numerator) for duty in duties for f in duty}
    assert pooled == {True, False}
    for duty in duties:
        assert construct_si(duty) == readout_oracle(duty, "left", None), duty
        for seed in (0, 1, rng.getrandbits(32)):
            assert construct_si(duty, "random", seed) == readout_oracle(
                duty, "random", seed
            ), (duty, seed)


def test_row_sampler_draws_as_random_sample():
    # one pair of generators in lock step: after each case both must be at
    # the same point of their streams
    seed = 20240611
    ours, theirs = random.Random(seed), random.Random(seed)
    branches = set()
    for d in range(1, 201):
        for n in range(d + 1):
            rows = 3 if d % 7 == 0 else 1
            readout = bytearray(b"0") * (d * rows)
            _fill_rows(ours.getrandbits, d, n, rows, readout)
            for r in range(rows):
                # row r's cells, column by column
                expected = bytearray(b"0") * d
                for c in theirs.sample(range(d), n):
                    expected[c] = ord("1")
                assert readout[r::rows] == expected, (d, n, r)
            assert ours.getrandbits(32) == theirs.getrandbits(32), (d, n)
            branches.add(d <= _pool_limit(n))
    assert branches == {True, False}


def test_construct_si_refuses_oversized_periods_up_front():
    for duty in (("1/9999", "1/9998", "1/9997"), (0.1,)):
        with pytest.raises(BudgetExceededError):
            construct_si(duty)
        with pytest.raises(BudgetExceededError):
            build_arrays(duty)
    big = (f"1/{DEFAULT_BUDGET // 2 + 1}", "1/2")
    assert len(big) * min_period_bound(big) > DEFAULT_BUDGET
    with pytest.raises(BudgetExceededError):
        construct_si(big, fill="random", seed=0)


def test_top_ladder_rung_round_trips_through_text():
    duty = ("1/2", "1/3", "2/5", "1/7", "3/11", "1/13", "2/17")
    sset = construct_si(duty)
    assert sset.period == 510510
    assert sset.duty_factors == as_duty_factors(duty)
    again = parse_sequence_set(format_sequence_set(sset))
    assert again == sset
