import dataclasses
import itertools
import random
import re
from fractions import Fraction
from functools import partial
from math import comb
from types import SimpleNamespace

import pytest

from protoseq import analysis
from protoseq import (
    DEFAULT_BUDGET,
    BinarySequence,
    BudgetExceededError,
    PreconditionError,
    PropertyVerdict,
    SequenceSet,
    StructuralContradictionError,
    Witness,
    allone_constraint,
    check_lemma_delta,
    check_lemma_theta,
    consistency_check,
    construct_si,
    correlation_values,
    count_config,
    delta_record,
    find_pairwise_si_not_si,
    hamming_cross_correlation,
    is_pairwise_si,
    is_si,
    is_ti,
    structural_conclusion,
    structural_hypotheses,
    theta_profile,
    throughput_at,
    ti_throughput,
    verify_witness,
)
from protoseq import reference
from protoseq.core import rotate_mask

from helpers import (
    PAIRWISE_SI_NOT_SI,
    config_constancy_si_oracle,
    first_difference_si,
    first_difference_ti,
    random_set,
    search_oracle,
    structural_regimes_oracle,
    unpack_block,
    unpack_column,
)


def sset(*rows):
    return SequenceSet.from_strings(rows)


ALIGNED_PAIR = sset("10", "10")


# ---------------------------------------------------------------------------
# shift-invariance verdicts


def test_is_si_worked_example(example_set):
    verdict = is_si(example_set)
    assert verdict.holds
    assert verdict.witness is None
    # 3 singletons + 3 pairs * 27 + 1 triple * 27^2
    assert verdict.configurations_checked == 3 + 3 * 27 + 729


def test_is_si_rejects_aligned_pair():
    verdict = is_si(ALIGNED_PAIR)
    assert not verdict.holds
    w = verdict.witness
    assert w.users == (1, 2)
    assert {w.value_a, w.value_b} == {0, 1}
    assert verify_witness(ALIGNED_PAIR, verdict)


def test_is_si_single_all_one():
    assert is_si(sset("111")).holds


def test_is_si_agrees_with_config_constancy_oracle():
    rng = random.Random(17)
    seen_false = 0
    for _ in range(40):
        trial = random_set(rng, rng.randint(2, 3), rng.randint(2, 6))
        expected = config_constancy_si_oracle(trial)
        assert is_si(trial).holds == expected
        seen_false += not expected
    assert seen_false > 0
    for spec in (("1/2", "1/2"), ("2/3", "1/3"), ("1/2", "1/3")):
        built = construct_si(spec)
        assert is_si(built).holds
        assert config_constancy_si_oracle(built)


def test_is_pairwise_si(example_set):
    assert is_pairwise_si(example_set).holds
    assert is_pairwise_si(sset("1100", "1010")).holds
    assert not is_pairwise_si(ALIGNED_PAIR).holds
    assert is_pairwise_si(sset("10")).holds  # vacuous for one user


def test_si_implies_pairwise_si():
    for spec in (("1/2", "1/2"), ("2/3", "1/3", "1/3"), ("1/2", "1/3", "1/5")):
        built = construct_si(spec)
        assert is_si(built).holds
        assert is_pairwise_si(built).holds


def test_pinned_first_shift_agrees_with_full_space():
    rng = random.Random(29)
    for _ in range(25):
        trial = random_set(rng, 2, rng.randint(2, 5))
        L = trial.period
        full_space_constant = (
            len(
                {
                    hamming_cross_correlation(trial, (1, 2), (a, b))
                    for a in range(L)
                    for b in range(L)
                }
            )
            == 1
        )
        assert is_si(trial).holds == full_space_constant


# ---------------------------------------------------------------------------
# throughput invariance


def test_is_ti_worked_example(example_set):
    v1 = is_ti(example_set, 1)
    assert v1.holds and v1.gamma == 1
    assert throughput_at(example_set, (0, 0, 0), 1) == (
        Fraction(8, 27),
        Fraction(2, 27),
        Fraction(2, 27),
    )
    v2 = is_ti(example_set, 2)
    assert v2.holds
    assert throughput_at(example_set, (0, 0, 0), 2) == (
        Fraction(16, 27),
        Fraction(7, 27),
        Fraction(7, 27),
    )


def test_is_ti_rejects_aligned_pair():
    verdict = is_ti(ALIGNED_PAIR, 1)
    assert not verdict.holds
    w = verdict.witness
    assert {w.value_a, w.value_b} == {Fraction(0), Fraction(1, 2)}
    assert verify_witness(ALIGNED_PAIR, verdict)


def test_verify_witness_is_false_without_a_witness_or_a_capability(example_set):
    # a positive verdict carries no witness to re-check
    assert not verify_witness(example_set, is_si(example_set))
    assert not verify_witness(example_set, is_ti(example_set, 1))
    # a TI witness is only a counterexample at a stated capability
    verdict = dataclasses.replace(is_ti(ALIGNED_PAIR, 1), gamma=None)
    assert not verify_witness(ALIGNED_PAIR, verdict)


@pytest.mark.parametrize("users", [(0,), (3,), (1, 2)])
def test_verify_witness_rejects_malformed_ti_users(users):
    # user 0 would read user K, user K + 1 lies past the set, and a TI
    # witness names exactly one user
    verdict = is_ti(ALIGNED_PAIR, 1)
    witness = dataclasses.replace(verdict.witness, users=users)
    with pytest.raises(ValueError):
        verify_witness(ALIGNED_PAIR, dataclasses.replace(verdict, witness=witness))


@pytest.mark.parametrize("prop, gamma, changes, message", [
    ("TI", 1, {"users": (1, 2)}, "a TI witness names exactly one user: (1, 2)"),
    ("TI", 1, {"users": ()}, "user tuple must be non-empty"),
    ("TI", 1, {"users": (3,)}, "user indices must lie in [1, 2]: (3,)"),
    ("TI", 2, {"users": (1,)}, "gamma must satisfy 1 <= gamma < K=2"),
    ("TI", 1, {"users": (1,), "shifts_a": (0,)},
     "expected 2 shifts, got 1"),
    ("TI", 1, {"users": (2,), "shifts_b": (0, 0, 1)},
     "expected 2 shifts, got 3"),
    ("SI", None, {"users": (2, 1)}, "user indices must be strictly increasing: (2, 1)"),
    ("SI", None, {"shifts_b": (0,)}, "expected 2 shifts, got 1"),
    ("PAIRWISE_SI", None, {"users": (0, 1)}, "user indices must lie in [1, 2]: (0, 1)"),
    ("XI", None, {}, "unknown property 'XI'"),
])
def test_verify_witness_messages(prop, gamma, changes, message):
    witness = dataclasses.replace(Witness((1, 2), (0, 0), (0, 1), 1, 0), **changes)
    verdict = PropertyVerdict(prop, False, witness, 1, gamma)
    with pytest.raises(ValueError) as info:
        verify_witness(ALIGNED_PAIR, verdict)
    assert str(info.value) == message


def stored_forms(count, L):
    """A TI value as verdicts might store it: exact and off by one count,
    as a Fraction, a float and (where whole or nearly) an int."""
    forms = []
    for c in (count - 1, count, count + 1):
        forms += [Fraction(c, L), c / L]
        if c % L == 0:
            forms.append(c // L)
    return forms + [count // L + 1]


@pytest.mark.parametrize("rows, gamma", [
    (("10", "10"), 1),
    (("110", "100", "010"), 1),
    (("110", "100", "010"), 2),
    (("1100", "1010", "0111"), 2),
    (("111", "100", "010"), 2),
])
def test_verify_witness_compares_stored_ti_values_as_fractions(rows, gamma):
    # whatever type a stored value has, the re-check answers as
    # ``value == Fraction(count, L)`` does
    trial = sset(*rows)
    L = trial.period
    verdict = is_ti(trial, gamma)
    assert not verdict.holds
    w = verdict.witness
    i = w.users[0] - 1
    ca, cb = (reference.throughput_at(trial, s, gamma)[i] * L
              for s in (w.shifts_a, w.shifts_b))
    answers = set()
    for va, vb in itertools.product(stored_forms(ca, L), stored_forms(cb, L)):
        forged = dataclasses.replace(
            verdict, witness=dataclasses.replace(w, value_a=va, value_b=vb))
        expected = va == Fraction(ca, L) and vb == Fraction(cb, L) and ca != cb
        assert verify_witness(trial, forged) is expected, (va, vb)
        answers.add(expected)
    assert answers == {True, False}


def test_is_ti_with_silent_user_skips_pairwise_cross_check():
    # a silent user is invariant for free, so the whole set can be TI
    # while some pair is not shift-invariant; the pairwise implication
    # only binds when every throughput is positive
    trial = sset("11", "10", "00", "01")
    verdict = is_ti(trial, 3)
    assert verdict.holds
    assert not is_pairwise_si(trial).holds
    assert throughput_at(trial, (0, 0, 0, 0), 3)[2] == 0


def test_is_ti_raises_when_the_pairwise_cross_check_fails(example_set, monkeypatch):
    # a positive TI verdict with positive throughputs forces pairwise SI;
    # a failed re-check means the counting itself is broken
    witness = Witness((1, 2), (0, 0), (0, 1), 6, 5)
    failed = PropertyVerdict("PAIRWISE_SI", False, witness, 1)
    monkeypatch.setattr(analysis, "is_pairwise_si", lambda *a, **k: failed)
    with pytest.raises(StructuralContradictionError):
        is_ti(example_set, 1)


def test_is_ti_gamma_validation(example_set):
    with pytest.raises(ValueError):
        is_ti(example_set, 0)
    with pytest.raises(ValueError):
        is_ti(example_set, 3)
    with pytest.raises(ValueError, match="integer"):
        is_ti(example_set, 1.5)
    with pytest.raises(ValueError, match="integer"):
        throughput_at(example_set, (0, 0, 0), 1.5)
    # an integral gamma of another type still passes
    assert is_ti(example_set, True).holds


def _direct_counts(trial, gamma):
    """Success counts at one shift vector, from directly rotated masks."""
    L = trial.period

    def counts_at(shifts):
        masks = [rotate_mask(m, t, L) for m, t in zip(trial.masks, shifts)]
        return analysis.success_counts(masks, gamma, L)

    return counts_at


def test_ti_sweep_matches_direct_counts_and_first_difference_scan():
    rng = random.Random(43)
    for _ in range(60):
        K = rng.randint(2, 5)
        trial = random_set(rng, K, rng.randint(1, 8 if K < 5 else 5))
        L = trial.period
        for gamma in range(1, K):
            counts_at = _direct_counts(trial, gamma)
            blocks = list(analysis._ti_sweep(trial, gamma, DEFAULT_BUDGET))
            # every segment holds each user's counts at the last user's L
            # shifts, checked here against directly rotated masks
            segments = [seg for block in blocks for seg in unpack_block(block, L)]
            for middle, columns in segments:
                assert len(columns) == K
                for t in range(L):
                    counts = counts_at((0, *middle, t))
                    assert tuple(column[t] for column in columns) == counts
            # the first block is the all-zero class in one segment; rows
            # start over from it, one-segment blocks go on after it, and
            # either way in lexicographic order of users 2..K-1
            outers = list(itertools.product(range(L), repeat=K - 2))
            lanes = analysis._lanes(L)
            repeated = outers[:1] if K > 2 and lanes.row else []
            assert [middle for middle, _ in segments] == repeated + outers
            assert all(shape is (lanes.row or lanes) for _, shape, _ in blocks[1:])
            expected = first_difference_ti(trial, gamma, counts_at)
            assert is_ti(trial, gamma) == expected
            if expected.holds:
                assert expected.configurations_checked == L ** (K - 1)


#: The field width of each period where the width steps, and of L = 1:
#: the narrowest width of at least bit_length(L) bits with no prime
#: factor above 5, so bit length 7 takes 8 bits.
FIELD_WIDTHS = {1: 1, 3: 2, 4: 3, 7: 3, 8: 4, 15: 4, 16: 5, 31: 5, 32: 6, 63: 6,
                64: 8, 255: 8, 256: 9}


@pytest.mark.parametrize("L", list(FIELD_WIDTHS))
def test_lane_columns_at_the_field_width_boundary(L):
    # 2^b - 1 is the largest count b bits hold; at 2^b fields widen
    lanes = analysis._lanes(L)
    assert lanes.width == FIELD_WIDTHS[L]
    rng = random.Random(L)
    full = (1 << L) - 1
    masks = (0, full, rng.getrandbits(L), rng.getrandbits(L))
    for a in masks:
        for b in masks:
            column = lanes.column(lanes.spread(a), lanes.spread_reversed(b))
            expected = [(a & rotate_mask(b, t, L)).bit_count() for t in range(L)]
            assert unpack_column(column, L) == expected
            assert lanes.fields(column) == expected[::-1]  # field f is tau = L - 1 - f
    # all-ones beside all-zero: every success count is L or 0
    for a, b in [(full, 0), (0, full), (full, full), (masks[2], full), (masks[3], 0)]:
        trial = SequenceSet(
            (BinarySequence.from_mask(a, L), BinarySequence.from_mask(b, L))
        )
        counts_at = _direct_counts(trial, 1)
        [(outer, shape, columns)] = analysis._ti_sweep(trial, 1, DEFAULT_BUDGET)
        assert outer == () and shape is lanes
        columns = [unpack_column(c, L) for c in columns]
        assert [counts_at((0, t)) for t in range(L)] == list(zip(*columns))
        assert is_ti(trial, 1) == first_difference_ti(trial, 1, counts_at)
        correlation_at = partial(hamming_cross_correlation, trial)
        expected = first_difference_si(trial, [1, 2], "SI", correlation_at)
        assert is_si(trial) == expected


@pytest.mark.parametrize("L", [4, 27, 64, 256])
def test_row_layout_matches_its_segments(L):
    # sweeps use rows for 4 <= L <= 64; the layout holds at 9-bit fields
    # too, and at L = 27 a segment's 2 * 27 * 5 = 270 bits pad to 272
    lanes = analysis._lanes(L)
    row = analysis._Row(lanes)
    assert row.stride % 8 == 0 and 0 <= row.stride - 2 * lanes.bits < 8
    if L == 27:
        assert lanes.width == 5 and row.stride == 272
    rng = random.Random(L)
    a, b, c = (rng.getrandbits(L) for _ in range(3))
    inner = row.rotations(lanes.spread(b))
    first = row.replicate(lanes.spread(a))
    last = lanes.spread_reversed(c)
    both = first & inner
    block = ((0,), row, [row.column(both, last), *row.successes([first], first, inner, last)])
    segments = unpack_block(block, L)
    assert [middle for middle, _ in segments] == [(j,) for j in range(L)]
    for j, (_, [column, successes]) in enumerate(segments):
        rotated = a & rotate_mask(b, j, L)
        lost = [(rotated & rotate_mask(c, t, L)).bit_count() for t in range(L)]
        assert column == lost
        assert successes == [a.bit_count() - n for n in lost]
    # fields run segment by segment, field 0 first, and skip the upper halves
    assert list(row.fields(block[2][0])) == [
        n for _, [column, _] in segments for n in reversed(column)
    ]


def _difference_places(trial, gamma):
    """Where a sweep meets the first class that differs from the all-zero
    class: in the first block, in a later segment of the first row or in
    a later row, and whether two columns differ first in different
    segments of that row."""
    verdict = is_ti(trial, gamma)
    if verdict.holds:
        return set()
    middle = verdict.witness.shifts_b[1:-1]
    places = {"first block" if not any(middle) else
              "first row" if not any(middle[:-1]) else "later row"}
    L = trial.period
    blocks = analysis._ti_sweep(trial, gamma, DEFAULT_BUDGET)
    [(_, zero)] = unpack_block(next(blocks), L)
    for block in blocks:
        if not isinstance(block[1], analysis._Row):
            break
        segments = unpack_block(block, L)
        firsts = {
            min(j for j, (_, columns) in enumerate(segments) if columns[i] != base)
            for i, base in enumerate(zero)
            if any(columns[i] != base for _, columns in segments)
        }
        if firsts:
            if len(firsts) > 1:
                places.add("columns differ first in different segments")
            break
    return places


def test_row_sweeps_match_reference_scans():
    # sparse sets often match the all-zero class past the first block,
    # so their witnesses reach every segment and row of a sweep
    rng = random.Random(2026)
    places = set()
    for _ in range(80):
        K = rng.randint(3, 5)
        L = rng.randint(2, 12 if K < 5 else 6)
        p = rng.choice([0.5, 0.2, 0.1])
        trial = SequenceSet(tuple(
            BinarySequence(tuple(int(rng.random() < p) for _ in range(L)))
            for _ in range(K)
        ))
        for gamma in range(1, K):
            def counts_at(shifts):
                values = reference.throughput_at(trial, shifts, gamma)
                return tuple(int(v * L) for v in values)

            assert is_ti(trial, gamma) == first_difference_ti(trial, gamma, counts_at)
            places |= _difference_places(trial, gamma)
        correlation_at = partial(reference.hamming_cross_correlation, trial)
        expected = first_difference_si(trial, range(1, K + 1), "SI", correlation_at)
        assert is_si(trial) == expected
        expected = first_difference_si(trial, [2], "PAIRWISE_SI", correlation_at)
        assert is_pairwise_si(trial) == expected
        for users in itertools.combinations(range(1, K + 1), 3):
            values = {
                correlation_at(users, (0, *rest))
                for rest in itertools.product(range(L), repeat=2)
            }
            assert correlation_values(trial, users) == values
    assert places == {
        "first block",
        "first row",
        "later row",
        "columns differ first in different segments",
    }
    # a row's empty upper halves are not read as correlations of 0
    assert correlation_values(sset("11111111", "11111111", "11111110"), (1, 2, 3)) == {7}


def test_verdicts_with_9_bit_fields_match_brute_force_scans():
    duty = ("9/10", "1/30")  # L = 300, and user 1 succeeds in over 255 slots
    built = construct_si(duty)
    broken = random_set(random.Random(300), 2, 300)
    for trial in (built, broken):
        L = trial.period
        assert L == 300 and analysis._lanes(L).width == 9
        counts_at = _direct_counts(trial, 1)
        assert is_ti(trial, 1) == first_difference_ti(trial, 1, counts_at)
        correlation_at = partial(hamming_cross_correlation, trial)
        expected = first_difference_si(trial, [1, 2], "SI", correlation_at)
        assert is_si(trial) == expected
    assert is_ti(built, 1).holds and not is_ti(broken, 1).holds
    # consistency_check sums 9-bit fields whose top bits are set
    for trial in (broken, built):
        counts_at = _direct_counts(trial, 1)
        totals = [sum(c) for c in zip(*(counts_at((0, t)) for t in range(300)))]
        assert analysis._success_totals(trial, 1, DEFAULT_BUDGET) == totals
    assert max(max(counts_at((0, t))) for t in range(300)) > 255
    closed = ti_throughput(duty, 1).per_user
    assert tuple(Fraction(t, 300 * 300) for t in totals) == closed
    assert consistency_check(duty, 1)


def _width_class_trials():
    """A sparse and a dense set at every period 1-70 and at 255, 256 and
    300: every field width from 1 to 9 bits.  Three users while rows can
    engage (L <= 64), two past that."""
    rng = random.Random(7070)
    for L in [*range(1, 71), 255, 256, 300]:
        K = 3 if L <= 64 else 2
        for p in (0.15, 0.85):
            yield SequenceSet(tuple(
                BinarySequence(tuple(int(rng.random() < p) for _ in range(L)))
                for _ in range(K)
            ))


def test_verdicts_agree_with_direct_scans_at_every_field_width():
    widths = set()
    for trial in _width_class_trials():
        K, L = trial.size, trial.period
        widths.add(analysis._lanes(L).width)
        classes = list(itertools.product(range(L), repeat=K - 1))
        for gamma in range(1, K):
            # every class's counts from directly rotated masks, once
            counts_at = _direct_counts(trial, gamma)
            table = {(0, *rest): counts_at((0, *rest)) for rest in classes}
            verdict = is_ti(trial, gamma)
            assert verdict == first_difference_ti(trial, gamma, table.__getitem__)
            if not verdict.holds:
                assert verify_witness(trial, verdict)
                w = verdict.witness
                values = reference.throughput_at(trial, w.shifts_b, gamma)
                assert values[w.users[0] - 1] == w.value_b
            totals = [sum(c) for c in zip(*table.values())]
            assert analysis._success_totals(trial, gamma, DEFAULT_BUDGET) == totals
        # every tuple's correlation at every class from directly rotated masks
        rotations = [[rotate_mask(m, t, L) for t in range(L)] for m in trial.masks]

        def correlation_at(users, shifts):
            acc = -1
            for u, t in zip(users, shifts):
                acc &= rotations[u - 1][t]
            return acc.bit_count()

        si = is_si(trial)
        assert si == first_difference_si(trial, range(1, K + 1), "SI", correlation_at)
        pairwise = is_pairwise_si(trial)
        assert pairwise == first_difference_si(trial, [2], "PAIRWISE_SI", correlation_at)
        for verdict in (si, pairwise):
            if not verdict.holds:
                w = verdict.witness
                value = reference.hamming_cross_correlation(trial, w.users, w.shifts_b)
                assert value == w.value_b
        for users in itertools.combinations(range(1, K + 1), 3):
            values = {correlation_at(users, (0, *rest)) for rest in classes}
            assert correlation_values(trial, users) == values
    assert widths == {1, 2, 3, 4, 5, 6, 8, 9}


def test_correlation_values_cover_every_shift_tuple():
    rng = random.Random(23)
    trials = [random_set(rng, rng.randint(1, 4), rng.randint(1, 7)) for _ in range(30)]
    trials.append(sset(*PAIRWISE_SI_NOT_SI))
    for trial in trials:
        K, L = trial.size, trial.period
        for m in range(1, K + 1):
            for users in itertools.combinations(range(1, K + 1), m):
                expected = {
                    reference.hamming_cross_correlation(trial, users, shifts)
                    for shifts in itertools.product(range(L), repeat=m)
                }
                assert correlation_values(trial, users) == expected, (trial, users)
    # 9-bit fields: a pair of period 300 whose correlations exceed 255
    rng = random.Random(300)
    a = BinarySequence.from_mask(rng.getrandbits(300) | ((1 << 300) - (1 << 40)), 300)
    pair = SequenceSet((a, a))
    expected = {
        (a.mask & rotate_mask(a.mask, t, 300)).bit_count() for t in range(300)
    }
    assert max(expected) > 255
    assert correlation_values(pair, (1, 2)) == expected
    with pytest.raises(ValueError):
        correlation_values(pair, (2, 1))
    with pytest.raises(BudgetExceededError):
        correlation_values(construct_si(["1/2"] * 5 + ["1/3"] * 3), (1, 2, 3, 4))


def test_frozen_pairwise_si_triple_is_not_si():
    triple = sset(*PAIRWISE_SI_NOT_SI)
    pairwise = is_pairwise_si(triple)
    assert pairwise.holds and pairwise.configurations_checked == 36
    verdict = is_si(triple)
    witness = Witness((1, 2, 3), (0, 0, 0), (0, 0, 2), 2, 1)
    assert verdict == PropertyVerdict("SI", False, witness, 42)
    assert verify_witness(triple, verdict)
    correlation_at = partial(reference.hamming_cross_correlation, triple)
    assert verdict == first_difference_si(triple, range(1, 4), "SI", correlation_at)


def test_si_sweeps_match_first_difference_scan():
    rng = random.Random(44)
    for _ in range(120):
        K = rng.randint(1, 5)
        trial = random_set(rng, K, rng.randint(1, 8 if K < 5 else 5))
        correlation_at = partial(hamming_cross_correlation, trial)
        expected = first_difference_si(trial, range(1, K + 1), "SI", correlation_at)
        assert is_si(trial) == expected
        sizes = [2] if K >= 2 else []
        expected = first_difference_si(trial, sizes, "PAIRWISE_SI", correlation_at)
        assert is_pairwise_si(trial) == expected
        # random sets almost always fail at a pair, so scan the larger
        # tuples on their own to reach witnesses with middle shifts
        for m in range(3, K + 1):
            expected = first_difference_si(trial, [m], "SI", correlation_at)
            cost = comb(K, m) * trial.period ** m
            scan = analysis._constant_correlation_scan(
                trial, [m], "SI", cost, DEFAULT_BUDGET
            )
            assert scan == expected


def test_throughput_at_examples(example_set):
    assert throughput_at(example_set, (5, 9, 20), 2) == (
        Fraction(16, 27),
        Fraction(7, 27),
        Fraction(7, 27),
    )
    silent = sset("00", "10")
    assert throughput_at(silent, (0, 0), 1)[0] == 0
    pair = sset("10", "10")
    assert throughput_at(pair, (0, 1), 1) == (Fraction(1, 2), Fraction(1, 2))


def test_throughput_at_matches_reference():
    rng = random.Random(31)
    for _ in range(40):
        trial = random_set(rng, rng.randint(2, 4), rng.randint(2, 8))
        K, L = trial.size, trial.period
        gamma = rng.randint(1, K - 1)
        shifts = tuple(rng.randrange(L) for _ in range(K))
        values = throughput_at(trial, shifts, gamma)
        assert values == reference.throughput_at(trial, shifts, gamma)
        assert all((v * L).denominator == 1 for v in values)


def test_allone_constraint():
    triple = sset("110", "101", "011")
    assert allone_constraint(triple, 1)
    with_allone = sset("111", "101", "011")
    assert not allone_constraint(with_allone, 1)
    assert allone_constraint(with_allone, 2)
    two_allone = sset("111", "111", "011")
    assert not allone_constraint(two_allone, 2)


# ---------------------------------------------------------------------------
# budget handling


def test_budget_exceeded_is_an_error_not_a_verdict(example_set):
    with pytest.raises(BudgetExceededError):
        is_si(example_set, budget=100)
    with pytest.raises(BudgetExceededError):
        is_ti(example_set, 1, budget=100)
    # the TI sweep costs L^(K-1) * K * L slot evaluations, exactly
    assert is_ti(example_set, 1, budget=27**2 * 3 * 27).holds
    with pytest.raises(BudgetExceededError):
        is_ti(example_set, 1, budget=27**2 * 3 * 27 - 1)
    # the SI scans cost C(K, m) * L^m summed over their tuple sizes m,
    # exactly: (L + 1)^K - 1 for SI and C(K, 2) * L^2 for pairwise SI
    rng = random.Random(46)
    for K in (2, 3, 4):
        for L in (3, 5, 8):
            trial = random_set(rng, K, L)
            costs = (is_si, (L + 1) ** K - 1), (is_pairwise_si, comb(K, 2) * L**2)
            for verdict, cost in costs:
                verdict(trial, budget=cost)
                with pytest.raises(BudgetExceededError):
                    verdict(trial, budget=cost - 1)
    # a single user has no pair: 0 classes at a cost of 0
    single = is_pairwise_si(sset("101"), budget=0)
    assert single == PropertyVerdict("PAIRWISE_SI", True, None, 0)


def test_budget_messages_give_the_cost(example_set):
    # sum over tuple sizes m of C(3, m) * 27^m = 28^3 - 1
    with pytest.raises(BudgetExceededError) as exc:
        is_si(example_set, budget=100)
    assert str(exc.value) == "SI verification needs 21951 slot evaluations, budget is 100"
    with pytest.raises(BudgetExceededError) as exc:
        is_pairwise_si(example_set, budget=100)
    assert str(exc.value) == (
        "PAIRWISE_SI verification needs 2187 slot evaluations, budget is 100"
    )


def test_budgets_past_the_digit_limit_still_refuse():
    # both the cost and the budget have more than 4300 digits
    rng = random.Random(4400)
    sset = SequenceSet(
        tuple(BinarySequence.from_mask(rng.getrandbits(10), 10) for _ in range(4400))
    )
    # each is printed as the largest power of two not above it
    cases = (
        (partial(is_ti, sset, 1), "TI verification needs at least 2**14628"),
        (partial(is_si, sset), "SI verification needs at least 2**15221"),
    )
    for verdict, need in cases:
        with pytest.raises(BudgetExceededError) as exc:
            verdict(budget=10**4350)
        assert str(exc.value) == f"{need} slot evaluations, budget is at least 2**14450"
    # L^m = 10^4400 slot evaluations against the printable default budget
    with pytest.raises(BudgetExceededError) as exc:
        correlation_values(sset, tuple(range(1, 4401)))
    assert str(exc.value) == (
        "correlation values need at least 2**14616 slot evaluations, budget is 100000000"
    )


# ---------------------------------------------------------------------------
# histogram deltas


def test_delta_record_si_set_is_flat(example_set):
    rec = delta_record(example_set, (1, 2, 3), (0, 0, 0), (4, 9, 17))
    assert rec.deltas == (0, 0, 0, 0)


def test_delta_record_aligned_pair():
    rec = delta_record(ALIGNED_PAIR, (1, 2), (0, 0), (0, 1))
    assert rec.deltas == (-1, 2, -1)


def test_delta_record_conserves_slots_and_ones():
    rng = random.Random(37)
    for _ in range(40):
        trial = random_set(rng, rng.randint(2, 4), rng.randint(2, 8))
        L = trial.period
        m = rng.randint(2, trial.size)
        users = tuple(sorted(rng.sample(range(1, trial.size + 1), m)))
        a = tuple(rng.randrange(L) for _ in users)
        b = tuple(rng.randrange(L) for _ in users)
        rec = delta_record(trial, users, a, b)
        assert sum(rec.deltas) == 0
        assert sum(j * d for j, d in enumerate(rec.deltas)) == 0
        src = theta_profile(trial, users, a)
        dst = theta_profile(trial, users, b)
        assert rec.deltas == tuple(y - x for x, y in zip(src, dst))


def test_lemma_delta_trivial_on_si_sets(example_set):
    assert check_lemma_delta(example_set, (1, 2, 3), (0, 0, 0), (3, 1, 25))
    assert check_lemma_delta(example_set, (1, 2), (0, 0), (13, 4))


def test_lemma_delta_pairs_always_qualify():
    # singleton subsets are trivially shift-invariant, so the identity
    # must hold for every pair; it reads delta_1 = -2 * delta_2
    rng = random.Random(41)
    nontrivial = 0
    for _ in range(200):
        trial = random_set(rng, 2, rng.randint(2, 10))
        L = trial.period
        a = (rng.randrange(L), rng.randrange(L))
        b = (rng.randrange(L), rng.randrange(L))
        assert check_lemma_delta(trial, (1, 2), a, b)
        rec = delta_record(trial, (1, 2), a, b)
        assert rec.deltas[1] == -2 * rec.deltas[2]
        nontrivial += rec.deltas[2] != 0
    assert nontrivial > 0


def test_delta_identities_refuse_a_single_user(example_set):
    with pytest.raises(ValueError, match="at least two users"):
        delta_record(example_set, (2,), (0,), (1,))
    with pytest.raises(ValueError, match="at least two users"):
        check_lemma_delta(example_set, (2,), (0,), (1,))


def test_lemma_delta_requires_si_subsets():
    triple = sset("10", "10", "11")
    with pytest.raises(PreconditionError):
        check_lemma_delta(triple, (1, 2, 3), (0, 0, 0), (0, 1, 0))
    # the witness names the failing subset's users as users of the set
    four = sset("111000", "110000", "101000", "100100")
    with pytest.raises(PreconditionError, match=re.escape(
        "user subset (2, 3) is not shift-invariant; witness "
        "Witness(users=(2, 3), "
    )):
        check_lemma_delta(four, (2, 3, 4), (0, 0, 0), (0, 1, 0))


def test_lemma_theta_worked_example(example_set):
    rng = random.Random(43)
    for _ in range(10):
        a = (rng.randrange(27), rng.randrange(27))
        b = (rng.randrange(27), rng.randrange(27))
        tail = (rng.randrange(27),)
        assert check_lemma_theta(example_set, 2, 2, a, b, tail)
        assert check_lemma_theta(example_set, 2, 1, a, b, tail)
    # whole set as head: the tail is empty and contributes one full
    # zero-ones bucket
    assert check_lemma_theta(
        example_set, 3, 1, (0, 0, 0), (5, 11, 2), ()
    )


def test_lemma_theta_requires_ti():
    with pytest.raises(PreconditionError):
        check_lemma_theta(sset("10", "10", "1100"[:2]), 2, 1, (0, 0), (0, 1), ())


def test_lemma_theta_validation(example_set):
    with pytest.raises(ValueError):
        check_lemma_theta(example_set, 1, 1, (0,), (1,), (0, 0))
    with pytest.raises(ValueError):
        check_lemma_theta(example_set, 2, 2, (0, 0), (1, 1), (0, 0))
    # the whole set as head leaves an empty tail, which takes no shifts
    with pytest.raises(ValueError, match="expected 0 shifts, got 1"):
        check_lemma_theta(example_set, 3, 1, (0, 0, 0), (5, 11, 2), (7,))


# ---------------------------------------------------------------------------
# structural implications


def test_structural_hypotheses_arithmetic():
    third = [Fraction(1, 3)] * 4
    half = [Fraction(1, 2)] * 4
    assert structural_hypotheses(4, 1, third) == ("gamma=1",)
    assert structural_hypotheses(4, 3, third) == ("gamma=K-1",)
    # gcd(K-2, d): K=4, d=3 passes; d=2 fails
    assert "gamma=2" in structural_hypotheses(4, 2, third)
    assert "gamma=K-2" in structural_hypotheses(4, 2, third)
    assert structural_hypotheses(4, 2, half) == ()
    assert "gamma=2" in structural_hypotheses(5, 2, [Fraction(1, 2)] * 5)
    # K-3 must be an odd prime and half of K-2 coprime to d
    fifth = [Fraction(1, 5)] * 8
    assert "gamma=3" in structural_hypotheses(8, 3, fifth)
    assert "gamma=K-3" in structural_hypotheses(8, 5, fifth)
    assert structural_hypotheses(8, 3, [Fraction(1, 3)] * 8) == ()
    assert structural_hypotheses(7, 3, fifth[:7]) == ()  # K-3 = 4 is not prime
    # K-3 = 2 leaves half of K-2 fractional, so the prime route is off
    # (gamma=3 still coincides with gamma=K-2 here, which stands on its own)
    assert "gamma=3" not in structural_hypotheses(5, 3, fifth[:5])
    assert "gamma=K-2" in structural_hypotheses(5, 3, fifth[:5])
    # unequal or degenerate duty factors disable the tagged conditions
    assert structural_hypotheses(4, 2, [Fraction(1, 2), Fraction(1, 3),
                                        Fraction(1, 2), Fraction(1, 2)]) == ()
    assert structural_hypotheses(4, 2, [Fraction(1)] * 4) == ()
    # K-3 = 9 and 11 reach the trial division of the primality test
    assert structural_hypotheses(12, 3, [Fraction(1, 5)] * 12) == ()
    assert "gamma=3" in structural_hypotheses(14, 3, [Fraction(1, 5)] * 14)
    with pytest.raises(ValueError):
        structural_hypotheses(4, 4, third)
    # one duty factor per user: a short or long list is refused
    for wrong in ([], third[:3], third + third[:1]):
        with pytest.raises(ValueError, match="duty factors"):
            structural_hypotheses(4, 1, wrong)
    # every regime, tags in order, against the paper's statement: K 2-39,
    # every gamma, every common duty a/b with b <= 15 (0 and 1 included),
    # those with b <= 5 also as strings and 0 and 1 as ints, plus an
    # unequal list and one mixing 0 and 1
    duties = sorted({Fraction(a, b) for b in range(1, 16) for a in range(b + 1)})
    for K in range(2, 40):
        lists = [[f] * K for f in duties]
        lists += [[str(f)] * K for f in duties if f.denominator <= 5]
        lists += [[0] * K, [1] * K]
        lists.append([Fraction(1, 2)] * (K - 1) + [Fraction(1, 3)])
        lists.append([0, 1] * (K // 2) + [0] * (K % 2))
        for duty in lists:
            for gamma, tags in structural_regimes_oracle(K, duty).items():
                assert structural_hypotheses(K, gamma, duty) == tags, (
                    K, gamma, duty[-1])
    # K = 3, gamma = 1 meets two rows; the order is the table's
    assert structural_hypotheses(3, 1, [Fraction(1, 3)] * 3) == (
        "gamma=1", "gamma=K-2")


def test_structural_conclusion_worked_example(example_set):
    report = structural_conclusion(example_set, 1)
    assert report.ti.holds
    assert "gamma=1" in report.applicable
    assert report.si is not None and report.si.holds

    report = structural_conclusion(example_set, 2)
    assert "gamma=K-1" in report.applicable
    assert report.si.holds


def test_structural_conclusion_raises_when_forced_si_fails(monkeypatch, example_set):
    # gamma=1 forces SI on a TI set, so a negative SI verdict means the
    # counting is broken, and the report is refused rather than returned
    witness = Witness((1, 2), (0, 0), (0, 1), 6, 5)
    forged = PropertyVerdict("SI", False, witness, 1)
    monkeypatch.setattr(analysis, "is_si", lambda *args, **kwargs: forged)
    message = (
        "implications ['gamma=1'] force shift-invariance but the set is not SI; "
        "witness Witness(users=(1, 2), shifts_a=(0, 0), shifts_b=(0, 1), "
        "value_a=6, value_b=5)"
    )
    with pytest.raises(StructuralContradictionError, match=re.escape(message)):
        structural_conclusion(example_set, 1)


def test_structural_conclusion_symmetric_triple():
    trio = construct_si(["1/2"] * 3)
    report = structural_conclusion(trio, 2)
    assert set(report.applicable) >= {"gamma=K-1"}
    report1 = structural_conclusion(trio, 1)
    # gamma=1 here is also gamma=K-2, whose gcd condition holds
    assert set(report1.applicable) == {"gamma=1", "gamma=K-2"}
    assert report1.si.holds


def test_structural_conclusion_non_ti_set():
    report = structural_conclusion(ALIGNED_PAIR, 1)
    assert not report.ti.holds
    assert report.applicable == ()
    assert report.si is None


@pytest.mark.parametrize("duty, notes", [
    (("1/2", "1/3", "1/2", "1/3"), (
        "users have unequal duty factors; the common-duty implications do not apply",
        "no structural implication applies at this capability",
    )),
    (("1/2",) * 4, ("no structural implication applies at this capability",)),
])
def test_structural_conclusion_notes_when_nothing_applies(duty, notes):
    report = structural_conclusion(construct_si(duty), 2)
    assert report.ti.holds
    assert (report.applicable, report.si, report.notes) == ((), None, notes)


def test_structural_conclusion_zero_throughput_note():
    silent = construct_si(("0/1", "1/2"))
    report = structural_conclusion(silent, 1)
    assert report.ti.holds  # both users invariant (one at zero)
    assert report.applicable == ()
    assert any("zero throughput" in n for n in report.notes)


# ---------------------------------------------------------------------------
# identities behind the invariance arguments, checked numerically


def _split_sum(trial, gamma, t1, t2, tail_shifts, both):
    """Count slots where users 1, 2 contribute 'both' or exactly one
    transmission and the tail stays under the capability margin."""
    K = trial.size
    total = 0
    head_targets = [(1, 1)] if both else [(0, 1), (1, 0)]
    margin = gamma - 2 if both else gamma - 1
    for head in head_targets:
        for tail_bits in itertools.product((0, 1), repeat=K - 2):
            if sum(tail_bits) > margin:
                continue
            pattern = head + tail_bits
            total += count_config(trial, (t1, t2) + tail_shifts, pattern)
    return total


def test_split_orbit_average_identity():
    # averaged over a common rotation of the leading pair, the mixed
    # count factorizes into the pair histogram times the tail margin
    rng = random.Random(47)
    for _ in range(15):
        trial = random_set(rng, rng.randint(3, 4), rng.randint(2, 6))
        K, L = trial.size, trial.period
        gamma = rng.randint(1, K - 1)
        t1, t2 = rng.randrange(L), rng.randrange(L)
        tail_shifts = tuple(rng.randrange(L) for _ in range(K - 2))
        head_profile = theta_profile(trial, (1, 2), (t1, t2))
        tail_profile = theta_profile(
            trial, tuple(range(3, K + 1)), tail_shifts
        )
        for both in (False, True):
            orbit = sum(
                _split_sum(trial, gamma, (t1 + c) % L, (t2 + c) % L,
                           tail_shifts, both)
                for c in range(L)
            )
            j = 2 if both else 1
            margin = gamma - 2 if both else gamma - 1
            assert orbit == head_profile[j] * sum(tail_profile[: max(margin + 1, 0)])


def test_alternating_binomial_reduction():
    # prefix-sum form and bucket form of the alternating binomial
    # combination agree for arbitrary histograms
    rng = random.Random(53)
    for _ in range(200):
        m = rng.randint(2, 7)
        gamma = rng.randint(1, 9)
        size = rng.randint(0, 6)
        theta = [rng.randint(0, 20) for _ in range(size + 1)]
        total = sum(theta)

        def bucket(j):
            return theta[j] if 0 <= j <= size else 0

        def prefix(j):
            if j < 0:
                return 0
            return sum(theta[: min(j, size) + 1])

        lhs = sum(
            (-1) ** (m - i) * comb(m - 1, i - 1) * prefix(gamma - i)
            for i in range(1, m + 1)
        )
        rhs = sum(
            (-1) ** (m - i) * comb(m - 2, i - 1) * bucket(gamma - i)
            for i in range(1, m)
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# random search harness


def _pair_constant_by_definition(m1, m2, L):
    b1 = [(m1 >> t) & 1 for t in range(L)]
    b2 = [(m2 >> t) & 1 for t in range(L)]
    values = {
        sum(b1[t] & b2[(t + tau) % L] for t in range(L)) for tau in range(L)
    }
    return len(values) == 1


def test_pair_correlation_constant_matches_its_definition():
    # every mask pair up to L = 7, then seeded random pairs up to L = 64 with
    # the pairs of built SI sets, whose correlations are constant
    for L in range(1, 8):
        for m1, m2 in itertools.product(range(1 << L), repeat=2):
            assert analysis._pair_correlation_constant(
                m1, m2, L
            ) == _pair_constant_by_definition(m1, m2, L)
    rng = random.Random(31)
    pairs = []
    for _ in range(300):
        L = rng.randint(8, 64)
        pairs.append((rng.getrandbits(L), rng.getrandbits(L), L))
    for duty in (["1/2", "1/3"], ["2/3", "1/3", "1/3"], ["1/2", "1/4", "1/8"]):
        sset = construct_si(duty)
        for m1, m2 in itertools.permutations(sset.masks, 2):
            pairs.append((m1, m2, sset.period))
    constant = 0
    for m1, m2, L in pairs:
        expected = _pair_constant_by_definition(m1, m2, L)
        assert analysis._pair_correlation_constant(m1, m2, L) == expected
        constant += expected
    assert constant >= 14


def test_search_is_deterministic_and_reports_counts():
    a = find_pairwise_si_not_si(3000, seed=5)
    b = find_pairwise_si_not_si(3000, seed=5)
    assert a == b
    assert a.candidates_tried == 3000
    assert a.pairwise_si_found == 194
    assert a.hits == ()


def test_search_reports_the_frozen_triple_as_a_hit(monkeypatch):
    m1, m2, m3 = (BinarySequence.from_string(r).mask for r in PAIRWISE_SI_NOT_SI)

    class Draws:
        """Stands in for the search's generator: period 12, fixed masks."""

        def __init__(self, seed):
            # (bits asked for, value) in draw order: the period offset
            # 12 - 2 from 4 bits (11 periods in 2..12), then three masks;
            # first the frozen triple, then a pairwise-SI triple with an
            # empty member
            self.draws = iter([
                (4, 10), (12, m1), (12, m2), (12, m3),
                (4, 10), (12, m1), (12, m2), (12, 0),
            ])

        def getrandbits(self, bits):
            expected, value = next(self.draws)
            assert bits == expected
            return value

    monkeypatch.setattr(analysis, "random", SimpleNamespace(Random=Draws))
    result = find_pairwise_si_not_si(2, seed=0)
    assert result.pairwise_si_found == 2
    assert result.hits == (sset(*PAIRWISE_SI_NOT_SI),)


@pytest.mark.parametrize("periods", [(1, 1), (2, 12), (5, 5), (30, 40)])
def test_search_draws_the_randint_stream(periods):
    for seed in range(20):
        result = find_pairwise_si_not_si(1000, seed, *periods)
        assert result == search_oracle(1000, seed, *periods)


@pytest.mark.parametrize(
    "candidates, periods",
    [(-3, (2, 12)), (10, (0, 0)), (10, (0, 3)), (10, (5, 4))],
)
def test_search_rejects_bad_arguments(candidates, periods):
    with pytest.raises(ValueError):
        find_pairwise_si_not_si(candidates, 0, *periods)


def test_search_hits_have_the_claimed_shape():
    result = find_pairwise_si_not_si(50_000, seed=99)
    for hit in result.hits:
        assert is_pairwise_si(hit).holds
        assert not is_si(hit).holds
