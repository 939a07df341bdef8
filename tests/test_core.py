import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from protoseq import (
    BinarySequence,
    SequenceSet,
    count_config,
    cyclic_shift,
    format_sequence_set,
    hamming_cross_correlation,
    parse_sequence_set,
    theta_profile,
)
from protoseq import analysis, reference
from protoseq.core import (
    as_shifts,
    at_most_mask,
    count_planes,
    rotate_mask,
    rotated_masks,
    success_counts,
    validate_users,
)

from helpers import random_set


def seq(text):
    return BinarySequence.from_string(text)


# ---------------------------------------------------------------------------
# duty factor and cyclic shift


def test_duty_factor_examples():
    assert seq("110").duty == Fraction(2, 3)
    assert seq("0000").duty == Fraction(0, 1)
    assert seq("101010").duty == Fraction(1, 2)


def test_duty_factor_lowest_terms():
    f = seq("110100").duty  # 3 ones over 6 slots
    assert (f.numerator, f.denominator) == (1, 2)


def test_cyclic_shift_examples():
    assert cyclic_shift(seq("110"), 1).bits == (1, 0, 1)
    assert cyclic_shift(seq("110"), 3).bits == (1, 1, 0)
    assert cyclic_shift(seq("110"), -1).bits == (0, 1, 1)


def test_cyclic_shift_matches_definition():
    rng = random.Random(1)
    for _ in range(50):
        L = rng.randint(1, 12)
        s = BinarySequence(tuple(rng.randint(0, 1) for _ in range(L)))
        tau = rng.randint(-2 * L, 2 * L)
        shifted = cyclic_shift(s, tau)
        assert all(shifted.bits[t] == s.bits[(t + tau) % L] for t in range(L))


# ---------------------------------------------------------------------------
# configuration counting


def test_count_config_worked_example(example_set):
    assert count_config(example_set, (0, 0, 0), (1, 1, 1)) == 2


def test_count_config_patterns_partition_period(example_set):
    import itertools

    total = sum(
        count_config(example_set, (3, 7, 11), p)
        for p in itertools.product((0, 1), repeat=3)
    )
    assert total == example_set.period


def test_count_config_single_user():
    sset = SequenceSet((seq("110"),))
    assert count_config(sset, (0,), (1,)) == 2
    assert count_config(sset, (2,), (0,)) == 1


def test_count_config_dimension_mismatch(example_set):
    with pytest.raises(ValueError):
        count_config(example_set, (0, 0, 0), (1, 1))
    with pytest.raises(ValueError):
        count_config(example_set, (0, 0), (1, 1, 1))
    with pytest.raises(ValueError, match="0 or 1"):
        count_config(example_set, (0, 0, 0), (1, 2, 0))
    # with both wrong, the shifts are checked first
    with pytest.raises(ValueError, match="expected 3 shifts, got 2"):
        count_config(example_set, (0, 0), (1, 1))


# ---------------------------------------------------------------------------
# cross-correlation and slot histogram


def test_hamming_worked_example_values(example_set):
    rng = random.Random(7)
    L = example_set.period
    expected = {(1, 2): 6, (2, 3): 3, (1, 3): 6, (1, 2, 3): 2}
    for users, value in expected.items():
        for _ in range(25):
            shifts = tuple(rng.randrange(L) for _ in users)
            assert hamming_cross_correlation(example_set, users, shifts) == value


def test_hamming_validation(example_set):
    with pytest.raises(ValueError):
        hamming_cross_correlation(example_set, (), ())
    with pytest.raises(ValueError):
        hamming_cross_correlation(example_set, (2, 1), (0, 0))
    with pytest.raises(ValueError):
        hamming_cross_correlation(example_set, (1, 4), (0, 0))
    with pytest.raises(ValueError):
        hamming_cross_correlation(example_set, (1, 2), (0, 0, 0))


def test_theta_profile_worked_example(example_set):
    profile = theta_profile(example_set, (1, 2, 3), (0, 0, 0))
    assert profile == (4, 12, 9, 2)
    assert sum(profile) == 27
    assert profile[3] == hamming_cross_correlation(
        example_set, (1, 2, 3), (0, 0, 0)
    )


def test_theta_profile_all_one_singleton():
    sset = SequenceSet((seq("11111"),))
    profile = theta_profile(sset, (1,), (0,))
    assert profile == (0, 5)


def test_theta_profile_sums(example_set):
    rng = random.Random(3)
    for _ in range(40):
        sset = random_set(rng, rng.randint(1, 4), rng.randint(1, 9))
        users = tuple(range(1, rng.randint(1, sset.size) + 1))
        shifts = tuple(rng.randrange(sset.period) for _ in users)
        profile = theta_profile(sset, users, shifts)
        assert sum(profile) == sset.period
        ones = sum(sset.sequences[u - 1].ones for u in users)
        assert sum(j * c for j, c in enumerate(profile)) == ones


def test_common_shift_invariance():
    rng = random.Random(11)
    for _ in range(40):
        sset = random_set(rng, rng.randint(2, 4), rng.randint(2, 8))
        L = sset.period
        m = rng.randint(2, sset.size)
        users = tuple(sorted(rng.sample(range(1, sset.size + 1), m)))
        shifts = tuple(rng.randrange(L) for _ in users)
        c = rng.randrange(L)
        bumped = tuple((s + c) % L for s in shifts)
        assert hamming_cross_correlation(
            sset, users, shifts
        ) == hamming_cross_correlation(sset, users, bumped)
        assert theta_profile(sset, users, shifts) == theta_profile(
            sset, users, bumped
        )


# ---------------------------------------------------------------------------
# differential checks against the slot-by-slot reference


def test_bitmask_layer_matches_reference():
    rng = random.Random(23)
    for _ in range(100):
        K = rng.randint(1, 4)
        L = rng.randint(1, 10)
        # all-zero and all-one rows, and the all-zero pattern, are where
        # an AND of rotated masks empties or keeps every slot
        full = (1 << L) - 1
        rows = [rng.choice((0, full, rng.getrandbits(L))) for _ in range(K)]
        sset = SequenceSet(tuple(BinarySequence.from_mask(m, L) for m in rows))
        shifts = tuple(rng.randrange(L) for _ in range(K))
        if rng.random() < 0.25:
            pattern = (0,) * K
        else:
            pattern = tuple(rng.randint(0, 1) for _ in range(K))
        assert count_config(sset, shifts, pattern) == reference.count_config(
            sset, shifts, pattern
        )
        m = rng.randint(1, K)
        users = tuple(sorted(rng.sample(range(1, K + 1), m)))
        tshifts = tuple(rng.randrange(L) for _ in users)
        assert hamming_cross_correlation(
            sset, users, tshifts
        ) == reference.hamming_cross_correlation(sset, users, tshifts)
        assert theta_profile(sset, users, tshifts) == reference.theta_counts(
            sset, users, tshifts
        )


def test_reference_imports_nothing_it_checks():
    # the oracle may lean on the shared types in core, and on no code it checks
    tree = ast.parse(Path(reference.__file__).read_text())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "protoseq"
                                                 or node.module.startswith("protoseq.")):
            package.append((node.level, node.module))
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "protoseq" for a in node.names)
    assert package == [(1, "core")]


def test_bit_helpers_against_direct_counting():
    rng = random.Random(5)
    for _ in range(60):
        L = rng.randint(1, 16)
        n = rng.randint(0, 5)
        masks = [rng.getrandbits(L) for _ in range(n)]
        planes = count_planes(masks)
        counts = [sum((m >> t) & 1 for m in masks) for t in range(L)]
        limit = rng.randint(-1, n + 1)
        expected_le = sum(1 << t for t in range(L) if counts[t] <= limit)
        assert at_most_mask(planes, limit, L) == expected_le


def test_rotate_mask_matches_cyclic_shift():
    # the definition of a cyclic shift: bit t is bit (t + tau) mod L of the
    # input, for every tau in [-2L, 3L], 0 and the multiples of L included
    rng = random.Random(9)
    for _ in range(40):
        L = rng.randint(1, 12)
        s = BinarySequence(tuple(rng.randint(0, 1) for _ in range(L)))
        for tau in range(-2 * L, 3 * L + 1):
            expected = tuple(s.bits[(t + tau) % L] for t in range(L))
            rotated = rotate_mask(s.mask, tau, L)
            assert tuple((rotated >> t) & 1 for t in range(L)) == expected
            assert cyclic_shift(s, tau).bits == expected


def test_rotated_masks_rotates_each_mask_to_its_shift():
    rng = random.Random(10)
    for _ in range(40):
        L = rng.randint(1, 12)
        masks = [rng.getrandbits(L) for _ in range(rng.randint(0, 4))]
        shifts = [rng.randint(-L, 3 * L) for _ in masks]
        assert rotated_masks(masks, shifts, L) == [
            rotate_mask(m, tau, L) for m, tau in zip(masks, shifts)
        ]
    with pytest.raises(ValueError, match="expected 2 shifts, got 1"):
        rotated_masks([1, 2], (0,), 3)


def test_analysis_keeps_the_core_success_counts():
    assert analysis.success_counts is success_counts


# ---------------------------------------------------------------------------
# types and the text format


def test_binary_sequence_constructors_agree():
    rng = random.Random(17)
    for _ in range(60):
        L = rng.randint(1, 70)
        bits = tuple(rng.randint(0, 1) for _ in range(L))
        text = "".join(map(str, bits))
        mask = sum(1 << t for t, b in enumerate(bits) if b)
        forms = (
            BinarySequence(bits),
            BinarySequence.from_string(text),
            BinarySequence.from_mask(mask, L),
        )
        for s in forms:
            assert (s.period, s.mask, s.bits, s.ones) == (L, mask, bits, sum(bits))
            assert len(s) == s.period
            assert s.to_string() == text
            assert s == forms[0] and hash(s) == hash(forms[0])
    assert BinarySequence.from_mask(0b01, 2) != BinarySequence.from_mask(0b01, 3)


def test_binary_sequence_validation():
    with pytest.raises(ValueError):
        BinarySequence(())
    with pytest.raises(ValueError):
        BinarySequence.from_string("")
    with pytest.raises(ValueError):
        BinarySequence.from_mask(0, 0)
    with pytest.raises(ValueError):
        BinarySequence.from_mask(1, -1)
    with pytest.raises(ValueError):
        BinarySequence((0, 2))
    with pytest.raises(ValueError):
        BinarySequence((1, -1))
    # entries are compared with 0 and 1, not converted by int() first
    for bits in ([0.5, 1], [1.9, 0], [1, " 1"]):
        with pytest.raises(ValueError):
            BinarySequence(bits)
    for text in ("012", "1 0", "0b1", "1_0", "-1"):
        with pytest.raises(ValueError):
            BinarySequence.from_string(text)
    with pytest.raises(ValueError):
        BinarySequence.from_mask(0b1000, 3)
    with pytest.raises(ValueError):
        BinarySequence.from_mask(-1, 3)


def test_sequence_set_requires_common_period():
    with pytest.raises(ValueError):
        SequenceSet((seq("10"), seq("100")))
    with pytest.raises(ValueError):
        SequenceSet(())


@pytest.mark.parametrize("users, message", [
    ((), "user tuple must be non-empty"),
    ([], "user tuple must be non-empty"),
    ((0, 2), "user indices must lie in [1, 3]: (0, 2)"),
    ((1, 4), "user indices must lie in [1, 3]: (1, 4)"),
    ((2, 5, 1), "user indices must lie in [1, 3]: (2, 5, 1)"),
    ((2, 1), "user indices must be strictly increasing: (2, 1)"),
    ((1, 1), "user indices must be strictly increasing: (1, 1)"),
    ([1, 3, 2], "user indices must be strictly increasing: (1, 3, 2)"),
])
def test_validate_users_messages(users, message):
    with pytest.raises(ValueError) as info:
        validate_users(users, 3)
    assert str(info.value) == message


@pytest.mark.parametrize("users, expected", [
    ((1,), (1,)),
    ([3], (3,)),
    ((1, 2, 3), (1, 2, 3)),
    ([1, 3], (1, 3)),
    (iter((2, 3)), (2, 3)),
    (("1", 2.0), (1, 2)),
])
def test_validate_users_returns_an_int_tuple(users, expected):
    t = validate_users(users, 3)
    assert t == expected and type(t) is tuple
    assert all(type(u) is int for u in t)


@pytest.mark.parametrize("shifts, period, expected, message", [
    ((0, 1, 2), 4, 2, "expected 2 shifts, got 3"),
    ((), 4, 1, "expected 1 shifts, got 0"),
])
def test_as_shifts_messages(shifts, period, expected, message):
    with pytest.raises(ValueError) as info:
        as_shifts(shifts, period, expected)
    assert str(info.value) == message


def test_as_shifts_reduces_into_the_period():
    assert as_shifts((-1, 5, 3, "2"), 3, 4) == (2, 2, 0, 2)
    assert as_shifts(iter([7]), 4, 1) == (3,)


def test_text_format_round_trip(example_set):
    text = format_sequence_set(example_set)
    again = parse_sequence_set(text)
    assert again == example_set
    assert text.endswith("\n")


def test_text_format_comments_and_blanks():
    text = "# three users\n110\n\n# second\n101\n011\n"
    sset = parse_sequence_set(text)
    assert sset.size == 3
    assert sset.period == 3


def test_text_format_errors():
    with pytest.raises(ValueError):
        parse_sequence_set("10\n100\n")
    with pytest.raises(ValueError):
        parse_sequence_set("10x\n")
    with pytest.raises(ValueError):
        parse_sequence_set("# nothing\n")


@pytest.mark.parametrize("row, one_row, alone, after_rows", [
    *((row, "schedule entries must be 0 or 1", "line 2: only '0'/'1' characters allowed",
       "line 3: only '0'/'1' characters allowed")
      for row in ("1b0", "1B0", "10+", "01-", "1_0", "0\u0660", "1\uff11", "1 0")),
    ("", "a schedule needs at least one slot", "no schedules found",
     "all schedule lines must have equal length"),
])
def test_text_rejections_keep_their_messages(row, one_row, alone, after_rows):
    """Rows that ``int(row[::-1], 2)`` would read (a prefix, a sign, an
    underscore, Unicode digits) or reject, and the empty row: the message
    from ``from_string``, from a text where the row is line 2, and from
    one where it follows two rows of different lengths."""
    for parse, text, message in (
        (BinarySequence.from_string, row, one_row),
        (parse_sequence_set, f"# rows\n{row}\n", alone),
        (parse_sequence_set, f"10\n100\n{row}\n", after_rows),
    ):
        with pytest.raises(ValueError) as info:
            parse(text)
        assert str(info.value) == message, (parse, text)
