"""Property-based checks of the counting primitives, the block shift
sweeps, witness re-checks, the protocol Monte-Carlo counts and the text
format against ``protoseq.reference``, of the text validators against
the ``strip``-based ones they replaced, and of the invariance verdicts
under the reversal of one user's row.

The examples are drawn from a fixed derandomized stream (the profile
loaded in ``conftest.py``), so every run checks the same sets.
"""

import dataclasses
import itertools
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from protoseq import (
    BinarySequence,
    SequenceSet,
    SimConfig,
    construct_si,
    format_sequence_set,
    is_pairwise_si,
    is_si,
    is_ti,
    parse_sequence_set,
    theta_profile,
    verify_witness,
)
from protoseq import reference, simulator
from protoseq.core import at_most_mask, count_planes, minimal_period

from helpers import (
    first_difference_si,
    first_difference_ti,
    periodic_first_difference_ti,
    periodic_verdict,
    strip_parse_oracle,
    strip_sequence_oracle,
)


@st.composite
def sequence_sets(draw):
    K = draw(st.integers(2, 5))
    L = draw(st.integers(1, 8 if K < 5 else 5))
    masks = draw(st.lists(st.integers(0, (1 << L) - 1), min_size=K, max_size=K))
    return SequenceSet(tuple(BinarySequence.from_mask(m, L) for m in masks))


@given(sequence_sets())
def test_block_sweep_verdicts_match_reference_scans(trial):
    K, L = trial.size, trial.period
    for gamma in range(1, K):
        def counts_at(shifts):
            values = reference.throughput_at(trial, shifts, gamma)
            return tuple(int(v * L) for v in values)

        assert is_ti(trial, gamma) == first_difference_ti(trial, gamma, counts_at)

    def correlation_at(users, shifts):
        return reference.hamming_cross_correlation(trial, users, shifts)

    expected = first_difference_si(trial, range(1, K + 1), "SI", correlation_at)
    assert is_si(trial) == expected
    expected = first_difference_si(trial, [2], "PAIRWISE_SI", correlation_at)
    assert is_pairwise_si(trial) == expected


@given(sequence_sets(), st.data())
def test_reversing_one_user_keeps_every_verdict(trial, data):
    # SI and TI read each user's weight and cyclic autocorrelation only,
    # and a reversed row keeps both while its phases change
    K = trial.size
    u = data.draw(st.integers(0, K - 1))
    rows = list(trial.sequences)
    rows[u] = BinarySequence(rows[u].bits[::-1])
    mirrored = SequenceSet(tuple(rows))

    def verdicts(sset):
        return ([is_si(sset).holds, is_pairwise_si(sset).holds]
                + [is_ti(sset, gamma).holds for gamma in range(1, K)])

    assert verdicts(mirrored) == verdicts(trial)


@st.composite
def periodic_rows(draw, period):
    """A row of ``period`` slots that repeats a block of a drawn divisor
    of the period."""
    p = draw(st.sampled_from([d for d in range(1, period + 1) if period % d == 0]))
    block = draw(st.integers(0, (1 << p) - 1))
    return BinarySequence.from_mask(sum(block << (p * j) for j in range(period // p)), period)


@given(st.integers(1, 36).flatmap(periodic_rows))
def test_minimal_period_matches_reference(row):
    assert minimal_period(row.mask, len(row)) == reference.minimal_period(row.bits)


@st.composite
def periodic_row_sets(draw):
    K = draw(st.integers(2, 4))
    L = draw(st.integers(1, 18))
    return SequenceSet(tuple(draw(periodic_rows(L)) for _ in range(K)))


@given(periodic_row_sets())
# no row has the full period: the pin repeats within the period
@example(SequenceSet.from_strings(["100110011001", "010010010010"]))
@example(SequenceSet.from_strings(["110011001100", "100100100100", "101101101101"]))
def test_periodic_ti_matches_exhaustive_verdicts_and_reference_scans(trial):
    K, L = trial.size, trial.period
    periods = [reference.minimal_period(seq.bits) for seq in trial.sequences]
    classes = prod(periods) // max(periods)  # every period but the pin's
    for gamma in range(1, K):
        def counts_at(shifts):
            values = reference.throughput_at(trial, shifts, gamma)
            return tuple(int(v * L) for v in values)

        verdict = periodic_verdict(trial, gamma)
        assert verdict == periodic_first_difference_ti(trial, gamma, counts_at)
        assert verdict.holds == is_ti(trial, gamma).holds
        if verdict.holds:
            assert verdict.configurations_checked == classes <= L ** (K - 1)
        else:
            assert verify_witness(trial, verdict)
        if min(periods) == L:
            # every row of full period: the exhaustive sweep
            assert verdict == is_ti(trial, gamma)


@st.composite
def mask_lists(draw):
    L = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << L) - 1), min_size=1, max_size=6))
    return SequenceSet(tuple(BinarySequence.from_mask(m, L) for m in masks))


@given(mask_lists())
def test_counter_planes_match_reference_histograms(trial):
    K, L = trial.size, trial.period
    planes = count_planes(trial.masks)
    fires = [sum(seq.bits[t] for seq in trial.sequences) for t in range(L)]
    # plane k holds bit k of every slot's transmitter count
    for t in range(L):
        assert sum(((p >> t) & 1) << k for k, p in enumerate(planes)) == fires[t]
    histogram = reference.theta_counts(trial, range(1, K + 1), (0,) * K)
    for j in range(-1, K + 2):
        at_most = at_most_mask(planes, j, L)
        assert [(at_most >> t) & 1 for t in range(L)] == [n <= j for n in fires]
        assert at_most.bit_count() == sum(histogram[: max(j + 1, 0)])


@given(sequence_sets())
def test_witnesses_recheck_and_tampered_copies_fail(trial):
    K, L = trial.size, trial.period
    verdicts = [is_ti(trial, gamma) for gamma in range(1, K)]
    verdicts += [is_si(trial), is_pairwise_si(trial)]
    for verdict in verdicts:
        if verdict.holds:
            continue
        w = verdict.witness
        assert verify_witness(trial, verdict)
        pair = (w.shifts_a, w.shifts_b)
        if verdict.prop == "TI":
            i = w.users[0] - 1
            values = [reference.throughput_at(trial, s, verdict.gamma)[i] for s in pair]
            count = Fraction(1, L)
        else:
            values = [reference.hamming_cross_correlation(trial, w.users, s)
                      for s in pair]
            count = 1
        assert values == [w.value_a, w.value_b]
        for tampered in (
            dataclasses.replace(w, value_b=w.value_b + count),
            dataclasses.replace(w, shifts_b=w.shifts_a),
        ):
            forged = dataclasses.replace(verdict, witness=tampered)
            assert not verify_witness(trial, forged)


@st.composite
def tuples_at_shifts(draw):
    trial = draw(mask_lists())
    L = trial.period
    users = draw(st.lists(st.integers(1, trial.size), min_size=1, unique=True))
    users = tuple(sorted(users))
    shifts = draw(st.lists(st.integers(-L, 2 * L), min_size=len(users),
                           max_size=len(users)))
    return trial, users, tuple(shifts)


@given(tuples_at_shifts())
def test_theta_profile_matches_reference_histogram(case):
    trial, users, shifts = case
    profile = theta_profile(trial, users, shifts)
    assert profile == reference.theta_counts(trial, users, shifts)


@st.composite
def protocol_experiments(draw):
    K = draw(st.integers(2, 5))
    # short periods and periods around the 64-bit word edges
    L = draw(st.one_of(st.integers(1, 12), st.integers(60, 140)))
    masks = draw(st.lists(st.integers(0, (1 << L) - 1), min_size=K, max_size=K))
    trial = SequenceSet(tuple(BinarySequence.from_mask(m, L) for m in masks))
    cfg = SimConfig(gamma=draw(st.integers(1, K - 1)), runs=draw(st.integers(1, 6)),
                    seed=draw(st.integers(0, 2**32)))
    return trial, cfg


@given(protocol_experiments())
def test_protocol_counts_match_reference_throughput_at_drawn_shifts(case):
    trial, cfg = case
    L = trial.period
    counts = simulator._protocol_counts(trial, cfg)
    shifts = simulator._generator(cfg.seed).integers(0, L, size=(cfg.runs, trial.size))
    for row, taus in zip(counts.tolist(), shifts.tolist()):
        values = reference.throughput_at(trial, taus, cfg.gamma)
        assert row == [v * L for v in values]


@given(mask_lists())
def test_format_then_parse_returns_the_set(trial):
    assert parse_sequence_set(format_sequence_set(trial)) == trial


@pytest.mark.parametrize("fill", ["left", "random"])
def test_long_rows_round_trip_and_match_the_strip_validator(fill, monkeypatch):
    # the drawn texts hold rows of at most 30 characters; the top ladder
    # rung's rows of 510510 slots take int()'s long-input path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import TOP_RUNG

    built = construct_si(TOP_RUNG, fill, seed=7)
    text = format_sequence_set(built)
    assert built.period == 510510
    assert parse_sequence_set(text) == built == strip_parse_oracle(text)


#: Digits, characters ``int(text, 2)`` would take or skip (an underscore,
#: signs, the ``0b``/``0B`` prefix letters, and the ``x`` and ``o`` of
#: prefixes base 2 refuses), comment marks, ASCII and Unicode whitespace
#: (some of them line breaks), and Unicode digits 1 and 0 that are not
#: '1' and '0'.
TEXT_ALPHABET = "01_+-bBxo# \t\r\v\f\n\x85\u00a0\u2028\u3000\uff11\u0660"
LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x85", "\u2028")


@st.composite
def near_binary(draw, size):
    """A 0/1 string of ``size`` characters with at most one character of
    ``TEXT_ALPHABET`` put in, anywhere."""
    text = draw(st.text("01", min_size=size, max_size=size))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(TEXT_ALPHABET)) + text[i:]
    return text


@st.composite
def schedule_texts(draw):
    """Texts of schedule-like lines: 0/1 rows of one or more lengths, some
    with one stray character, noise, comments and padding, split by any
    line break."""
    L = draw(st.integers(1, 6))
    pad = st.text(" \t\u00a0\u3000", max_size=2)
    line = st.one_of(
        st.tuples(pad, near_binary(L), pad).map("".join),
        st.text("01", max_size=7),
        st.text(TEXT_ALPHABET, max_size=7),
        st.just("# note 1x"),
    )
    lines = draw(st.lists(line, max_size=5))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    return "".join(a + b for a, b in zip(lines, breaks))


def _parsed_or_none(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


@given(st.one_of(schedule_texts(), st.text(TEXT_ALPHABET, max_size=30)))
def test_parse_accepts_exactly_what_the_strip_validator_accepted(text):
    assert _parsed_or_none(parse_sequence_set, text) == strip_parse_oracle(text)


@given(st.one_of(st.integers(0, 8).flatmap(near_binary), st.text(TEXT_ALPHABET, max_size=12)))
def test_from_string_accepts_exactly_what_the_strip_validator_accepted(text):
    parsed = _parsed_or_none(BinarySequence.from_string, text)
    assert parsed == strip_sequence_oracle(text)


def test_validators_agree_on_every_short_text():
    for size in range(4):
        for chars in itertools.product(TEXT_ALPHABET, repeat=size):
            text = "".join(chars)
            parsed = _parsed_or_none(BinarySequence.from_string, text)
            assert parsed == strip_sequence_oracle(text), text
            parsed = _parsed_or_none(parse_sequence_set, text)
            assert parsed == strip_parse_oracle(text), text
