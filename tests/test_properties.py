"""Property-based checks of the block shift sweeps against ``protoseq.reference``.

The examples are drawn from a fixed derandomized stream, so every run
checks the same sets.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from protoseq import BinarySequence, SequenceSet, is_pairwise_si, is_si, is_ti
from protoseq import reference

from helpers import first_difference_si, first_difference_ti


@st.composite
def sequence_sets(draw):
    K = draw(st.integers(2, 4))
    L = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(0, (1 << L) - 1), min_size=K, max_size=K))
    return SequenceSet(tuple(BinarySequence.from_mask(m, L) for m in masks))


@settings(max_examples=150, derandomize=True, deadline=None)
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
