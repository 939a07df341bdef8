"""Slot-by-slot reference implementations of the counting primitives.

Everything here walks the slots one by one, reading each user's row of
0/1 entries, and keeps no bitmask state.  It is intentionally slow and
obvious; the test suite runs it against the bit-parallel layer in
`protoseq.core` and against the session simulator on random instances.
It imports nothing from the package but the shared types in
`protoseq.core`, so it never leans on the code it checks; the packet
header that its receive chain builds is defined here for that reason.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import SequenceSet, as_shifts, validate_users


@dataclass(frozen=True)
class SessionPacket:
    """Header of one delivered packet, as the receiver reads it."""

    user_id: int
    period_parity: int
    payload_index: int


def _rotated(bits: tuple[int, ...], tau: int) -> tuple[int, ...]:
    """The row a user sends under shift tau (in [0, L)): slot t holds bit
    (t + tau) mod L."""
    return bits[tau:] + bits[:tau]


def count_config(sset: SequenceSet, shifts: Sequence[int], pattern: Sequence[int]) -> int:
    L = sset.period
    taus = as_shifts(shifts, L, sset.size)
    pat = tuple(int(b) for b in pattern)
    if len(pat) != sset.size:
        raise ValueError("pattern length does not match K")
    total = 0
    for t in range(L):
        if all(
            seq.bits[(t + tau) % L] == b
            for seq, tau, b in zip(sset.sequences, taus, pat)
        ):
            total += 1
    return total


def hamming_cross_correlation(
    sset: SequenceSet, users: Sequence[int], shifts: Sequence[int]
) -> int:
    users = validate_users(users, sset.size)
    taus = as_shifts(shifts, sset.period, len(users))
    rows = [_rotated(sset.sequences[u - 1].bits, tau) for u, tau in zip(users, taus)]
    total = 0
    for fires in zip(*rows):
        if all(fires):
            total += 1
    return total


def theta_counts(
    sset: SequenceSet, users: Sequence[int], shifts: Sequence[int]
) -> tuple[int, ...]:
    users = validate_users(users, sset.size)
    L = sset.period
    taus = as_shifts(shifts, L, len(users))
    counts = [0] * (len(users) + 1)
    for t in range(L):
        ones = sum(
            sset.sequences[u - 1].bits[(t + tau) % L] for u, tau in zip(users, taus)
        )
        counts[ones] += 1
    return tuple(counts)


def throughput_at(
    sset: SequenceSet, shifts: Sequence[int], gamma: int
) -> tuple[Fraction, ...]:
    K = sset.size
    L = sset.period
    if not 1 <= gamma < K:
        raise ValueError("gamma must satisfy 1 <= gamma < K")
    taus = as_shifts(shifts, L, K)
    rows = [_rotated(seq.bits, tau) for seq, tau in zip(sset.sequences, taus)]
    good = [0] * K
    for fires in zip(*rows):
        total = sum(fires)
        if total <= gamma:
            for i, f in enumerate(fires):
                if f:
                    good[i] += 1
    return tuple(Fraction(g, L) for g in good)


def session_receive(
    sset: SequenceSet,
    gamma: int,
    periods: int,
    shifts: Sequence[int],
    required: Sequence[int],
) -> tuple[tuple[Counter, ...], tuple[set[int], ...], bool]:
    """Play ``periods`` periods of slots through the receive chain.

    Slots with at most gamma transmitters deliver their packets; the
    receiver groups each user's delivered packets by runs of the header
    parity bit and decodes the true period of a group when the group
    holds at least ``required[u]`` packets from that one period.

    Returns, per user, the survivors of each period (partial end periods
    included), the set of decoded periods, and whether every parity group
    covered exactly one true period.
    """
    K = sset.size
    L = sset.period
    if not 1 <= gamma < K:
        raise ValueError("gamma must satisfy 1 <= gamma < K")
    taus = as_shifts(shifts, L, K)
    bit_rows = [s.bits for s in sset.sequences]
    totals = [
        sum(bit_rows[u][(t + taus[u]) % L] for u in range(K)) for t in range(L)
    ]

    # delivered packets per user, in slot order, with ground-truth period
    delivered: list[list[tuple[SessionPacket, int]]] = [[] for _ in range(K)]
    for u in range(K):
        bits = bit_rows[u]
        tau = taus[u]
        current_period = -1
        payload_index = 0
        for t in range(periods * L):
            if not bits[(t + tau) % L]:
                continue
            p = (t + tau) // L
            if p != current_period:
                current_period = p
                payload_index = 0
            if totals[t % L] <= gamma:
                packet = SessionPacket(
                    user_id=u + 1, period_parity=p % 2, payload_index=payload_index
                )
                delivered[u].append((packet, p))
            payload_index += 1

    # receiver-side grouping by parity runs
    consistent = True
    decoded: list[set[int]] = [set() for _ in range(K)]
    for u in range(K):
        runs: list[list[tuple[SessionPacket, int]]] = []
        for item in delivered[u]:
            if not runs or item[0].period_parity != runs[-1][-1][0].period_parity:
                runs.append([])
            runs[-1].append(item)
        for group in runs:
            true_periods = {p for _, p in group}
            if len(true_periods) != 1:
                consistent = False
                continue  # mixed codewords cannot decode
            if len(group) >= required[u]:
                decoded[u].add(true_periods.pop())

    survivors = tuple(Counter(p for _, p in items) for items in delivered)
    return survivors, tuple(decoded), consistent
