"""Periodic binary transmission schedules and exact slot-counting primitives.

A user of a slot-synchronous shared channel transmits according to a
periodic 0/1 schedule: a one in slot t means "send a packet in slot t".
Because senders get no feedback, each schedule is observed under an
unknown cyclic shift, and every quantity of interest here is a count of
slots taken over one common period under such shifts.

All counting is exact.  Schedules are stored as arbitrary-precision
integer bitmasks (slot t lives at bit t), so correlating two shifted
schedules is an AND plus a popcount, and per-slot transmitter totals are
accumulated in bit-sliced counter planes.  Ratios are
`fractions.Fraction` values; this module contains no floating point.
A deliberately naive slot-by-slot mirror of these operations lives in
`protoseq.reference` for differential testing.

This module owns the fixed-shift primitives that every other module
calls: a shift vector is any sequence of ints, ``as_shifts`` reduces it
into the period, ``rotated_masks`` rotates a list of masks to it, and
``success_counts`` counts each user's slots with at most gamma
transmitters among the rotated masks.  ``at_most_mask`` is the only
comparator of bit-sliced counter planes with a count: a success is a
slot with at most gamma transmitters, and ``theta_profile`` takes the
differences of its popcounts at successive limits.

A rotation by tau is one rule: the window at bit tau of the mask written
twice, ``mask | mask << L`` (``rotate_mask``); a schedule's minimal
period is the least rotation that keeps it (``minimal_period``).
``_overlap`` is the only AND of rotated masks, the slots where every
member of a shifted tuple transmits; ``hamming_cross_correlation``,
``count_config`` and the SI witness re-check of
``analysis.verify_witness`` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Integral
from operator import lt
from typing import Iterable, Sequence

__all__ = [
    "DEFAULT_BUDGET",
    "ProtoseqError",
    "BudgetExceededError",
    "BinarySequence",
    "SequenceSet",
    "cyclic_shift",
    "count_config",
    "hamming_cross_correlation",
    "theta_profile",
    "full_mask",
    "rotate_mask",
    "minimal_period",
    "rotated_masks",
    "count_planes",
    "at_most_mask",
    "success_counts",
    "parse_sequence_set",
    "format_sequence_set",
]


#: Default cap on slot evaluations per verdict, and on the slots a build holds.
DEFAULT_BUDGET = 10**8

#: Most entries one request may allocate in an array or a list: duty-factor
#: grid steps, Monte-Carlo runs times users, and the subsets that
#: ``bound --full`` lists.
MAX_ENTRIES = 10**7


class ProtoseqError(Exception):
    """Base class for toolkit-specific failures."""


class BudgetExceededError(ProtoseqError):
    """An exhaustive enumeration would exceed the configured budget.

    Raised up front, before any work is done, so that a verdict is never
    silently based on a truncated search.
    """


def refuse_past(
    amount: int | float, limit: int, message: str, **values: object
) -> None:
    """Raise ``BudgetExceededError`` if ``amount`` exceeds ``limit``.

    ``message`` is a ``str.format`` template over ``amount``, ``limit``
    and ``values``, formatted only on refusal.  An integer of more digits
    than ``sys.get_int_max_str_digits()`` cannot be printed, so it reads
    ``at least 2**N`` with N = ``bit_length() - 1``.
    """
    if amount > limit:
        values.update(amount=amount, limit=limit)
        raise BudgetExceededError(
            message.format(**{k: _printable(v) for k, v in values.items()})
        )


def _printable(value: object) -> str:
    try:
        return str(value)
    except ValueError:
        return f"at least 2**{value.bit_length() - 1}"


# ---------------------------------------------------------------------------
# bitmask helpers


def full_mask(period: int) -> int:
    """All-ones mask covering one period."""
    return (1 << period) - 1


def rotate_mask(mask: int, tau: int, period: int) -> int:
    """Cyclically advance a schedule mask by ``tau`` slots.

    Bit t of the result equals bit (t + tau) mod period of the input,
    matching how a shifted schedule is read on the channel: it is the
    window at bit tau of the mask written twice, ``mask | mask << period``.
    """
    tau %= period
    if tau == 0:
        return mask
    return ((mask | mask << period) >> tau) & full_mask(period)


@lru_cache(maxsize=64)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing ``n`` >= 1, smallest first, by trial
    division."""
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1 + (q > 2)  # 2, then the odd numbers
    return (*primes, n) if n > 1 else tuple(primes)


def minimal_period(mask: int, period: int) -> int:
    """The least p >= 1 with ``rotate_mask(mask, p, period) == mask``.

    The rotations that keep a schedule form the multiples of its minimal
    period, which divides ``period``; so starting from the period, each
    prime q is divided out of p while the rotation by p / q keeps the
    mask: one rotate-and-compare per prime factor of the period counted
    with multiplicity, plus one per distinct prime.
    """
    p = period
    for q in _prime_factors(period):
        while p % q == 0 and rotate_mask(mask, p // q, period) == mask:
            p //= q
    return p


def count_planes(masks: Iterable[int]) -> list[int]:
    """Bit-sliced per-slot sum of several schedule masks.

    Returns planes p0, p1, ... where bit t of plane k is bit k of the
    number of masks that have a one in slot t.  Adding one mask is a
    ripple-carry over the planes, so the whole sum costs O(n log n)
    integer operations regardless of the period.
    """
    planes: list[int] = []
    for m in masks:
        carry = m
        i = 0
        while carry:
            if i == len(planes):
                planes.append(carry)
                break
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            i += 1
    return planes


def at_most_mask(planes: Sequence[int], limit: int, period: int) -> int:
    """Mask of slots whose bit-sliced count is <= limit.

    A count exceeds ``limit`` exactly when, at some plane k where
    ``limit`` has a zero, the count has a one and also has a one at every
    higher plane where ``limit`` has one.  Only ``&``, ``|`` and ``^``
    touch the planes, so the Monte-Carlo kernel passes numpy arrays of
    64-bit words with a period of 64.  It is the only comparator of
    counter planes: a slot with exactly j counts is in the mask at j and
    not at j - 1, which is how ``theta_profile`` and the TI sweep read it.
    """
    if limit < 0:
        return 0
    full = full_mask(period)
    if limit >> len(planes):
        return full
    greater = 0
    covers = full  # a one wherever limit has one, in the planes above k
    for k in range(len(planes) - 1, -1, -1):
        if (limit >> k) & 1:
            covers &= planes[k]
        else:
            greater |= covers & planes[k]
    # greater only gathers bits of covers, which starts at full and is only
    # ever narrowed, so it lies inside full and XOR clears it in one step
    return full ^ greater


def success_counts(masks: Sequence[int], gamma: int, period: int) -> tuple[int, ...]:
    """Per-user count of slots where the user fires with at most gamma
    transmitters in total (itself included)."""
    planes = count_planes(masks)
    ok = at_most_mask(planes, gamma, period)
    return tuple((m & ok).bit_count() for m in masks)


# ---------------------------------------------------------------------------
# domain types


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True, init=False)
class BinarySequence:
    """One user's periodic 0/1 schedule; slot t repeats every ``period`` slots.

    The schedule is stored only as ``mask``, an integer with slot t at
    bit t; ``bits``, ``ones`` and the text form are derived from it.
    ``BinarySequence(bits)`` builds one from any iterable of 0/1 entries.
    """

    period: int
    mask: int

    def __init__(self, bits: Iterable[int]) -> None:
        bits = tuple(bits)
        if not {*bits} <= {0, 1}:
            raise ValueError("schedule entries must be 0 or 1")
        digits = bytes(map(int, reversed(bits))).translate(_BIT_DIGITS)
        self._store(int(digits or b"0", 2), len(digits))

    def _store(self, mask: int, period: int) -> None:
        if period < 1:
            raise ValueError("a schedule needs at least one slot")
        if mask < 0 or mask >> period:
            raise ValueError(f"mask has bits outside the period {period}")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, mask: int, period: int) -> "BinarySequence":
        """Schedule of ``period`` slots whose slot t is bit t of ``mask``."""
        seq = cls.__new__(cls)
        seq._store(int(mask), int(period))
        return seq

    @classmethod
    def from_string(cls, text: str) -> "BinarySequence":
        """Schedule from a '0'/'1' string, slot 0 first.

        Surrounding whitespace is ignored; anything else that is not a
        '0' or a '1' is rejected, by the one row reader that
        ``parse_sequence_set`` uses (see ``_row_mask``).
        """
        text = text.strip()
        mask = _row_mask(text)
        if mask is None:
            raise ValueError("schedule entries must be 0 or 1")
        return cls.from_mask(mask, len(text))

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """Slot values 0/1, slot 0 first."""
        return tuple(map(int, self.to_string()))

    @property
    def ones(self) -> int:
        return self.mask.bit_count()

    @property
    def duty(self) -> Fraction:
        return Fraction(self.ones, self.period)

    def is_all_one(self) -> bool:
        return self.mask == full_mask(self.period)

    def to_string(self) -> str:
        return format(self.mask, f"0{self.period}b")[::-1]

    def __len__(self) -> int:
        return self.period


@dataclass(frozen=True)
class SequenceSet:
    """K schedules sharing one common period; the unit all analyses work on.

    Users are numbered 1..K throughout the toolkit, matching how user
    tuples are written in reports and witnesses.
    """

    sequences: tuple[BinarySequence, ...]

    def __post_init__(self) -> None:
        seqs = tuple(
            s if isinstance(s, BinarySequence) else BinarySequence(tuple(s))
            for s in self.sequences
        )
        if not seqs:
            raise ValueError("a sequence set needs at least one schedule")
        period = seqs[0].period
        if any(s.period != period for s in seqs):
            raise ValueError("all schedules in a set must share one period")
        object.__setattr__(self, "sequences", seqs)

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "SequenceSet":
        return cls(tuple(BinarySequence.from_string(r) for r in rows))

    @property
    def size(self) -> int:
        return len(self.sequences)

    @property
    def period(self) -> int:
        return self.sequences[0].period

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(s.mask for s in self.sequences)

    @cached_property
    def duty_factors(self) -> tuple[Fraction, ...]:
        return tuple(s.duty for s in self.sequences)

    def subset(self, users: Sequence[int]) -> "SequenceSet":
        """Sub-set holding the given 1-based users, in the given order."""
        users = validate_users(users, self.size)
        return SequenceSet(tuple(self.sequences[u - 1] for u in users))


# ---------------------------------------------------------------------------
# validation helpers


def validate_users(users: Sequence[int], size: int) -> tuple[int, ...]:
    """Check a 1-based, strictly increasing user tuple against set size K."""
    t = tuple(map(int, users))
    # a sorted tuple of distinct users in 1..K passes in one check; only
    # an invalid one pays for the branches that name its fault
    if t and 1 <= t[0] and t[-1] <= size and all(map(lt, t, t[1:])):
        return t
    if not t:
        raise ValueError("user tuple must be non-empty")
    if any(not 1 <= u <= size for u in t):
        raise ValueError(f"user indices must lie in [1, {size}]: {t}")
    raise ValueError(f"user indices must be strictly increasing: {t}")


def validate_gamma(gamma: int, size: int) -> None:
    """Check a receiver capability against set size K: an integer with
    1 <= gamma < K."""
    if not isinstance(gamma, Integral):
        raise ValueError(f"gamma must be an integer, got {gamma!r}")
    if not 1 <= gamma < size:
        raise ValueError(f"gamma must satisfy 1 <= gamma < K={size}")


def as_shifts(shifts: Sequence[int], period: int, expected: int) -> tuple[int, ...]:
    """Normalize shifts to [0, period) and check their count."""
    values = tuple([int(s) % period for s in shifts])
    if len(values) != expected:
        raise ValueError(f"expected {expected} shifts, got {len(values)}")
    return values


# ---------------------------------------------------------------------------
# operations


def rotated_masks(
    masks: Sequence[int], shifts: Sequence[int], period: int
) -> list[int]:
    """Each mask rotated by its shift (see ``rotate_mask``), after
    ``as_shifts`` has checked one shift per mask."""
    taus = as_shifts(shifts, period, len(masks))
    return [rotate_mask(m, tau, period) for m, tau in zip(masks, taus)]


def cyclic_shift(seq: BinarySequence, tau: int) -> BinarySequence:
    """Schedule as observed under offset tau: bit t becomes bit (t+tau) mod L.

    Negative offsets are accepted and reduced modulo the period.
    """
    L = seq.period
    return BinarySequence.from_mask(rotate_mask(seq.mask, tau, L), L)


def _overlap(masks: Sequence[int], shifts: Sequence[int], period: int) -> int:
    """Slots where every mask, rotated by its shift, has a one.

    The only AND of rotated masks.  ``masks`` must be non-empty, and the
    caller validates the users they belong to, so a witness re-check
    validates once and not for each value; ``as_shifts`` checks one
    shift per mask.
    """
    acc = -1  # every bit set, so the first AND keeps the first mask
    for mask, tau in zip(masks, as_shifts(shifts, period, len(masks))):
        acc &= rotate_mask(mask, tau, period)
    return acc.bit_count()


def count_config(
    sset: SequenceSet, shifts: Sequence[int], pattern: Sequence[int]
) -> int:
    """Number of slots where each shifted user matches its pattern bit.

    ``pattern[j] = 1`` demands that user j+1 transmits in the slot,
    ``pattern[j] = 0`` that it stays silent; all K users are constrained
    at once, so summing over every pattern partitions the period.  A
    silent user is its complement, since rotating a complement gives the
    complement of the rotation.
    """
    K = sset.size
    L = sset.period
    taus = as_shifts(shifts, L, K)
    pat = tuple(int(b) for b in pattern)
    if len(pat) != K:
        raise ValueError(f"pattern length {len(pat)} does not match K={K}")
    if any(b not in (0, 1) for b in pat):
        raise ValueError("pattern entries must be 0 or 1")
    full = full_mask(L)
    rows = [m if b else full ^ m for m, b in zip(sset.masks, pat)]
    return _overlap(rows, taus, L)


def hamming_cross_correlation(
    sset: SequenceSet, users: Sequence[int], shifts: Sequence[int]
) -> int:
    """Slots in which every member of the (shifted) user tuple transmits.

    Defined for any non-empty, strictly increasing tuple of users; for a
    pair it is the usual cyclic cross-correlation of the two schedules.
    """
    users = validate_users(users, sset.size)
    masks = sset.masks
    return _overlap([masks[u - 1] for u in users], shifts, sset.period)


def theta_profile(
    sset: SequenceSet, users: Sequence[int], shifts: Sequence[int]
) -> tuple[int, ...]:
    """Per-slot histogram of simultaneous ones among a shifted user tuple.

    Entry j is the number of slots in one period where exactly j of the
    shifted tuple members transmit: the slots with at most j, less those
    with at most j - 1.  The top entry equals ``hamming_cross_correlation``
    for the same arguments; the entries always sum to the period.
    """
    users = validate_users(users, sset.size)
    masks = sset.masks
    L = sset.period
    planes = count_planes(rotated_masks([masks[u - 1] for u in users], shifts, L))
    at_most = [
        at_most_mask(planes, j, L).bit_count() for j in range(-1, len(users) + 1)
    ]
    return tuple(b - a for a, b in zip(at_most, at_most[1:]))


# ---------------------------------------------------------------------------
# text interchange format


#: Row ends that ``int(row[::-1], 2)`` reads as a sign or a base prefix.
_INT_SYNTAX_ENDS = ("+", "-", "b0", "B0")


def _row_mask(row: str) -> int | None:
    """Mask of a stripped schedule row, slot 0 first, or None unless the
    row holds only '0' and '1' characters.

    ``int()`` of the reversed row reads and checks it in one pass.  First
    the row is rejected where ``int()`` would accept more than 0/1
    digits: a non-ASCII row (Unicode digits; ``isascii`` is O(1)), an
    underscore anywhere, and a sign or a ``0b`` prefix, which reversal
    puts at the row's end.  Whitespace never reaches ``int()`` at either
    end of a stripped row, and inside one it is a ``ValueError``.  The
    empty row reads as 0.
    """
    if not row.isascii() or "_" in row or row.endswith(_INT_SYNTAX_ENDS):
        return None
    try:
        return int(row[::-1] or "0", 2)
    except ValueError:
        return None


def parse_sequence_set(text: str) -> SequenceSet:
    """Parse the line-per-schedule text format.

    Lines hold only '0'/'1' characters; blank lines and lines starting
    with '#' are ignored; every schedule line must have the same length,
    which becomes the common period.  Each schedule line is read into its
    mask and checked in the same pass, by ``int()`` behind a guard of
    O(1) and memchr-speed tests (see ``_row_mask``), so parsing is linear
    in the text.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        mask = _row_mask(line)
        if mask is None:
            raise ValueError(f"line {lineno}: only '0'/'1' characters allowed")
        rows.append((mask, len(line)))
    if not rows:
        raise ValueError("no schedules found")
    period = rows[0][1]
    if any(length != period for _, length in rows):
        raise ValueError("all schedule lines must have equal length")
    return SequenceSet(
        tuple(BinarySequence.from_mask(mask, period) for mask, _ in rows)
    )


def format_sequence_set(sset: SequenceSet) -> str:
    """Render a set in the text format, one schedule per line."""
    return "".join(s.to_string() + "\n" for s in sset.sequences)
