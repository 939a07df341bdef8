"""Exhaustive verifiers for shift- and throughput-invariance.

A set of schedules is shift-invariant (SI) when every user tuple's
cross-correlation is the same under all cyclic shifts, pairwise SI when
that holds for all pairs, and throughput-invariant (TI) at receiver
capability gamma when every user's per-period success count is the same
under all shifts.  The verifiers here enumerate shift space exhaustively
and return verdicts carrying either a proof of coverage (the number of
configurations checked) or a concrete counterexample witness.

Enumeration always pins the first shift of a tuple to zero: adding a
common offset to all shifts only relabels slots cyclically, so each
orbit is visited once.  Every verdict is computed in exact integer and
rational arithmetic.  Searches that would exceed the evaluation budget
raise instead of silently passing.

One generator (``_Lanes.sweep``) lays out every sweep: the TI and SI
verdicts, ``throughput.consistency_check``, ``correlation_values`` and
the pairwise-SI search.  It spreads a tuple's masks into lanes (slot t
at bit w·t), walks the middle members' shifts and hands the layout to a
score, which counts all L shifts of the last member at once: one
big-integer product of a spread mask with the last member's spread mask
read backwards leaves the count at each shift in its own field.  A block
of L shift classes then costs one product of two L·w-bit integers per
column (Karatsuba time in CPython, about (L·w)^1.6), instead of L
popcounts run one by one in the interpreter.  A field is w bits, the
narrowest width that holds a count of L and has no prime factor above 5
(``_Lanes``): 4, 5 and 6 bits up to L = 15, 31 and 63, 8 bits for
L = 64-255, 9 bits up to L = 511.

A sweep may go on in rows: L segments side by side, segment j holding
the tuple with the innermost middle member rotated by j slots
(``_Row``), so that each operation of a score covers L blocks.
``_Lanes.sweep`` and ``_ROW_PERIODS`` state when rows are used and that
they start over from the all-zero class.

Two scores fill the sweep: the tuple's correlation (``_correlation``)
and the per-user success counts of the TI sweep (``_ti_sweep``).  One
locator (``_first_difference``) finds the first class that differs from
the all-zero class: in a row, the lowest segment where any column
differs, then the highest differing field in it.  It is the only reader
of the TI sweep, for ``is_ti`` and ``throughput.consistency_check``
alike.  No other module reads the lane format.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    DEFAULT_BUDGET,
    BinarySequence,
    ProtoseqError,
    SequenceSet,
    _overlap,
    as_shifts,
    at_most_mask,
    count_planes,
    refuse_past,
    rotated_masks,
    success_counts,
    theta_profile,
    validate_gamma,
    validate_users,
)

__all__ = [
    "DEFAULT_BUDGET",
    "PreconditionError",
    "StructuralContradictionError",
    "Witness",
    "PropertyVerdict",
    "DeltaRecord",
    "StructuralReport",
    "SearchResult",
    "success_counts",
    "throughput_at",
    "is_si",
    "is_pairwise_si",
    "correlation_values",
    "is_ti",
    "allone_constraint",
    "delta_record",
    "check_lemma_delta",
    "check_lemma_theta",
    "structural_hypotheses",
    "structural_conclusion",
    "verify_witness",
    "find_pairwise_si_not_si",
]

class PreconditionError(ProtoseqError):
    """An operation's stated precondition does not hold for the inputs.

    Deliberately distinct from a ``False`` result: the check was not
    meaningful, not failed.
    """


class StructuralContradictionError(ProtoseqError):
    """An invariant that must hold for every input was violated.

    Raised, for example, if a set verifies as TI but not pairwise SI;
    this cannot happen for correct counting code, so it is an error
    rather than a verdict.
    """


@dataclass(frozen=True)
class Witness:
    """Concrete counterexample: one user tuple, two shift vectors, two values.

    For SI verdicts the values are cross-correlation counts of ``users``
    under the two tuple-local shift vectors.  For TI verdicts ``users``
    names the single user whose throughput differs and the shift vectors
    cover the whole set.
    """

    users: tuple[int, ...]
    shifts_a: tuple[int, ...]
    shifts_b: tuple[int, ...]
    value_a: object
    value_b: object


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one exhaustive verification."""

    prop: str  # "SI" | "PAIRWISE_SI" | "TI"
    holds: bool
    witness: Witness | None
    configurations_checked: int
    gamma: int | None = None


@dataclass(frozen=True)
class DeltaRecord:
    """Change of a tuple's slot histogram between two shift vectors.

    ``deltas[j]`` is the j-ones bucket at ``to_shifts`` minus the same
    bucket at ``from_shifts``.  The buckets redistribute slots and ones,
    so the deltas always sum to zero, weighted and unweighted.
    """

    users: tuple[int, ...]
    from_shifts: tuple[int, ...]
    to_shifts: tuple[int, ...]
    deltas: tuple[int, ...]


@dataclass(frozen=True)
class StructuralReport:
    """Which structural implications applied to a set, and what they forced."""

    gamma: int
    ti: PropertyVerdict
    applicable: tuple[str, ...]
    si: PropertyVerdict | None
    notes: tuple[str, ...]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the random hunt for pairwise-SI-but-not-SI triples."""

    hits: tuple[SequenceSet, ...]
    candidates_tried: int
    pairwise_si_found: int
    seed: int


# ---------------------------------------------------------------------------
# throughput at fixed shifts


def throughput_at(
    sset: SequenceSet, shifts: Sequence[int], gamma: int
) -> tuple[Fraction, ...]:
    """Exact per-user throughput of the set at one shift assignment.

    User i's throughput is the fraction of slots per period where it
    transmits and at most gamma - 1 other users do; the period times any
    returned value is always an integer.
    """
    L = sset.period
    validate_gamma(gamma, sset.size)
    masks = rotated_masks(sset.masks, shifts, L)
    return tuple(Fraction(c, L) for c in success_counts(masks, gamma, L))


# ---------------------------------------------------------------------------
# exhaustive invariance verdicts


def _digit_bits(width: int) -> list[int] | None:
    """Digit sizes f <= 5 whose product is ``width``, smallest first, or
    None when ``width`` has a prime factor above 5."""
    sizes = []
    for f in (5, 4, 3, 2):
        while width % f == 0:
            sizes.append(f)
            width //= f
    # a width of 1 is one digit of 1 bit
    return (sorted(sizes) or [1]) if width == 1 else None


class _Lanes:
    """Lane layout of one period for the shift sweeps.

    A spread mask holds slot t of a schedule at bit ``width * t``, so a
    field of ``width`` bits per slot, ``bits`` bits in all: one segment.
    A field holds a count of at most the period, and a product's digit
    work grows with the square of its width, so ``width`` is the
    narrowest one that holds such a count and is a product of 2, 3 and
    5: 1 to 6 bits up to L = 63, then 8, 9, 10, 12, 15, 16, 18, 20, ...
    (7 is prime, so periods of bit length 7 take 8 bits).  Such a width
    lets a spread be one parse of the mask's binary digits in base 2**f
    per factor f <= 5: slot t of a base-2**f parse lands at bit f·t, so
    w = 6 is a base-4 parse followed by a base-8 parse of its binary
    digits, and up to L = 31 a spread is one parse.  Power-of-two bases
    parse in linear time.

    Bitwise operations, ``count_planes`` and popcounts act on spread
    masks as on plain ones; only a mask of slots with at most j
    transmitters is ANDed with ``ones``, since the bits between lanes
    count zero transmitters.  Multiplying a spread mask x by the spread
    of another schedule read backwards, q, adds up |x & rot(last, tau)|
    for every tau at once: field f of ``column(x, q)`` holds the count at
    tau = L - 1 - f.  No field carries into the next, since each holds at
    most L.  ``sweep`` lays out every shift sweep in this one-segment
    layout and in ``row``, the layout of L segments side by side
    (``_Row``), and only it spreads masks.
    """

    __slots__ = ("period", "width", "bits", "full", "top", "ones", "base", "more", "row")

    def __init__(self, period: int) -> None:
        self.period = period
        w = period.bit_length()
        while (sizes := _digit_bits(w)) is None:
            w += 1
        self.width = w
        self.bits = w * period  # the size of a spread mask
        self.full = (1 << self.bits) - 1
        self.top = self.bits - w  # offset of field L - 1, the last member's shift 0
        # a one in every field: the spread of the all-ones schedule
        self.ones = self.full // ((1 << w) - 1)
        self.base, *self.more = [1 << f for f in sizes]
        self.row = _Row(self) if period in _ROW_PERIODS else None

    def _parse(self, digits: str) -> int:
        # digit t from the right lands at bit w·t after the last parse
        spread = int(digits, self.base)
        for base in self.more:
            spread = int(bin(spread)[2:], base)
        return spread

    def spread(self, mask: int) -> int:
        """Mask with slot t moved to bit ``width * t``."""
        return self._parse(bin(mask)[2:])

    def spread_reversed(self, mask: int) -> int:
        """Mask with slot t moved to bit ``width * (period - 1 - t)``."""
        # a top bit set above the period keeps the leading zeros
        return self._parse(bin(mask | 1 << self.period)[:2:-1])

    def rotations(self, spread: int) -> list[int]:
        """Entry t is the spread mask rotated by t slots (see ``core.rotate_mask``)."""
        doubled = spread | (spread << self.bits)
        full = self.full
        return [(doubled >> b) & full for b in range(0, self.bits, self.width)]

    def column(self, spread: int, last: int) -> int:
        """Counts |mask & rot(last, tau)| for every tau, packed in fields.

        ``last`` is ``spread_reversed`` of the last member; field f of the
        result holds the count at tau = L - 1 - f, so the shifts run from
        the top field down.
        """
        product = spread * last
        return (product & self.full) + (product >> self.bits)

    def successes(
        self, head: Sequence[int], fits: int, edge: int, last: int
    ) -> list[int]:
        """One column per mask m of ``head``: the ones of ``m & fits`` in
        every field, less ``column(m & edge, last)``."""
        ones = self.ones
        column = self.column
        return [(m & fits).bit_count() * ones - column(m & edge, last) for m in head]

    def fields(self, packed: int) -> list[int]:
        """All ``period`` fields of a packed column, field 0 first."""
        return self.decode(packed.to_bytes(-(-self.bits // 8), "little"))

    def decode(self, data: bytes) -> list[int]:
        """The first ``period`` fields held in ``data``, little-endian.

        Every 64 fields fill ``8 * width`` whole bytes, so the fields are
        read by shifts inside such chunks, which keeps the work linear in
        the period.
        """
        w = self.width
        field = (1 << w) - 1
        size = 8 * w
        offsets = range(0, min(64, self.period) * w, w)
        chunks = [
            int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)
        ]
        return [(c >> b) & field for c in chunks for b in offsets][: self.period]

    def sweep(self, masks: Sequence[int], score: _Score) -> Iterator[_Block]:
        """Score a tuple at every shift class, first shift pinned to zero.

        ``masks`` holds the tuple's two or more members: the first, the
        middle ones and the last.  A score gets a layout, the first
        member's mask, the middle members' masks and the last member's
        ``spread_reversed`` mask in that layout, and returns packed
        columns: field L - 1 - t of a segment holds a count at the last
        member's shift t.

        Blocks ``(middle, layout, columns)`` come in lexicographic order
        of ``middle``, the middle members' shifts at the block's first
        segment, and the first is the all-zero class in one segment.  If
        the period has a ``row`` layout (``_ROW_PERIODS``), a tuple of
        three or more members goes on in rows, which start over from the
        all-zero class: segment j of a row puts the innermost middle
        member at shift j.  The first block is scored from the unshifted
        masks before the rows are built, so a sweep that stops there
        builds nothing else.  Otherwise every block is one segment.
        Readers key on a block's layout: the first block's is the
        period's lanes, and a new layout starts over from the all-zero
        class.
        """
        first = self.spread(masks[0])
        last = self.spread_reversed(masks[-1])
        if len(masks) < 3 or self.row is None:
            shape = self
            tables = [self.rotations(self.spread(m)) for m in masks[1:-1]]
        else:
            shape = self.row
            # the all-zero class alone, before the tuple's rows are built
            middle = [self.spread(m) for m in masks[1:-1]]
            yield (0,) * len(middle), self, score(self, first, middle, last)
            first = shape.replicate(first)
            tables = [[*map(shape.replicate, self.rotations(m))] for m in middle[:-1]]
            tables.append([shape.rotations(middle[-1])])
        shifts = itertools.product(*map(range, map(len, tables)))
        for shift, rotated in zip(shifts, itertools.product(*tables)):
            yield shift, shape, score(shape, first, rotated, last)


#: The periods whose sweeps of three or more members run in rows after
#: the first block, starting over from the all-zero class (``sweep``).  A
#: row's products also multiply the empty upper half of every segment,
#: twice a block's product work, which past L = 64 costs more than the
#: interpreter steps of the L blocks it replaces; below L = 4 a row
#: replaces too few blocks to pay for building it.
_ROW_PERIODS = range(4, 65)


class _Row:
    """L segments of a period's lanes side by side: the row layout.

    Segment j is the ``stride`` bits from ``stride * j``: a spread mask
    in its lower ``bits`` bits, and an upper part that stays zero in
    every mask, so that a product with the last member's
    ``spread_reversed`` mask, ``2 * bits - width`` bits long, stays in
    its segment.  The stride is ``2 * bits`` rounded up to whole bytes,
    so that ``replicate`` puts one spread mask in every segment by one
    byte repetition; ``rotations`` lays the rotations of one side by
    side.  Rows answer ``bits``, ``ones``, ``column``, ``successes`` and
    ``fields`` as ``_Lanes`` does, segment by segment, so each bitwise
    operation, product and fold of a score covers L blocks at once.
    """

    __slots__ = ("lanes", "stride", "bits", "ones", "low")

    def __init__(self, lanes: _Lanes) -> None:
        self.lanes = lanes
        self.stride = 8 * -(-2 * lanes.bits // 8)
        self.bits = lanes.period * self.stride
        self.ones = self.replicate(lanes.ones)
        self.low = self.replicate(lanes.full)  # the lower part of every segment

    def replicate(self, spread: int) -> int:
        """The spread mask in every segment."""
        segment = spread.to_bytes(self.stride // 8, "little")
        return int.from_bytes(segment * self.lanes.period, "little")

    def rotations(self, spread: int) -> int:
        """The row whose segment j holds the spread mask rotated by j slots."""
        size = self.stride // 8
        segments = [r.to_bytes(size, "little") for r in self.lanes.rotations(spread)]
        return int.from_bytes(b"".join(segments), "little")

    def column(self, row: int, last: int) -> int:
        """``_Lanes.column`` of every segment."""
        product = row * last
        low = self.low
        return (product & low) + ((product >> self.lanes.bits) & low)

    def successes(
        self, head: Sequence[int], fits: int, edge: int, last: int
    ) -> list[int]:
        """``_Lanes.successes`` of every segment.

        A product with the all-ones schedule, which every rotation keeps,
        counts the ones of each segment in every one of its fields.
        """
        ones = self.lanes.ones
        column = self.column
        return [column(m & fits, ones) - column(m & edge, last) for m in head]

    def fields(self, packed: int) -> list[int]:
        """The fields of every segment, segment 0 first, and not those of
        the upper parts."""
        lanes = self.lanes
        data = packed.to_bytes(self.bits // 8, "little")
        size = -(-lanes.bits // 8)  # the bytes that hold a segment's fields
        return [
            n
            for j in range(0, len(data), self.stride // 8)
            for n in lanes.decode(data[j : j + size])
        ]


def _correlation(
    shape: _Lanes | _Row, first: int, rotated: Sequence[int], last: int
) -> list[int]:
    """The correlation score: one column, whose field L - 1 - t counts the
    slots where ``first``, every ``rotated`` mask and the last member at
    shift t all fire."""
    for m in rotated:
        first &= m
    return [shape.column(first, last)]


#: The layout of a period, built once for the most recently swept periods.
_lanes = lru_cache(maxsize=64)(_Lanes)

#: A score: a layout, the first member's mask, the middle members' masks
#: and the last member's reversed spread in, packed columns out.
_Score = Callable[[_Lanes | _Row, int, Sequence[int], int], list[int]]

#: One block of a sweep: the shifts of the middle members at its first
#: segment, its layout, and packed columns whose field L - 1 - t holds a
#: count at the last member's shift t in every segment.
_Block = tuple[tuple[int, ...], _Lanes | _Row, list[int]]

#: The refusal of a sweep of more slot evaluations than its budget.
_REFUSAL = "{need} {amount} slot evaluations, budget is {limit}"


def _ti_sweep(sset: SequenceSet, gamma: int, budget: int) -> Iterator[_Block]:
    """Per-user success counts at every shift class, first shift pinned to zero.

    The blocks of ``_Lanes.sweep`` over the whole set; ``columns[i]``
    packs user i+1's success counts with the last user at every shift,
    shift t in field L - 1 - t of a segment.  The capability and the
    budget are checked on the call, before any layout is built.

    The score counts the first K - 1 users once per block: a slot where
    at most gamma - 1 of them fire (``room``) lets every packet through
    whatever the last user does, and a slot where exactly gamma of them
    fire (``edge``) lets theirs through only while the last user is
    silent.  Both come from ``at_most_mask``: ``fits``, the slots where at
    most gamma of them fire, is ``room`` and ``edge`` together.  One
    product per user then scores every shift of the last user at once.
    """
    K = sset.size
    L = sset.period
    validate_gamma(gamma, K)
    refuse_past(L ** (K - 1) * K * L, budget, _REFUSAL, need="TI verification needs")

    def score(
        shape: _Lanes | _Row, first: int, rotated: Sequence[int], last: int
    ) -> list[int]:
        head = (first, *rotated)
        planes = count_planes(head)
        room = at_most_mask(planes, gamma - 1, shape.bits)
        fits = at_most_mask(planes, gamma, shape.bits)
        # fits holds room, so this leaves the slots with exactly gamma;
        # the bits between lanes count zero, fall in both and cancel
        edge = fits ^ room
        # successes while the last user is silent, less the edge slots
        # lost where the last user fires too
        columns = shape.successes(head, fits, edge, last)
        columns.append(shape.column(room & shape.ones, last))
        return columns

    return _lanes(L).sweep(sset.masks, score)


def _first_difference(
    blocks: Iterable[_Block]
) -> tuple[int, list[int], tuple[tuple[int, ...], int, int, int] | None]:
    """Compare every shift class of a sweep with the all-zero class.

    The first block of ``_Lanes.sweep`` is that class in one segment, so
    its layout is the period's lanes; whenever a block's layout changes,
    the all-zero counts are laid out again in every field of the new one.

    Returns ``(checked, first, difference)``: the number of classes
    checked, every column's value at the all-zero class, and None when
    every class matches it.  Otherwise ``difference`` is
    ``(middle, i, t, value)``: the first differing class has the middle
    shifts ``middle`` and the last member's shift t.  It lies in the
    lowest segment of its block where any column differs, at the highest
    differing field there; i is the lowest column that differs in that
    field, and ``value`` its count.
    """
    first = shaped = None
    for middle, shape, columns in blocks:
        if shape is not shaped:
            if first is None:
                lanes = shape
                L = lanes.period
                w = lanes.width
                first = [c >> lanes.top for c in columns]
            shaped = shape
            flat = [v * shape.ones for v in first]
        if columns != flat:
            before = 0  # the blocks of L classes before the differing one
            for s in middle:
                before = before * L + s
            if shape is not lanes:
                # narrow a row to its lowest segment where a column differs
                differences = map(operator.xor, columns, flat)
                low = min((d & -d).bit_length() for d in differences if d)
                j = (low - 1) // shape.stride
                before += j
                middle = (*middle[:-1], middle[-1] + j)
                columns = [(c >> (shape.stride * j)) & lanes.full for c in columns]
                flat = [v * lanes.ones for v in first]
            tops = [((c ^ g).bit_length() - 1) // w for c, g in zip(columns, flat)]
            f = max(tops)
            i = tops.index(f)
            value = (columns[i] >> (w * f)) & ((1 << w) - 1)
            return before * L + L - f, first, (middle, i, L - 1 - f, value)
    return L ** (len(middle) + 1), first, None


def _constant_correlation_scan(
    sset: SequenceSet, sizes: Sequence[int], prop: str, cost: int, budget: int
) -> PropertyVerdict:
    """Check that every tuple of each size in ``sizes`` has a constant
    correlation, in order of size and then of users.

    ``cost`` is the scan's slot evaluations, C(K, m)·L^m summed over the
    sizes, which the caller states in closed form; it is checked against
    ``budget`` before any layout is built.
    """
    K = sset.size
    refuse_past(cost, budget, _REFUSAL, need=f"{prop} verification needs")
    masks = sset.masks
    checked = 0
    for m in sizes:
        if m == 1:
            # a single schedule's correlation is its ones count at any shift
            checked += K
            continue
        lanes = _lanes(sset.period)
        for users in itertools.combinations(range(1, K + 1), m):
            blocks = lanes.sweep([masks[u - 1] for u in users], _correlation)
            n, first, difference = _first_difference(blocks)
            checked += n
            if difference is not None:
                middle, _, t, value = difference
                witness = Witness(users, (0,) * m, (0, *middle, t), first[0], value)
                return PropertyVerdict(prop, False, witness, checked)
    return PropertyVerdict(prop, True, None, checked)


def is_si(sset: SequenceSet, budget: int = DEFAULT_BUDGET) -> PropertyVerdict:
    """Verify that every user tuple's cross-correlation is shift-independent.

    Exhausts all non-empty user tuples; within a tuple of size m the
    first shift is pinned to zero and the remaining m - 1 range over the
    full period.
    """
    K = sset.size
    # C(K, m) * L^m summed over m = 1..K: (L + 1)^K - 1, by the binomial theorem
    cost = (sset.period + 1) ** K - 1
    return _constant_correlation_scan(sset, range(1, K + 1), "SI", cost, budget)


def is_pairwise_si(sset: SequenceSet, budget: int = DEFAULT_BUDGET) -> PropertyVerdict:
    """Shift-independence restricted to user pairs.

    Vacuously true for a single-user set, which has no pair: 0 classes
    at a cost of 0.
    """
    cost = comb(sset.size, 2) * sset.period ** 2
    return _constant_correlation_scan(sset, [2], "PAIRWISE_SI", cost, budget)


def correlation_values(sset: SequenceSet, users: Sequence[int]) -> set[int]:
    """Every value a user tuple's cross-correlation takes over all shifts.

    A common offset only relabels slots, so the first member's shift is
    pinned to zero; the other shifts range over the period, read from
    the packed columns of the SI sweep.  Tuples of more than
    ``DEFAULT_BUDGET`` slot evaluations (L^m for m members) are refused.
    """
    users = validate_users(users, sset.size)
    L = sset.period
    refuse_past(L ** len(users), DEFAULT_BUDGET, _REFUSAL, need="correlation values need")
    masks = [sset.masks[u - 1] for u in users]
    if len(masks) == 1:
        return {masks[0].bit_count()}
    lanes = _lanes(L)
    values: set[int] = set()
    for _, shape, [column] in lanes.sweep(masks, _correlation):
        values.update(shape.fields(column))
    return values


def is_ti(
    sset: SequenceSet, gamma: int, budget: int = DEFAULT_BUDGET
) -> PropertyVerdict:
    """Verify that per-user throughput is the same at every shift assignment.

    Enumerates all shift classes with the first user's shift pinned to
    zero.  When the verdict is positive and every throughput is strictly
    positive, the pairwise shift-invariance that such a set must exhibit
    is re-verified; a failure there signals an internal fault and
    raises.  Sets with a zero-throughput user can be TI without being
    pairwise SI (a silent user is trivially invariant), so the
    cross-check does not apply to them.
    """
    K = sset.size
    L = sset.period
    checked, first, difference = _first_difference(_ti_sweep(sset, gamma, budget))
    if difference is not None:
        outer, i, t, value = difference
        values = Fraction(first[i], L), Fraction(value, L)
        witness = Witness((i + 1,), (0,) * K, (0, *outer, t), *values)
        return PropertyVerdict("TI", False, witness, checked, gamma)
    if all(v > 0 for v in first):
        pairwise = is_pairwise_si(sset, budget=budget)
        if not pairwise.holds:
            raise StructuralContradictionError(
                "set verified TI but failed the pairwise shift-invariance "
                f"cross-check: {pairwise.witness}"
            )
    return PropertyVerdict("TI", True, None, checked, gamma)


def allone_constraint(sset: SequenceSet, gamma: int) -> bool:
    """True iff the set carries at most gamma - 1 all-one schedules.

    With gamma or more always-on users, no other user can ever get a
    packet through, so positive throughput for everyone needs this bound.
    """
    validate_gamma(gamma, sset.size)
    return sum(1 for s in sset.sequences if s.is_all_one()) <= gamma - 1


def verify_witness(sset: SequenceSet, verdict: PropertyVerdict) -> bool:
    """Re-evaluate a negative verdict's witness from scratch.

    Returns True when both recorded values reproduce exactly and differ,
    i.e. the counterexample is genuine; False when there is no witness,
    or a TI verdict carries no capability.  The witness is validated once
    and only the two compared values are recomputed: for SI and pairwise
    SI the tuple's correlation (the AND of its rotated masks) at each
    shift vector, for TI the named user's success count among all K
    rotated masks, compared with a stored throughput as a fraction of
    the period.

    Raises ``ValueError`` on an unknown property, on shift vectors of the
    wrong length, on a TI capability outside 1 <= gamma < K, and on users
    that are not a strictly increasing tuple in 1..K; a TI witness must
    name exactly one user.
    """
    w = verdict.witness
    if w is None:
        return False
    K = sset.size
    L = sset.period
    masks = sset.masks
    if verdict.prop in ("SI", "PAIRWISE_SI"):
        users = validate_users(w.users, K)
        members = [masks[u - 1] for u in users]

        def value(shifts: Sequence[int]) -> int:
            return _overlap(members, shifts, L)

        equals = operator.eq

    elif verdict.prop == "TI":
        gamma = verdict.gamma
        if gamma is None:
            return False
        validate_gamma(gamma, K)
        users = validate_users(w.users, K)
        if len(users) != 1:
            raise ValueError(f"a TI witness names exactly one user: {users}")
        i = users[0] - 1

        def value(shifts: Sequence[int]) -> int:
            rotated = rotated_masks(masks, shifts, L)
            ok = at_most_mask(count_planes(rotated), gamma, L)
            return (rotated[i] & ok).bit_count()

        def equals(count: int, stored: object) -> bool:
            # the throughput is count / L: a stored Fraction compares by
            # cross multiplication, any other type as it compares with one
            if type(stored) is Fraction:
                return stored.numerator * L == count * stored.denominator
            return Fraction(count, L) == stored

    else:
        raise ValueError(f"unknown property {verdict.prop!r}")
    va = value(w.shifts_a)
    vb = value(w.shifts_b)
    return equals(va, w.value_a) and equals(vb, w.value_b) and va != vb


# ---------------------------------------------------------------------------
# histogram deltas and the identities they must satisfy


def delta_record(
    sset: SequenceSet,
    users: Sequence[int],
    from_shifts: Sequence[int],
    to_shifts: Sequence[int],
) -> DeltaRecord:
    """Bucket-by-bucket histogram change between two shift vectors."""
    users = validate_users(users, sset.size)
    if len(users) < 2:
        raise ValueError("delta records need a tuple of at least two users")
    L = sset.period
    src = theta_profile(sset, users, from_shifts)
    dst = theta_profile(sset, users, to_shifts)
    deltas = tuple(b - a for a, b in zip(src, dst))
    return DeltaRecord(
        users=users,
        from_shifts=as_shifts(from_shifts, L, len(users)),
        to_shifts=as_shifts(to_shifts, L, len(users)),
        deltas=deltas,
    )


def _require_subsets_si(
    sset: SequenceSet, users: tuple[int, ...], budget: int
) -> None:
    m = len(users)
    for sub in itertools.combinations(users, m - 1):
        verdict = is_si(sset.subset(sub), budget=budget)
        if not verdict.holds:
            # the witness numbers the subset's users 1..m-1; name them as
            # users of the set
            witness = replace(
                verdict.witness,
                users=tuple(sub[u - 1] for u in verdict.witness.users),
            )
            raise PreconditionError(
                f"user subset {sub} is not shift-invariant; witness {witness}"
            )


def check_lemma_delta(
    sset: SequenceSet,
    users: Sequence[int],
    from_shifts: Sequence[int],
    to_shifts: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Check the forced shape of histogram changes on an almost-SI tuple.

    Precondition (verified here, error if it fails): every (M-1)-subset
    of the M chosen users is shift-invariant.  Then the only degree of
    freedom left in a shift change is the top bucket's delta, and each
    lower bucket must move by (-1)^(M-i) * C(M, i) times it.  For M = 2
    this reduces to delta_1 = -2 * delta_2.
    """
    users = validate_users(users, sset.size)
    if len(users) < 2:
        raise ValueError("the identity needs a tuple of at least two users")
    _require_subsets_si(sset, users, budget)
    rec = delta_record(sset, users, from_shifts, to_shifts)
    m = len(users)
    top = rec.deltas[m]
    return all(
        rec.deltas[i] == (-1) ** (m - i) * comb(m, i) * top for i in range(1, m)
    )


def check_lemma_theta(
    sset: SequenceSet,
    split_m: int,
    gamma: int,
    from_shifts: Sequence[int],
    to_shifts: Sequence[int],
    tail_shifts: Sequence[int] = (),
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Check the head-delta, tail-histogram orthogonality identity.

    The set splits into a head of the first ``split_m`` users, whose
    shifts move, and a tail holding the rest at ``tail_shifts``.
    Preconditions (verified here): the whole set is TI at ``gamma`` and
    every (split_m - 1)-subset of the head is shift-invariant.  The
    identity then demands that the head's top-bucket delta annihilates
    the alternating binomial combination of the tail buckets at levels
    gamma - i; buckets outside the tail's range count as zero, and an
    empty tail contributes a period-sized zero-ones bucket.
    """
    K = sset.size
    L = sset.period
    if not 2 <= split_m <= K:
        raise ValueError(f"split must satisfy 2 <= M <= K={K}")
    ti = is_ti(sset, gamma, budget=budget)
    if not ti.holds:
        raise PreconditionError(
            f"set is not throughput-invariant at gamma={gamma}; witness "
            f"{ti.witness}"
        )
    head = tuple(range(1, split_m + 1))
    _require_subsets_si(sset, head, budget)
    delta_top = delta_record(sset, head, from_shifts, to_shifts).deltas[split_m]
    tail = tuple(range(split_m + 1, K + 1))
    tail_shifts = as_shifts(tail_shifts, L, len(tail))
    profile = theta_profile(sset, tail, tail_shifts) if tail else (L,)
    total = sum(
        (-1) ** (split_m - i)
        * comb(split_m - 2, i - 1)
        * (profile[gamma - i] if 0 <= gamma - i < len(profile) else 0)
        for i in range(1, split_m)
    )
    return delta_top * total == 0


# ---------------------------------------------------------------------------
# structural implications


def structural_hypotheses(
    size: int, gamma: int, duty_factors: Sequence[Fraction]
) -> tuple[str, ...]:
    """Which TI-forces-SI implications could apply, from arithmetic alone.

    Returns the tags, in table order, of the rows whose capability is
    ``gamma`` and whose side condition holds.  ``duty_factors`` holds one
    factor per user; "common n/d" means every user has duty factor n/d,
    and n/d is not 0 or 1.

    =========  ==========  =================================================
    tag        capability  side condition
    =========  ==========  =================================================
    gamma=1    1           none
    gamma=K-1  K-1         none
    gamma=2    2           common n/d, gcd(K-2, d) = 1
    gamma=K-2  K-2         common n/d, gcd(K-2, d) = 1
    gamma=3    3           common n/d, K even, K-3 prime, gcd((K-2)/2, d) = 1
    gamma=K-3  K-3         common n/d, K even, K-3 prime, gcd((K-2)/2, d) = 1
    =========  ==========  =================================================

    Whether the set actually is TI, and whether throughputs are positive,
    is judged by the caller.
    """
    K = size
    validate_gamma(gamma, K)
    if len(duty_factors) != K:
        raise ValueError(f"expected {K} duty factors, got {len(duty_factors)}")
    factors = {Fraction(f) for f in duty_factors}
    common = len(factors) == 1 and factors.isdisjoint((0, 1))
    d = min(factors).denominator
    k2_condition = common and gcd(K - 2, d) == 1
    k3_condition = (
        common
        and K % 2 == 0
        and K - 3 > 1
        and all((K - 3) % p for p in range(2, isqrt(K - 3) + 1))
        and gcd((K - 2) // 2, d) == 1
    )
    table = (
        ("gamma=1", 1, True),
        ("gamma=K-1", K - 1, True),
        ("gamma=2", 2, k2_condition),
        ("gamma=K-2", K - 2, k2_condition),
        ("gamma=3", 3, k3_condition),
        ("gamma=K-3", K - 3, k3_condition),
    )
    return tuple(tag for tag, capability, holds in table
                 if holds and capability == gamma)


def structural_conclusion(
    sset: SequenceSet, gamma: int, budget: int = DEFAULT_BUDGET
) -> StructuralReport:
    """Apply the known TI-forces-SI implications and verify their conclusion.

    After confirming the set is TI at ``gamma``, each implication whose
    hypotheses hold (capability value, common duty factor, gcd and
    primality side conditions, strictly positive throughputs) is
    recorded, and full shift-invariance is then verified.  If some
    implication applies but the set is not SI, counting itself must be
    broken and an error is raised.  Failed hypotheses are reported as
    inapplicable, never used to conclude anything.
    """
    K = sset.size
    ti = is_ti(sset, gamma, budget=budget)
    if not ti.holds:
        notes = ("set is not throughput-invariant at this capability",)
        return StructuralReport(gamma, ti, (), None, notes)
    if not all(throughput_at(sset, (0,) * K, gamma)):
        notes = (
            "some user has zero throughput; the structural implications "
            "assume strictly positive throughput and are not applied",
        )
        return StructuralReport(gamma, ti, (), None, notes)

    applicable = structural_hypotheses(K, gamma, sset.duty_factors)
    if not applicable:
        notes = ("no structural implication applies at this capability",)
        if len(set(sset.duty_factors)) > 1:
            notes = (
                "users have unequal duty factors; the common-duty "
                "implications do not apply",
            ) + notes
        return StructuralReport(gamma, ti, (), None, notes)

    si = is_si(sset, budget=budget)
    if not si.holds:
        raise StructuralContradictionError(
            f"implications {list(applicable)} force shift-invariance but the "
            f"set is not SI; witness {si.witness}"
        )
    return StructuralReport(gamma, ti, applicable, si, ())


# ---------------------------------------------------------------------------
# random search for pairwise-SI triples that are not SI


def _pair_correlation_constant(m1: int, m2: int, period: int) -> bool:
    """True iff |m1 & rot(m2, tau)| is the same at every shift tau.

    rot(m2, tau) is the window at tau of the doubled mask (see
    ``core.rotate_mask``); m1 has no bit at or above the period, so it masks
    off the window's upper part.
    """
    base = (m1 & m2).bit_count()
    doubled = m2 | m2 << period
    for tau in range(1, period):
        if (m1 & doubled >> tau).bit_count() != base:
            return False
    return True


def find_pairwise_si_not_si(
    candidates: int,
    seed: int,
    min_period: int = 2,
    max_period: int = 12,
) -> SearchResult:
    """Seeded random hunt for triples whose pairs are all SI but whose
    triple correlation is not.

    Such triples exist, but they are rare: the smallest known period is
    12 (101010101010, 100100100100, 111001110000).  A run with zero hits
    is reported as exactly that and proves nothing.  A hit exercises the
    histogram delta identity with a non-zero top bucket.

    Each candidate takes its draws from ``random.Random(seed).getrandbits``
    in a fixed order: the period, then the masks m1, m2 and m3 of L bits
    each.  The period is min_period + r for the first draw r of
    n.bit_length() bits below n = max_period - min_period + 1, so a seed
    gives the triples that ``randint`` and three ``getrandbits`` calls
    would give, without depending on how ``randint`` is implemented.

    Raises ``ValueError`` when ``candidates`` is negative or the period
    range is empty or starts below 1.
    """
    if candidates < 0:
        raise ValueError(f"candidates must be non-negative, got {candidates}")
    if not 1 <= min_period <= max_period:
        raise ValueError(
            f"periods must satisfy 1 <= min_period <= max_period, "
            f"got {min_period}..{max_period}"
        )
    getrandbits = random.Random(seed).getrandbits
    n = max_period - min_period + 1
    k = n.bit_length()
    hits: list[SequenceSet] = []
    pairwise_found = 0
    for _ in range(candidates):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        L = min_period + r
        m1 = getrandbits(L)
        m2 = getrandbits(L)
        m3 = getrandbits(L)
        # the correlations of a pair over all shifts sum to the product of
        # its weights, so a constant one times the period equals that product
        w1 = m1.bit_count()
        w2 = m2.bit_count()
        w3 = m3.bit_count()
        if (
            L * (m1 & m2).bit_count() != w1 * w2
            or L * (m1 & m3).bit_count() != w1 * w3
            or L * (m2 & m3).bit_count() != w2 * w3
        ):
            continue
        if not (
            _pair_correlation_constant(m1, m2, L)
            and _pair_correlation_constant(m1, m3, L)
            and _pair_correlation_constant(m2, m3, L)
        ):
            continue
        pairwise_found += 1
        if not (m1 and m2 and m3):
            # an empty member makes the triple's correlation 0 at every shift
            continue
        blocks = _lanes(L).sweep((m1, m2, m3), _correlation)
        if _first_difference(blocks)[2] is not None:
            hits.append(
                SequenceSet(
                    tuple(BinarySequence.from_mask(m, L) for m in (m1, m2, m3))
                )
            )
    return SearchResult(
        hits=tuple(hits),
        candidates_tried=candidates,
        pairwise_si_found=pairwise_found,
        seed=seed,
    )
