"""Shift-invariant schedule sets built from exact duty factors.

Given duty factors n_i/d_i in lowest terms, the builder lays out, for
each user i, an array with prod(d_1..d_{i-1}) rows and d_i columns that
carries exactly n_i ones per row, then reads the array out column by
column and repeats the result up to the common period d_1*d_2*...*d_K.
Sets built this way have shift-independent cross-correlations on every
user tuple, and their period meets the divisibility floor that any set
with throughput-invariant behavior must respect.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    DEFAULT_BUDGET,
    BinarySequence,
    SequenceSet,
    full_mask,
    refuse_past,
)

__all__ = [
    "as_duty_factors",
    "parse_duty_spec",
    "min_period_bound",
    "si_divisibility",
    "subset_divisors",
    "build_arrays",
    "construct_si",
]


def as_duty_factors(values: Iterable) -> tuple[Fraction, ...]:
    """Normalize duty factors to Fractions in [0, 1], lowest terms.

    Accepts Fractions, ints, strings like "2/3", floats with exact binary
    values, or (num, den) pairs.  Inputs such as 2/4 reduce to 1/2; a
    zero denominator raises ``ValueError``, as any other invalid input.
    A ``Fraction`` in [0, 1] is returned as itself, so a checked tuple
    passes through again at the cost of a type test per factor; any
    other value, a ``Fraction`` subclass included, is converted to a
    plain ``Fraction``.
    """
    out = []
    for v in values:
        # a Fraction is in lowest terms with a positive denominator
        if type(v) is Fraction and 0 <= v.numerator <= v.denominator:
            out.append(v)
            continue
        try:
            f = Fraction(*v) if isinstance(v, tuple) else Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"duty factor {v!r} has a zero denominator") from None
        except OverflowError:
            raise ValueError(f"duty factor {v!r} is not finite") from None
        except TypeError:
            raise ValueError(f"duty factor {v!r} is not a number or an integer pair") from None
        if not 0 <= f <= 1:
            raise ValueError(f"duty factor {f} outside [0, 1]")
        out.append(f)
    if not out:
        raise ValueError("need at least one duty factor")
    return tuple(out)


def parse_duty_spec(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated duty list such as ``2/3,1/3,1/3``."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty duty factor list")
    return as_duty_factors(parts)


def min_period_bound(duty: Iterable) -> int:
    """Product of the duty denominators: the floor any matching set's period
    must be divisible by, and the period the builder actually achieves."""
    return _period(as_duty_factors(duty))


def _period(duty: tuple[Fraction, ...]) -> int:
    """Product of the denominators of checked duty factors."""
    return math.prod([f.denominator for f in duty])


def si_divisibility(duty: Iterable, subset: Sequence[int]) -> int:
    """Per-subset divisor of the common period.

    For a 1-based user subset U, returns prod(d_i, i in U) divided by
    gcd(prod d_i, prod n_i); the common period of a shift-invariant set
    with these duty factors is divisible by this value.
    """
    return subset_divisors(duty, [subset])[0]


def subset_divisors(duty: Iterable, subsets: Iterable[Sequence[int]]) -> list[int]:
    """``si_divisibility`` of every given subset, in order.

    The duty factors are checked, and split into numerators and
    denominators, once for all the subsets.
    """
    duty = as_duty_factors(duty)
    K = len(duty)
    nums = [f.numerator for f in duty]
    dens = [f.denominator for f in duty]
    divisors = []
    for subset in subsets:
        idx = sorted({int(u) for u in subset})
        if not idx:
            raise ValueError("subset must be non-empty")
        if idx[0] < 1 or idx[-1] > K:
            raise ValueError(f"subset indices must lie in [1, {K}]")
        prod_d = math.prod([dens[u - 1] for u in idx])
        prod_n = math.prod([nums[u - 1] for u in idx])
        divisors.append(prod_d // math.gcd(prod_d, prod_n))
    return divisors


def _layout(duty: Iterable, fill: str) -> tuple[tuple[Fraction, ...], int]:
    """Checked duty factors and common period of a build.

    The duty factors are checked once, here.  Builds of more than
    ``DEFAULT_BUDGET`` slots in total are refused before anything is
    allocated.
    """
    duty = as_duty_factors(duty)
    if fill not in ("left", "random"):
        raise ValueError("fill must be 'left' or 'random'")
    L = _period(duty)
    message = "{k} schedules of period {L} exceed the budget of {limit} slots"
    refuse_past(len(duty) * L, DEFAULT_BUDGET, message, k=len(duty), L=L)
    return duty, L


def build_arrays(
    duty: Iterable, fill: str = "left", seed: int | None = None
) -> list[list[list[int]]]:
    """Per-user 0/1 layout arrays with exactly n_i ones in each row.

    ``fill="left"`` packs the ones into the leading columns of every row,
    which makes the construction deterministic: it draws nothing and
    ignores ``seed``.  ``fill="random"`` picks the one-columns per row
    with a ``random.Random(seed)`` generator; any row fill yields a
    shift-invariant set, and tests exercise both.  Layouts for sets of
    more than ``DEFAULT_BUDGET`` slots are refused up front.
    """
    duty, _ = _layout(duty, fill)
    rng = random.Random(seed) if fill == "random" else None
    arrays = []
    rows = 1
    for f in duty:
        n, d = f.numerator, f.denominator
        array = []
        for _ in range(rows):
            row = [0] * d
            cols = range(n) if fill == "left" else rng.sample(range(d), n)
            for c in cols:
                row[c] = 1
            array.append(row)
        arrays.append(array)
        rows *= d
    return arrays


def construct_si(
    duty: Iterable, fill: str = "left", seed: int | None = None
) -> SequenceSet:
    """Build a shift-invariant set realizing the given duty factors exactly.

    The common period is the product of the duty denominators; schedule i
    is its ``build_arrays`` array read out column by column (rows top to
    bottom inside a column) and repeated periodically.  Each schedule's
    mask is built directly, in time linear in the period.  The left fill
    draws nothing and ignores ``seed``.  The random fill makes the same
    draws as ``build_arrays``: each row's one-columns are those
    ``random.Random(seed).sample(range(d), n)`` picks, by an inline copy
    of ``sample`` on ``getrandbits`` (see ``_fill_rows``), so every seed
    gives the same set.  Sets of more than ``DEFAULT_BUDGET`` slots in
    total are refused before anything is allocated.
    """
    duty, L = _layout(duty, fill)
    getrandbits = random.Random(seed).getrandbits if fill == "random" else None
    sequences = []
    rows = 1
    for f in duty:
        n, d = f.numerator, f.denominator
        span = rows * d
        if fill == "left":
            block = full_mask(n * rows)
        else:
            readout = bytearray(b"0") * span
            _fill_rows(getrandbits, d, n, rows, readout)
            block = int(readout[::-1], 2)
        sequences.append(BinarySequence.from_mask(_repeat(block, span, L), L))
        rows = span
    return SequenceSet(tuple(sequences))


def _pool_limit(n: int) -> int:
    """Largest population ``random.Random.sample`` draws ``n`` items from
    with its pool branch; above it, it uses the rejection-set branch."""
    limit = 21
    if n > 5:
        limit += 4 ** math.ceil(math.log(n * 3, 4))
    return limit


def _fill_rows(getrandbits, d: int, n: int, rows: int, readout: bytearray) -> None:
    """Mark the one-columns of ``rows`` array rows of ``d`` columns each.

    Row r gets the n columns that ``sample(range(d), n)`` of a
    ``random.Random`` returns, drawn from that generator's bound
    ``getrandbits`` exactly as CPython draws them: each index below m
    comes from ``getrandbits(m.bit_length())``, redrawn while it is at
    least m.  For d up to ``_pool_limit(n)`` the draws pick from a pool
    whose chosen entries are replaced by the last unchosen one; above it
    they pick from all d columns, redrawing columns already chosen.
    Cell (r, c) is byte c * rows + r of ``readout`` (the column-major
    readout), and a marked cell is set to b"1".
    """
    one = ord("1")
    if d <= _pool_limit(n):
        steps = [(d - i, (d - i).bit_length()) for i in range(n)]
        # the pool holds each column's first cell, c * rows
        columns = list(range(0, d * rows, rows))
        for r in range(rows):
            pool = columns[:]
            for m, k in steps:
                j = getrandbits(k)
                while j >= m:
                    j = getrandbits(k)
                readout[pool[j] + r] = one
                pool[j] = pool[m - 1]
    else:
        k = d.bit_length()
        for r in range(rows):
            chosen = set()
            for _ in range(n):
                c = getrandbits(k)
                while c >= d or c in chosen:
                    c = getrandbits(k)
                chosen.add(c)
                readout[c * rows + r] = one


def _repeat(block: int, span: int, period: int) -> int:
    """A ``span``-slot mask repeated up to ``period``, a multiple of span.

    Doubling the copies keeps the cost linear in the period.
    """
    mask = block
    while span < period:
        mask |= mask << span
        span *= 2
    return mask & full_mask(period)
