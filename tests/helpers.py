"""Shared helpers for randomized and exhaustive checks."""

import itertools
import math
import random
from fractions import Fraction

from protoseq import (
    DEFAULT_BUDGET,
    BinarySequence,
    PropertyVerdict,
    SearchResult,
    SequenceSet,
    Witness,
    as_duty_factors,
    count_config,
)
from protoseq import analysis, reference, simulator
from protoseq.core import rotate_mask, success_counts


#: The smallest known pairwise-SI triple that is not SI (period 12).
PAIRWISE_SI_NOT_SI = ("101010101010", "100100100100", "111001110000")


def random_sequence(rng: random.Random, period: int) -> BinarySequence:
    return BinarySequence(tuple(rng.randint(0, 1) for _ in range(period)))


def random_set(rng: random.Random, users: int, period: int) -> SequenceSet:
    return SequenceSet(tuple(random_sequence(rng, period) for _ in range(users)))


def strip_sequence_oracle(text):
    """``BinarySequence.from_string`` as it validated with ``strip("01")``.

    Returns the schedule, or None where that validator rejected the text.
    """
    text = text.strip()
    if text.strip("01") or not text:
        return None
    return BinarySequence.from_mask(int(text[::-1], 2), len(text))


def strip_parse_oracle(text):
    """``parse_sequence_set`` as it validated every line with ``strip("01")``.

    Returns the set, or None where that parser rejected the text.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.strip("01"):
            return None
        rows.append(line)
    if not rows or len({len(r) for r in rows}) != 1:
        return None
    return SequenceSet(tuple(strip_sequence_oracle(r) for r in rows))


def exhaustive_pair_correlations(sset, users):
    """All correlation values of a user pair over the full shift square."""
    L = sset.period
    from protoseq import hamming_cross_correlation

    return {
        hamming_cross_correlation(sset, users, (a, b))
        for a in range(L)
        for b in range(L)
    }


def config_constancy_si_oracle(sset) -> bool:
    """Independent SI test: every full pattern count is shift-independent.

    Scans all 2^K patterns over all shift classes with the first shift
    pinned; feasible only for small sets.
    """
    K = sset.size
    L = sset.period
    patterns = list(itertools.product((0, 1), repeat=K))
    baseline = None
    for rest in itertools.product(range(L), repeat=K - 1):
        shifts = (0,) + rest
        counts = tuple(count_config(sset, shifts, p) for p in patterns)
        if baseline is None:
            baseline = counts
        elif counts != baseline:
            return False
    return True


def first_difference_ti(sset, gamma, counts_at):
    """TI verdict of a brute-force scan of the pinned shift classes.

    Classes are visited in lexicographic order of the other users'
    shifts; ``counts_at(shifts)`` gives every user's success count.
    """
    K = sset.size
    L = sset.period
    baseline = None
    checked = 0
    for rest in itertools.product(range(L), repeat=K - 1):
        checked += 1
        counts = tuple(counts_at((0,) + rest))
        if baseline is None:
            baseline = counts
        elif counts != baseline:
            i = next(i for i in range(K) if counts[i] != baseline[i])
            witness = Witness(
                (i + 1,),
                (0,) * K,
                (0,) + rest,
                Fraction(baseline[i], L),
                Fraction(counts[i], L),
            )
            return PropertyVerdict("TI", False, witness, checked, gamma)
    return PropertyVerdict("TI", True, None, checked, gamma)


def periodic_verdict(sset, gamma, budget=DEFAULT_BUDGET):
    """``analysis._periodic_ti`` as a TI verdict: its classes checked, and
    a witness in user order at its first differing class."""
    checked, first, difference = analysis._periodic_ti(sset, gamma, budget)
    if difference is None:
        return PropertyVerdict("TI", True, None, checked, gamma)
    i, shifts, value = difference
    L = sset.period
    witness = Witness((i + 1,), (0,) * sset.size, shifts,
                      Fraction(first[i], L), Fraction(value, L))
    return PropertyVerdict("TI", False, witness, checked, gamma)


def periodic_first_difference_ti(sset, gamma, counts_at):
    """``periodic_verdict`` of a brute-force scan.

    Each row's minimal period p_u comes from ``reference.minimal_period``.
    The lowest-numbered user of longest period is pinned at shift 0, the
    highest-numbered user of longest period among the rest is scanned
    innermost, and the others in user order before it; user u's shift
    runs over range(p_u), in lexicographic order of the scan.  The
    witness names the first user in that order, the pin first, whose
    count differs.
    """
    K = sset.size
    L = sset.period
    periods = [reference.minimal_period(seq.bits) for seq in sset.sequences]
    pin = min(u for u in range(K) if periods[u] == max(periods))
    rest = [u for u in range(K) if u != pin]
    last = max(u for u in rest if periods[u] == max(periods[v] for v in rest))
    order = [pin] + [u for u in rest if u != last] + [last]
    baseline = None
    checked = 0
    for scanned in itertools.product(*(range(periods[u]) for u in order[1:])):
        checked += 1
        shifts = [0] * K
        for u, s in zip(order[1:], scanned):
            shifts[u] = s
        counts = tuple(counts_at(shifts))
        if baseline is None:
            baseline = counts
        elif counts != baseline:
            i = next(u for u in order if counts[u] != baseline[u])
            witness = Witness(
                (i + 1,),
                (0,) * K,
                tuple(shifts),
                Fraction(baseline[i], L),
                Fraction(counts[i], L),
            )
            return PropertyVerdict("TI", False, witness, checked, gamma)
    return PropertyVerdict("TI", True, None, checked, gamma)


def first_difference_si(sset, sizes, prop, correlation_at):
    """SI or pairwise-SI verdict of a brute-force scan.

    Tuples are visited by size, then in lexicographic order, and each
    tuple's pinned shift classes in lexicographic order;
    ``correlation_at(users, shifts)`` gives the tuple's correlation.
    """
    L = sset.period
    checked = 0
    for m in sizes:
        for users in itertools.combinations(range(1, sset.size + 1), m):
            base = None
            for rest in itertools.product(range(L), repeat=m - 1):
                checked += 1
                h = correlation_at(users, (0,) + rest)
                if base is None:
                    base = h
                elif h != base:
                    witness = Witness(users, (0,) * m, (0,) + rest, base, h)
                    return PropertyVerdict(prop, False, witness, checked)
    return PropertyVerdict(prop, True, None, checked)


def unpack_column(packed, period):
    """Counts by the last member's shift from a packed sweep column.

    Fields are ``analysis._lanes(period).width`` bits wide, enough for a
    count of ``period``; the count at shift t sits in field
    period - 1 - t, and no bit lies above the top field.
    """
    width = analysis._lanes(period).width
    assert width >= period.bit_length()
    assert packed >> (width * period) == 0
    field = (1 << width) - 1
    return [(packed >> (width * (period - 1 - t))) & field for t in range(period)]


def unpack_block(block, period):
    """Counts by middle shifts from a sweep block, one entry per segment.

    Returns ``[(middle, columns), ...]`` with each column unpacked by
    ``unpack_column``.  A block of one segment holds the middle shifts it
    names; a row (``analysis._Row``) holds segment j, ``stride`` bits from
    the last with a zero upper part, at the innermost shift advanced by j.
    """
    middle, shape, columns = block
    if not isinstance(shape, analysis._Row):
        return [(middle, [unpack_column(c, period) for c in columns])]
    stride = shape.stride
    assert all(c >> (period * stride) == 0 for c in columns)
    segments = []
    for j in range(period):
        cut = [(c >> (j * stride)) & ((1 << stride) - 1) for c in columns]
        shifts = (*middle[:-1], middle[-1] + j)
        segments.append((shifts, [unpack_column(c, period) for c in cut]))
    return segments


def _pair_constant(m1, m2, period):
    """A pair's correlation is the same at every shift of the second mask."""
    return len({(m1 & rotate_mask(m2, t, period)).bit_count()
                for t in range(period)}) == 1


def search_oracle(candidates, seed, min_period=2, max_period=12):
    """``find_pairwise_si_not_si`` as a plain loop over ``random.randint``.

    Draws the period with ``randint``, then the three masks, and judges
    each pair and the triple by correlations at every shift; so it pins
    both the search's random stream and its verdicts.
    """
    rng = random.Random(seed)
    hits = []
    found = 0
    for _ in range(candidates):
        L = rng.randint(min_period, max_period)
        masks = (rng.getrandbits(L), rng.getrandbits(L), rng.getrandbits(L))
        m1, m2, m3 = masks
        pairs = ((m1, m2), (m1, m3), (m2, m3))
        if not all(_pair_constant(a, b, L) for a, b in pairs):
            continue
        found += 1
        values = {
            (m1 & rotate_mask(m2, t2, L) & rotate_mask(m3, t3, L)).bit_count()
            for t2 in range(L)
            for t3 in range(L)
        }
        if len(values) > 1:
            hits.append(
                SequenceSet(tuple(BinarySequence.from_mask(m, L) for m in masks))
            )
    return SearchResult(tuple(hits), candidates, found, seed)


def subset_sum_oracle(duty, gamma):
    """The closed form by direct subset enumeration: user i's throughput is
    f_i times the sum, over subsets H of the other users with |H| < gamma,
    of prod(f_j, j in H) * prod(1 - f_k, k outside H and i)."""
    duty = as_duty_factors(duty)
    K = len(duty)
    out = []
    for i in range(K):
        others = [j for j in range(K) if j != i]
        total = Fraction(0)
        for r in range(gamma):
            for chosen in itertools.combinations(others, r):
                term = Fraction(1)
                for j in chosen:
                    term *= duty[j]
                for k in others:
                    if k not in chosen:
                        term *= 1 - duty[k]
                total += term
        out.append(duty[i] * total)
    return tuple(out)


def structural_regimes_oracle(K, duty_factors):
    """The TI-forces-SI regimes as the paper states them: for every
    capability gamma in [1, K), the tags in the order
    ``structural_hypotheses`` lists them.

    gamma = 1 and gamma = K - 1 hold with no side condition.  The others
    need every user at one duty factor n/d other than 0 and 1; then
    gamma = 2 and gamma = K - 2 need gcd(K - 2, d) = 1, and gamma = 3 and
    gamma = K - 3 need K - 3 to be an odd prime and gcd((K - 2)/2, d) = 1.
    """
    factors = {Fraction(f) for f in duty_factors}
    common = len(factors) == 1 and factors.isdisjoint({0, 1})
    d = min(factors).denominator
    two = common and math.gcd(K - 2, d) == 1
    p = K - 3
    odd_prime = p > 2 and p % 2 == 1 and all(p % q for q in range(2, p))
    three = common and odd_prime and math.gcd((K - 2) // 2, d) == 1
    out = {}
    for gamma in range(1, K):
        tags = []
        if gamma == 1:
            tags.append("gamma=1")
        if gamma == K - 1:
            tags.append("gamma=K-1")
        if two and gamma == 2:
            tags.append("gamma=2")
        if two and gamma == K - 2:
            tags.append("gamma=K-2")
        if three and gamma == 3:
            tags.append("gamma=3")
        if three and gamma == K - 3:
            tags.append("gamma=K-3")
        out[gamma] = tuple(tags)
    return out


def random_access_slot_oracle(sset, cfg):
    """Success counts of random-access runs, played one slot at a time.

    Each run draws one uniform per user and slot from the seeded Philox
    stream; a user fires in a slot when its uniform is below its duty
    factor, and succeeds when at most gamma users fire there.
    """
    K = sset.size
    slots = cfg.horizon * sset.period
    duty = [float(f) for f in sset.duty_factors]
    rng = simulator._generator(cfg.seed)
    counts = []
    for _ in range(cfg.runs):
        draws = rng.random((slots, K)).tolist()
        good = [0] * K
        for row in draws:
            fires = [u < f for u, f in zip(row, duty)]
            if sum(fires) <= cfg.gamma:
                for k in range(K):
                    good[k] += fires[k]
        counts.append(good)
    return counts


def eager_session_records(sset, gamma, periods, shifts, code):
    """A session's period records as an eager loop builds them.

    One tuple per user of one ``PeriodOutcome`` per judged period: a
    user at shift zero is judged from period 0, a shifted user from
    period 1, and every judged period has the survivors counted at the
    shifts.
    """
    L = sset.period
    counts = success_counts(
        [rotate_mask(m, tau, L) for m, tau in zip(sset.masks, shifts)], gamma, L
    )
    out = []
    for u in range(sset.size):
        sent = code.packets_per_period[u]
        survived = counts[u]
        success = survived >= code.required_per_period[u]
        first = 0 if shifts[u] == 0 else 1
        out.append(tuple(
            simulator.PeriodOutcome(u + 1, p, p % 2, sent, survived, success)
            for p in range(first, periods)
        ))
    return tuple(out)
