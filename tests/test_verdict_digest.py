"""One SHA-256 over the verdicts, witnesses and correlation values of a
fixed corpus.

The digest pins every field of every verdict the sweeps give on the
benchmark's duty corpus and on seeded random sets, so a change to how
the sweeps lay out or count shift classes that moves any verdict,
witness or ``configurations_checked`` shows here.  The pinned value
was taken with byte-wide lane fields; every lane layout must give it.
"""

import hashlib
import itertools
import random
from pathlib import Path

from protoseq import (
    BinarySequence,
    BudgetExceededError,
    SequenceSet,
    construct_si,
    correlation_values,
    is_pairwise_si,
    is_si,
    is_ti,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"

VERDICT_DIGEST = "90c558f3d61b6fbc42c72c86f932a0a9d5a18cff5f7c482ad050982219541893"


def _verdict_lines(sset):
    """One line per verdict: prop, gamma, holds, checked and witness."""
    calls = [(is_ti, (gamma,)) for gamma in range(1, sset.size)]
    calls += [(is_si, ()), (is_pairwise_si, ())]
    for fn, args in calls:
        try:
            v = fn(sset, *args)
        except BudgetExceededError:
            yield f"{fn.__name__} {args} refused"
            continue
        w = v.witness
        witness = None if w is None else (
            w.users, w.shifts_a, w.shifts_b, str(w.value_a), str(w.value_b)
        )
        yield f"{v.prop} {v.gamma} {v.holds} {v.configurations_checked} {witness}"


def _correlation_lines(sset):
    """The sorted correlation values of every triple, when L^3 <= 10^5."""
    if sset.period ** 3 > 10**5:
        return
    for users in itertools.combinations(range(1, sset.size + 1), 3):
        yield f"{users} {sorted(correlation_values(sset, users))}"


def _corpus(monkeypatch):
    """The benchmark's duty lists, each built with the left and a seeded
    random fill, then 500 seeded random sets of K 2-5 and L <= 16."""
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import SWEEP_CORPUS

    for duty in SWEEP_CORPUS:
        yield construct_si(duty)
        yield construct_si(duty, fill="random", seed=21)
    rng = random.Random(2121)
    shapes = [(K, L) for K in range(2, 6) for L in range(1, 17) if L ** (K - 1) <= 4096]
    for _ in range(500):
        K, L = rng.choice(shapes)
        p = rng.choice([0.5, 0.2, 0.1])
        yield SequenceSet(tuple(
            BinarySequence(tuple(int(rng.random() < p) for _ in range(L)))
            for _ in range(K)
        ))


def test_verdicts_and_correlations_match_the_pinned_digest(monkeypatch):
    digest = hashlib.sha256()
    for sset in _corpus(monkeypatch):
        lines = [*_verdict_lines(sset), *_correlation_lines(sset)]
        digest.update("\n".join(lines).encode() + b"\n\n")
    assert digest.hexdigest() == VERDICT_DIGEST
