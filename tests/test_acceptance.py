"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Every tolerance and budget is pinned here; the exact criteria
never depend on floating point.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from protoseq import (
    SequenceSet,
    SimConfig,
    as_duty_factors,
    check_lemma_delta,
    cli,
    construct_si,
    delta_record,
    find_pairwise_si_not_si,
    is_pairwise_si,
    is_si,
    is_ti,
    min_period_bound,
    optimal_duty,
    run_monte_carlo,
    run_session,
    si_divisibility,
    symmetric_throughput,
    throughput_at,
    ti_throughput,
    verify_witness,
)
from protoseq.core import full_mask, rotate_mask

from helpers import PAIRWISE_SI_NOT_SI, random_set

BIG_BUDGET = 10**10

# duty-factor corpus: denominators multiply to at most 10^4 in every list
DUTY_CORPUS = [
    ("1/1",),
    ("1/2", "1/2"),
    ("1/2", "1/3"),
    ("2/3", "1/3", "1/3"),
    ("3/4", "2/5"),
    ("1/2", "1/3", "1/5"),
    ("5/6", "1/6"),
    ("1/4", "1/4", "1/4"),
    ("2/5", "1/3", "1/2"),
    ("1/2", "1/2", "1/2", "1/2"),
    ("1/2", "1/3", "1/5", "1/7"),
    ("9/10", "7/8", "1/2"),
    ("1/10", "1/10", "1/10"),
    ("3/50", "1/2"),
    ("1/99", "1/101"),
]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


def test_criterion_01_worked_example_reproduction(capsys):
    with criterion(1, "worked-example reproduction"):
        start = time.monotonic()
        code_a = cli.main(["example"])
        elapsed = time.monotonic() - start
        out_a = capsys.readouterr().out
        code_b = cli.main(["example"])
        out_b = capsys.readouterr().out
        assert code_a == 0 and code_b == 0
        assert out_a == out_b  # byte-identical reruns
        assert elapsed < 1.0
        assert "s1 = 110110110110110110110110110" in out_a
        assert "s2 = 111000000111000000111000000" in out_a
        assert "s3 = 111111111000000000000000000" in out_a
        for line in (
            "H(1,2) over 729 shift tuples: [6]",
            "H(2,3) over 729 shift tuples: [3]",
            "H(1,3) over 729 shift tuples: [6]",
            "H(1,2,3) over 729 shift tuples: [2]",
            "R = 8/27, 2/27, 2/27",
            "R = 16/27, 7/27, 7/27",
        ):
            assert line in out_a


def test_criterion_02_construction_optimality():
    with criterion(2, "construction meets the period bound"):
        start = time.monotonic()
        assert len(DUTY_CORPUS) >= 10
        for spec in DUTY_CORPUS:
            duty = as_duty_factors(spec)
            bound = min_period_bound(duty)
            assert bound <= 10**4
            sset = construct_si(duty)
            assert sset.period == bound
            assert sset.duty_factors == duty
            k = len(duty)
            for m in range(1, k + 1):
                for users in itertools.combinations(range(1, k + 1), m):
                    assert sset.period % si_divisibility(duty, users) == 0
        assert time.monotonic() - start < 10.0


def _exhaustive_corpus():
    for spec in DUTY_CORPUS:
        duty = as_duty_factors(spec)
        sset = construct_si(duty)
        if sset.size < 2:
            continue
        if sset.period ** (sset.size - 1) <= 10**6:
            yield duty, sset


def test_criterion_03_si_implies_ti_for_all_gamma():
    with criterion(3, "built sets are TI at every capability, exhaustively"):
        start = time.monotonic()
        covered = 0
        for duty, sset in _exhaustive_corpus():
            K = sset.size
            for gamma in range(1, K):
                verdict = is_ti(sset, gamma, budget=BIG_BUDGET)
                assert verdict.holds, (duty, gamma, verdict.witness)
                assert verdict.configurations_checked == sset.period ** (K - 1)
                closed = ti_throughput(duty, gamma).per_user
                assert throughput_at(sset, (0,) * K, gamma) == closed
                covered += 1
        assert covered >= 20
        assert time.monotonic() - start < 60.0


def test_criterion_04_ti_implies_pairwise_si():
    with criterion(4, "every TI verdict comes with pairwise SI"):
        for duty, sset in _exhaustive_corpus():
            K = sset.size
            ti_any = any(
                is_ti(sset, g, budget=BIG_BUDGET).holds for g in range(1, K)
            )
            assert ti_any
            assert is_pairwise_si(sset, budget=BIG_BUDGET).holds, duty


def test_criterion_05_shift_sum_identity():
    with criterion(5, "exhaustive shift sums factor into ones counts"):
        start = time.monotonic()
        rng = random.Random(20260805)
        tuples_checked = 0
        while tuples_checked < 1000:
            n = rng.randint(1, 3)
            L = rng.randint(1, 8)
            masks = [rng.getrandbits(L) for _ in range(n)]
            full = full_mask(L)
            tables = [
                [rotate_mask(m, t, L) for t in range(L)] for m in masks
            ]
            sums = [0] * (1 << n)
            for combo in itertools.product(range(L), repeat=n):
                rotated = [tables[i][combo[i]] for i in range(n)]
                for pattern in range(1 << n):
                    acc = full
                    for i in range(n):
                        m = rotated[i]
                        acc &= m if (pattern >> i) & 1 else ~m & full
                    sums[pattern] += acc.bit_count()
            for pattern in range(1 << n):
                product = L
                for i in range(n):
                    ones = masks[i].bit_count()
                    product *= ones if (pattern >> i) & 1 else L - ones
                assert sums[pattern] == product
            tuples_checked += 1
        assert time.monotonic() - start < 10.0


def test_criterion_06_delta_identity_on_fixtures():
    with criterion(6, "histogram deltas follow the binomial identity"):
        rng = random.Random(20260806)

        # trivial fixtures: built sets are SI, all deltas vanish
        for spec in (("1/2", "1/2", "1/2"), ("2/3", "1/3", "1/3")):
            sset = construct_si(spec)
            L = sset.period
            for _ in range(25):
                a = tuple(rng.randrange(L) for _ in range(3))
                b = tuple(rng.randrange(L) for _ in range(3))
                assert check_lemma_delta(sset, (1, 2, 3), a, b)

        # pairs always satisfy the preconditions; demand non-trivial cases
        nontrivial = 0
        for _ in range(300):
            trial = random_set(rng, 2, rng.randint(2, 12))
            L = trial.period
            a = (rng.randrange(L), rng.randrange(L))
            b = (rng.randrange(L), rng.randrange(L))
            assert check_lemma_delta(trial, (1, 2), a, b)
            nontrivial += delta_record(trial, (1, 2), a, b).deltas[2] != 0
        assert nontrivial >= 30

        # seeded search over short triples; the frozen period-12 triple
        # and any hit are exercised in full
        result = find_pairwise_si_not_si(10**6, seed=20260808, max_period=12)
        assert result.candidates_tried == 10**6
        print(
            f"  search: {result.pairwise_si_found} pairwise-SI triples, "
            f"{len(result.hits)} not SI (absence is reported, not proof; "
            f"the smallest known period is 12)"
        )
        frozen = SequenceSet.from_strings(PAIRWISE_SI_NOT_SI)
        for hit in (frozen, *result.hits):
            assert is_pairwise_si(hit).holds
            si = is_si(hit)
            assert not si.holds and verify_witness(hit, si)
            L = hit.period
            seen_nonzero = False
            for _ in range(50):
                a = tuple(rng.randrange(L) for _ in range(3))
                b = tuple(rng.randrange(L) for _ in range(3))
                assert check_lemma_delta(hit, (1, 2, 3), a, b)
                seen_nonzero |= delta_record(hit, (1, 2, 3), a, b).deltas[3] != 0
            assert seen_nonzero


def test_criterion_07_random_shift_experiment():
    with criterion(7, "shift experiment: zero variance vs random access"):
        start = time.monotonic()
        runs = 10**5
        for combo_seed, (K, gamma) in enumerate([(3, 2), (4, 2), (4, 3)]):
            sset = construct_si([Fraction(1, K)] * K)
            expected = symmetric_throughput(Fraction(1, K), K, gamma)

            protocol = run_monte_carlo(
                sset, SimConfig(gamma=gamma, runs=runs, seed=1000 + combo_seed)
            )
            for stats in protocol.per_user:
                assert stats.minimum == stats.mean == stats.maximum == expected

            spreads = []
            for h_index, horizon in enumerate((1, 10, 100)):
                result = run_monte_carlo(
                    sset,
                    SimConfig(
                        gamma=gamma,
                        runs=runs,
                        seed=2000 + 10 * combo_seed + h_index,
                        horizon=horizon,
                        scheme="random_access",
                    ),
                )
                for stats in result.per_user:
                    assert abs(float(stats.mean) - float(expected)) < 0.005
                spreads.append(
                    [float(s.maximum - s.minimum) for s in result.per_user]
                )
            for by_user in zip(*spreads):
                assert all(s > 0 for s in by_user)
                assert by_user[1] <= by_user[0] + 0.002
                assert by_user[2] <= by_user[1] + 0.002
        assert time.monotonic() - start < 300.0


def test_criterion_08_optimal_duty_factor():
    with criterion(8, "single-capability optimum sits at one over K"):
        start = time.monotonic()
        result = optimal_duty(20, 1, resolution=1e-4)
        assert abs(result.f_star - 0.05) < 1e-3
        assert time.monotonic() - start < 1.0


def test_criterion_09_session_decoding_guarantee(example_set):
    with criterion(9, "threshold decoding succeeds on every draw"):
        start = time.monotonic()
        required = {1: (8, 2, 2), 2: (16, 7, 7)}
        for gamma, expected_required in required.items():
            assert is_ti(example_set, gamma).holds
            for seed in range(1000):
                report = run_session(
                    example_set, gamma=gamma, periods=10, seed=seed,
                    trust_ti=True,
                )
                assert report.code.required_per_period == expected_required
                assert report.all_decoded
                for u, outcomes in enumerate(report.per_user):
                    for o in outcomes:
                        assert o.survived >= expected_required[u]
        assert time.monotonic() - start < 30.0


def test_criterion_10_witness_soundness():
    with criterion(10, "every negative verdict carries a live witness"):
        rng = random.Random(20260810)
        ti_false = 0
        si_false = 0
        attempts = 0
        while (ti_false < 100 or si_false < 100) and attempts < 1000:
            attempts += 1
            trial = random_set(rng, rng.randint(2, 4), rng.randint(2, 10))
            gamma = rng.randint(1, trial.size - 1)
            verdict = is_ti(trial, gamma)
            if not verdict.holds:
                ti_false += 1
                assert verify_witness(trial, verdict)
            si_verdict = is_si(trial)
            if not si_verdict.holds:
                si_false += 1
                assert verify_witness(trial, si_verdict)
        assert ti_false >= 100
        assert si_false >= 100
