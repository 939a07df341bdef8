import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from protoseq import (
    BinarySequence,
    BudgetExceededError,
    ErasureCodeSpec,
    PeriodOutcome,
    SequenceSet,
    SessionConfigError,
    SimConfig,
    construct_si,
    run_monte_carlo,
    run_session,
    symmetric_throughput,
)
from protoseq import reference, simulator
from protoseq.core import rotate_mask, success_counts

from helpers import (
    eager_session_records,
    random_access_slot_oracle,
    random_set,
    subset_sum_oracle,
)

NOT_TI = SequenceSet.from_strings(["110", "101"])


# ---------------------------------------------------------------------------
# Monte-Carlo experiments


def test_protocol_scheme_zero_variance(example_set):
    cfg = SimConfig(gamma=2, runs=400, seed=11)
    result = run_monte_carlo(example_set, cfg)
    expected = (Fraction(16, 27), Fraction(7, 27), Fraction(7, 27))
    for stats, value in zip(result.per_user, expected):
        assert stats.minimum == stats.mean == stats.maximum == value


def test_protocol_scheme_stats_identical_across_seeds(example_set):
    a = run_monte_carlo(example_set, SimConfig(gamma=1, runs=200, seed=1))
    b = run_monte_carlo(example_set, SimConfig(gamma=1, runs=200, seed=999))
    assert [s for s in a.per_user] == [s for s in b.per_user]


def test_protocol_scheme_spread_on_non_invariant_set():
    result = run_monte_carlo(NOT_TI, SimConfig(gamma=1, runs=300, seed=3))
    assert any(s.minimum < s.maximum for s in result.per_user)


def test_same_seed_reproduces_everything(example_set):
    cfg = SimConfig(gamma=2, runs=150, seed=77, horizon=3, scheme="random_access")
    assert run_monte_carlo(example_set, cfg) == run_monte_carlo(example_set, cfg)


def test_random_access_mean_near_symmetric_value():
    sset = construct_si(["1/3"] * 3)
    cfg = SimConfig(gamma=2, runs=20_000, seed=5, horizon=5, scheme="random_access")
    result = run_monte_carlo(sset, cfg)
    expected = float(symmetric_throughput(Fraction(1, 3), 3, 2))
    for stats in result.per_user:
        assert abs(float(stats.mean) - expected) < 0.01
        assert stats.minimum < stats.mean < stats.maximum


def test_random_access_exact_sample_arithmetic(example_set):
    cfg = SimConfig(gamma=1, runs=50, seed=13, horizon=2, scheme="random_access")
    result = run_monte_carlo(example_set, cfg)
    slots = 2 * example_set.period
    assert result.samples_per_run == slots
    for stats in result.per_user:
        assert (stats.minimum * slots).denominator == 1
        assert (stats.maximum * slots).denominator == 1
        assert stats.minimum <= stats.mean <= stats.maximum


def test_random_access_silent_user():
    sset = construct_si(("0/1", "1/2"))
    cfg = SimConfig(gamma=1, runs=100, seed=21, scheme="random_access")
    result = run_monte_carlo(sset, cfg)
    assert result.per_user[0].maximum == 0


def test_random_access_means_agree_at_three_and_fourteen_users():
    # one binomial draw per user and run, whatever the number of users
    for users, duty, gamma, runs, horizon in ((3, "1/3", 2, 4000, 2),
                                              (14, "1/2", 7, 200, 1)):
        sset = construct_si([duty] * users)
        cfg = SimConfig(gamma=gamma, runs=runs, seed=31, horizon=horizon,
                        scheme="random_access")
        result = run_monte_carlo(sset, cfg)
        expected = symmetric_throughput(Fraction(duty), users, gamma)
        for stats in result.per_user:
            assert abs(float(stats.mean) - float(expected)) < 0.02
            assert stats.minimum < stats.mean < stats.maximum


class _RecordingGenerator:
    """Passes ``binomial`` calls to a generator and records their arguments."""

    def __init__(self, generator, calls):
        self._generator = generator
        self._calls = calls

    def binomial(self, n, p, size):
        self._calls.append((n, list(p), size))
        return self._generator.binomial(n, p, size=size)


def _assert_same_mean_and_variance(a, b, sigmas=6):
    """Per column, two samples' means and variances agree within ``sigmas``
    standard errors of their difference."""
    for x, y in zip(np.asarray(a, dtype=float).T, np.asarray(b, dtype=float).T):
        moments = []
        for col in (x, y):
            mean, var = col.mean(), col.var()
            dev = (col - mean) ** 2
            moments.append((mean, var, var / len(col), dev.var() / len(col)))
        (m1, v1, sm1, sv1), (m2, v2, sm2, sv2) = moments
        assert abs(m1 - m2) <= sigmas * np.sqrt(sm1 + sm2)
        assert abs(v1 - v2) <= sigmas * np.sqrt(sv1 + sv2)


def test_random_access_counts_match_the_slot_level_reference(monkeypatch):
    rng = random.Random(29)
    # (set, gamma, reference runs, horizon); the K=14 set has L = 2^14
    cases = [
        (construct_si(["1/2"] * 14), 3, 12, 1),
        (construct_si(("0/1", "1/2", "1/1")), 1, 300, 2),
        (construct_si(("0/1", "1/3", "1/1", "2/3")), 2, 300, 1),
    ]
    for _ in range(8):
        trial = random_set(rng, rng.randint(2, 5), rng.randint(1, 9))
        cases.append((trial, rng.randint(1, trial.size - 1), 300, rng.randint(1, 3)))
    for trial, gamma, runs, horizon in cases:
        K, L = trial.size, trial.period
        seed = rng.randrange(99)
        expected = random_access_slot_oracle(
            trial, SimConfig(gamma=gamma, runs=runs, seed=seed, horizon=horizon,
                             scheme="random_access"))
        cfg = SimConfig(gamma=gamma, runs=10 * runs, seed=seed + 1, horizon=horizon,
                        scheme="random_access")
        calls = []
        real = simulator._generator
        with monkeypatch.context() as m:
            m.setattr(simulator, "_generator",
                      lambda s: _RecordingGenerator(real(s), calls))
            counts = simulator._random_access_counts(trial, cfg)
        # one draw of horizon * L slots per user and run, at the closed-form rates
        assert calls == [(horizon * L,
                          [float(r) for r in subset_sum_oracle(trial.duty_factors, gamma)],
                          (cfg.runs, K))]
        assert counts.shape == (cfg.runs, K) and counts.dtype == np.int64
        _assert_same_mean_and_variance(counts, expected)


def _counts_at_drawn_shifts(sset, cfg):
    """Per-run success counts by rotating the masks to the drawn shifts."""
    L = sset.period
    shifts = simulator._generator(cfg.seed).integers(0, L, size=(cfg.runs, sset.size))
    return shifts, [
        list(success_counts(
            [rotate_mask(m, int(t), L) for m, t in zip(sset.masks, row)], cfg.gamma, L
        ))
        for row in shifts
    ]


def test_protocol_counts_match_success_counts_at_the_drawn_shifts():
    rng = random.Random(17)
    # short periods, then word edges: one word, 63/64/65 bits, two words
    # and a partial third
    periods = [rng.randint(1, 9) for _ in range(30)] + [1, 63, 64, 65, 128, 129, 200]
    for L in periods:
        trial = random_set(rng, rng.randint(2, 5), L)
        K = trial.size
        gamma = rng.randint(1, K - 1)
        # 40 runs exceed every short period, so users redraw shifts
        runs = rng.choice((1, 3, 40)) if L < 10 else 300
        cfg = SimConfig(gamma=gamma, runs=runs, seed=rng.randrange(99))
        shifts, expected = _counts_at_drawn_shifts(trial, cfg)
        # the long runs read rows at every word boundary of the doubled mask
        assert L < 10 or set(range(0, L, 64)) <= set(shifts.flat)
        counts = simulator._protocol_counts(trial, cfg)
        assert counts.shape == (cfg.runs, K)
        assert counts.tolist() == expected


@pytest.mark.parametrize("batch_words", [1, 5, 13])
def test_protocol_counts_do_not_depend_on_the_batch(monkeypatch, batch_words):
    rng = random.Random(batch_words)
    for L in (7, 64, 129, 200):
        trial = random_set(rng, 4, L)
        cfg = SimConfig(gamma=rng.randint(1, 3), runs=23, seed=rng.randrange(99))
        whole = simulator._protocol_counts(trial, cfg)
        # down to one run per batch when one run holds more words than that
        with monkeypatch.context() as m:
            m.setattr(simulator, "_WORD_BATCH", batch_words)
            split = simulator._protocol_counts(trial, cfg)
        assert split.tolist() == whole.tolist() == _counts_at_drawn_shifts(trial, cfg)[1]


@pytest.mark.parametrize(
    "scheme, users, entries_per_run",
    [
        ("protocol_sequences", 3, 3),  # runs x K
        ("random_access", 3, 3),
        ("random_access", 14, 14),
    ],
)
def test_monte_carlo_refuses_oversized_run_arrays(monkeypatch, scheme, users,
                                                  entries_per_run):
    sset = construct_si(["1/2"] * users)
    monkeypatch.setattr(simulator, "MAX_ENTRIES", 2 * entries_per_run)
    run_monte_carlo(sset, SimConfig(gamma=1, runs=2, seed=0, scheme=scheme))
    with pytest.raises(BudgetExceededError):
        run_monte_carlo(sset, SimConfig(gamma=1, runs=3, seed=0, scheme=scheme))


def test_random_access_refuses_int64_overflowing_slot_totals(example_set):
    L = example_set.period
    top = (1 << 63) - 1

    def run(runs, horizon):
        cfg = SimConfig(gamma=1, runs=runs, seed=0, horizon=horizon,
                        scheme="random_access")
        return run_monte_carlo(example_set, cfg)

    # runs * horizon * L up to 2^63 - 1 are counted exactly in int64
    result = run(1, top // L)
    assert result.samples_per_run == top // L * L
    for stats in result.per_user:
        assert stats.minimum == stats.mean == stats.maximum
    with pytest.raises(BudgetExceededError, match="int64"):
        run(2, top // L)
    with pytest.raises(BudgetExceededError, match="int64"):
        run(3, 10**18)


def test_monte_carlo_refuses_huge_run_counts_up_front(example_set):
    for scheme in ("protocol_sequences", "random_access"):
        cfg = SimConfig(gamma=1, runs=10**10, seed=0, scheme=scheme)
        with pytest.raises(BudgetExceededError):
            run_monte_carlo(example_set, cfg)
    # run counts of more digits than an integer may print still refuse
    cfg = SimConfig(gamma=1, runs=10**4400, seed=0)
    message = r"^at least 2\*\*14616 runs need arrays of at least 2\*\*14618 entries, "
    with pytest.raises(BudgetExceededError, match=message + "the limit is 10000000$"):
        run_monte_carlo(example_set, cfg)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(gamma=0, runs=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(gamma=1, runs=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(gamma=1, runs=1, seed=0, horizon=0)
    with pytest.raises(ValueError):
        SimConfig(gamma=1, runs=1, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(gamma=1, runs=1, seed=0, scheme="csma")
    with pytest.raises(ValueError):
        run_monte_carlo(NOT_TI, SimConfig(gamma=2, runs=1, seed=0))


# ---------------------------------------------------------------------------
# erasure-threshold sessions


def test_code_spec_from_worked_example(example_set):
    spec2 = ErasureCodeSpec.from_set(example_set, 2)
    assert spec2.packets_per_period == (18, 9, 9)
    assert spec2.required_per_period == (16, 7, 7)
    spec1 = ErasureCodeSpec.from_set(example_set, 1)
    assert spec1.required_per_period == (8, 2, 2)


def test_code_spec_rejects_non_invariant_guarantee():
    with pytest.raises(SessionConfigError):
        ErasureCodeSpec.from_set(NOT_TI, 1)


def test_session_decodes_every_period(example_set):
    for gamma in (1, 2):
        spec = ErasureCodeSpec.from_set(example_set, gamma)
        report = run_session(example_set, gamma=gamma, periods=8, seed=123)
        assert report.all_decoded
        assert report.receiver_groups_consistent
        for u, outcomes in enumerate(report.per_user):
            assert len(outcomes) in (7, 8)
            for o in outcomes:
                assert o.sent == spec.packets_per_period[u]
                assert o.survived == spec.required_per_period[u]
                assert o.parity == o.period_index % 2
            assert report.success_rate(u + 1) == 1


def test_session_with_explicit_shifts(example_set):
    report = run_session(
        example_set, gamma=2, periods=4, shifts=(0, 5, 13), trust_ti=True
    )
    assert report.shifts == (0, 5, 13)
    assert report.seed is None
    assert report.all_decoded
    # user 1 sits at shift zero, so every one of the 4 periods is complete
    assert len(report.per_user[0]) == 4
    assert len(report.per_user[1]) == 3


def test_session_header_budget(example_set):
    report = run_session(example_set, gamma=1, periods=2, seed=1)
    assert report.header_bits == 3  # identity needs 2 bits for 3 users + parity


def test_session_rejects_non_ti_sets():
    with pytest.raises(SessionConfigError):
        run_session(NOT_TI, gamma=1, periods=2, seed=0)


def test_session_validation(example_set):
    with pytest.raises(ValueError):
        run_session(example_set, gamma=3, periods=2, seed=0)
    with pytest.raises(ValueError):
        run_session(example_set, gamma=1, periods=0, seed=0)
    with pytest.raises(ValueError):
        run_session(example_set, gamma=1, periods=2, seed=None)


def test_session_deterministic_per_seed(example_set):
    a = run_session(example_set, gamma=2, periods=5, seed=42)
    b = run_session(example_set, gamma=2, periods=5, seed=42)
    assert a == b


def _assert_matches_receive_chain(sset, gamma, periods, shifts):
    code = ErasureCodeSpec.from_set(sset, gamma)
    report = run_session(sset, gamma, periods, shifts=shifts, trust_ti=True)
    survivors, decoded, consistent = reference.session_receive(
        sset, gamma, periods, shifts, code.required_per_period
    )
    assert report.receiver_groups_consistent == consistent
    for u, outcomes in enumerate(report.per_user):
        first = 0 if shifts[u] == 0 else 1
        assert [o.period_index for o in outcomes] == list(range(first, periods))
        required = code.required_per_period[u]
        for o in outcomes:
            p = o.period_index
            assert o.user_id == u + 1 and o.parity == p % 2
            assert o.sent == code.packets_per_period[u]
            assert o.survived == survivors[u][p]
            assert o.success == (required == 0 or p in decoded[u])
    return report


def test_session_matches_slot_level_receive_chain():
    rng = random.Random(47)
    built = [
        construct_si(duty)
        for duty in (
            ("1/2", "1/3"),
            ("2/3", "1/3", "1/3"),
            ("1/2", "1/2", "1/3"),
            ("0/1", "1/2", "1/1"),
            ("1/2", "1/3", "1/2", "1/4"),
            ("1/2", "1/2", "1/2", "1/2", "1/3"),
        )
    ]
    trials = built + [
        random_set(rng, rng.randint(2, 5), rng.randint(1, 12)) for _ in range(150)
    ]
    sessions = failed = 0
    for trial in trials:
        K, L = trial.size, trial.period
        for gamma in range(1, K):
            try:
                ErasureCodeSpec.from_set(trial, gamma)
            except SessionConfigError:
                continue  # the closed form is not integral
            for periods in (1, 2, 3, 5, 8):
                shifts = tuple(rng.choice((0, rng.randrange(L))) for _ in range(K))
                report = _assert_matches_receive_chain(trial, gamma, periods, shifts)
                sessions += 1
                failed += not report.all_decoded
    # random sets run with trust_ti=True must include sessions that fail
    assert sessions > 300 and failed > 0


def test_session_scales_to_long_periods_and_many_periods():
    # K=6, L=30030: 1000 periods are 3*10^7 slots per user
    ladder = construct_si(("1/2", "2/3", "3/5", "1/7", "2/11", "7/13"))
    assert ladder.period == 30030
    report = run_session(ladder, gamma=3, periods=1000, seed=5, trust_ti=True)
    assert report.all_decoded
    for u, outcomes in enumerate(report.per_user):
        assert len(outcomes) in (999, 1000)
        for o in outcomes:
            assert o.survived == report.code.required_per_period[u]


def test_session_of_a_billion_periods_matches_the_summary(example_set):
    periods = 10**9
    report = run_session(example_set, gamma=1, periods=periods, seed=0, trust_ti=True)
    assert report.all_decoded
    for u, outcomes in enumerate(report.per_user):
        first = 0 if report.shifts[u] == 0 else 1
        assert len(outcomes) == periods - first
        assert (outcomes.first, outcomes.stop) == (first, periods)
        assert outcomes.survived == report.code.required_per_period[u]
        for p in (first, first + 1, periods // 2, periods - 1):
            o = outcomes[p - first]
            assert o == (u + 1, p, p % 2, outcomes.sent, outcomes.survived,
                         outcomes.success)
        assert outcomes[-1].period_index == periods - 1
        assert report.success_rate(u + 1) == 1


def test_session_refuses_period_counts_beyond_a_sequence_length(example_set):
    top = 2**63 - 1
    with pytest.raises(BudgetExceededError):
        run_session(example_set, gamma=1, periods=top + 1, seed=0, trust_ti=True)
    with pytest.raises(BudgetExceededError):
        run_session(example_set, gamma=1, periods=10**30, seed=0)
    # a count of more digits than an integer may print still refuses
    message = rf"^at least 2\*\*14616 periods exceed the limit of {top}$"
    with pytest.raises(BudgetExceededError, match=message):
        run_session(example_set, gamma=1, periods=10**4400, seed=0)
    report = run_session(example_set, gamma=1, periods=top, seed=0, trust_ti=True)
    assert {len(o) for o in report.per_user} <= {top, top - 1}
    assert all(o[-1].period_index == top - 1 for o in report.per_user)


@st.composite
def session_cases(draw):
    """A random set (K 2-5, L <= 12) with a capability whose closed form is
    integral, a period count in 1..50 and shifts, zero or not."""
    K = draw(st.integers(2, 5))
    L = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << L) - 1), min_size=K, max_size=K))
    sset = SequenceSet(tuple(BinarySequence.from_mask(m, L) for m in masks))
    codes = {}
    for gamma in range(1, K):
        try:
            codes[gamma] = ErasureCodeSpec.from_set(sset, gamma)
        except SessionConfigError:
            pass  # the closed form is not integral: no session exists
    assume(codes)
    gamma = draw(st.sampled_from(sorted(codes)))
    periods = draw(st.integers(1, 50))
    shifts = tuple(draw(st.lists(st.one_of(st.just(0), st.integers(0, L - 1)),
                                 min_size=K, max_size=K)))
    return sset, gamma, periods, shifts, codes[gamma]


@given(session_cases(), st.data())
def test_lazy_period_records_equal_the_eager_records(case, data):
    sset, gamma, periods, shifts, code = case
    report = run_session(sset, gamma, periods, shifts=shifts, trust_ti=True)
    eager = eager_session_records(sset, gamma, periods, shifts, code)
    for outcomes, records in zip(report.per_user, eager, strict=True):
        assert len(outcomes) == len(records)
        assert list(outcomes) == list(records)
        assert tuple(outcomes[i] for i in range(len(records))) == records
        assert tuple(outcomes[-i] for i in range(1, len(records) + 1)) == \
            tuple(records[-i] for i in range(1, len(records) + 1))
        for i in (len(records), -len(records) - 1):
            with pytest.raises(IndexError):
                outcomes[i]
        start = data.draw(st.integers(-60, 60))
        stop = data.draw(st.integers(-60, 60))
        step = data.draw(st.sampled_from([None, 1, 2, 3, -1, -2]))
        assert outcomes[start:stop:step] == records[start:stop:step]
        assert outcomes[:] == records
        assert all(type(o) is PeriodOutcome for o in outcomes)
    assert report.all_decoded == all(o.success for r in eager for o in r)
    for u, records in enumerate(eager, start=1):
        expected = (Fraction(sum(o.success for o in records), len(records))
                    if records else Fraction(1))
        assert report.success_rate(u) == expected


def test_session_with_one_period_and_a_shifted_user_judges_nothing(example_set):
    report = run_session(example_set, gamma=2, periods=1, shifts=(0, 4, 0),
                         trust_ti=True)
    empty = report.per_user[1]
    assert len(empty) == 0 and list(empty) == [] and empty[:] == ()
    with pytest.raises(IndexError):
        empty[0]
    assert len(report.per_user[0]) == 1
    assert report.success_rate(2) == 1 and report.all_decoded
    # user 3 fails at these shifts, but with one period it has nothing judged
    failing = SequenceSet.from_strings(["1100", "1100", "1111"])
    one = _assert_matches_receive_chain(failing, 1, 1, (0, 2, 1))
    assert one.all_decoded and one.success_rate(3) == 1
    assert not one.per_user[2].success
    two = _assert_matches_receive_chain(failing, 1, 2, (0, 2, 1))
    assert not two.all_decoded and two.success_rate(3) == 0


def test_session_reports_compare_by_summary_and_records_keep_their_repr(example_set):
    a = run_session(example_set, gamma=2, periods=5, seed=42)
    b = run_session(example_set, gamma=2, periods=5, seed=42)
    c = run_session(example_set, gamma=2, periods=6, seed=42)
    assert a == b and a != c
    assert hash(a.per_user[0]) == hash(b.per_user[0])
    record = PeriodOutcome(2, 3, 1, 9, 7, True)
    assert repr(record) == ("PeriodOutcome(user_id=2, period_index=3, parity=1, "
                            "sent=9, survived=7, success=True)")
    with pytest.raises(AttributeError):
        record.survived = 8
    with pytest.raises(AttributeError):
        a.per_user[0].survived = 8
