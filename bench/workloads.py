"""Job lists of the four benchmark workloads.

A job is one generated input plus its pipeline of calls into protoseq
and the exact checks on what those calls return.  ``Job.run(tracer)``
makes the calls through the tracer, raises ``CheckFailed`` when a result
is wrong, and returns a fingerprint of its results.  The harness fails
the job when the fingerprint differs from a pinned ``expect`` value, or
from the fingerprint the same job returned in the run's first pass, so
every job is also a seeded-rerun determinism check.

Each builder takes a ``random.Random`` seeded from the workload seed and
draws only things that leave the amount of work nearly unchanged (fill
seeds, random sets drawn by the thousand, shifts, Monte-Carlo seeds, job
order), so timings from different seeds are comparable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from protoseq import (
    analysis,
    cli,
    construction,
    core,
    reference,
    simulator,
    throughput,
)


class CheckFailed(Exception):
    """A call returned a result that its exact check rejects."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    run: Callable
    expect: object = None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _materialize(sset: core.SequenceSet) -> core.SequenceSet:
    sset.masks  # build the cached masks during set-up, not in a timed job
    return sset


# ---------------------------------------------------------------------------
# verdict checks shared by the two verification workloads


def _count_verdict(tr, verdict, nominal: int) -> None:
    tr.count("analysis.configurations_checked", verdict.configurations_checked)
    if not verdict.holds:
        tr.count("analysis.negative_checked", verdict.configurations_checked)
        tr.count("analysis.negative_nominal", nominal)


def _si_nominal(K: int, L: int, sizes) -> int:
    """Configurations a complete SI-style scan over tuple sizes checks."""
    return sum(comb(K, m) * L ** (m - 1) for m in sizes)


def _fingerprint(verdict) -> tuple:
    return (verdict.prop, verdict.gamma, verdict.holds,
            verdict.configurations_checked)


def _reference_value(sset, verdict, shifts):
    """Witness value recomputed slot by slot by ``protoseq.reference``."""
    w = verdict.witness
    if verdict.prop == "TI":
        return reference.throughput_at(sset, shifts, verdict.gamma)[w.users[0] - 1]
    return reference.hamming_cross_correlation(sset, w.users, shifts)


def _check_verdict(tr, sset, verdict, nominal: int) -> None:
    """A negative verdict's witness re-checks through ``verify_witness`` and
    through the slot-by-slot reference; a positive one covered every
    configuration.  Validity, not identity: any valid witness passes."""
    label = f"{verdict.prop} gamma={verdict.gamma}"
    if verdict.holds:
        check(verdict.witness is None, f"{label}: positive verdict with witness")
        check(verdict.configurations_checked == nominal,
              f"{label}: checked {verdict.configurations_checked} of {nominal}")
        return
    w = verdict.witness
    check(w is not None, f"{label}: negative verdict without witness")
    check(tr.call("analysis.verify_witness", analysis.verify_witness, sset, verdict),
          f"{label}: verify_witness rejects the witness")
    va = _reference_value(sset, verdict, w.shifts_a)
    vb = _reference_value(sset, verdict, w.shifts_b)
    check(va == w.value_a and vb == w.value_b and va != vb,
          f"{label}: reference does not reproduce the witness")


# ---------------------------------------------------------------------------
# verify-sweep: exhaustive verdicts on built SI sets

#: The acceptance duty corpus, plus K=4 lists whose L^(K-1) sweeps dominate.
SWEEP_CORPUS = (
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
    ("1/2", "1/2", "1/2", "1/3"),
    ("2/3", "1/2", "1/3", "1/2"),
    ("1/2", "1/2", "1/3", "1/5"),
)

#: Lists above the default budget are refused; K=4, L=60 is within it but
#: one of its sweeps would dominate a pass, so it is refused at a budget
#: just below its cost instead.
_TIGHT_BUDGET_PERIOD = 60


def _ti_job(duty, sset, gamma) -> Job:
    K, L = sset.size, sset.period

    def run(tr):
        verdict = tr.call("analysis.is_ti", analysis.is_ti, sset, gamma)
        _count_verdict(tr, verdict, L ** (K - 1))
        check(verdict.holds, f"built set {duty} not TI at gamma={gamma}")
        _check_verdict(tr, sset, verdict, L ** (K - 1))
        at_zero = tr.call("analysis.throughput_at", analysis.throughput_at,
                          sset, (0,) * K, gamma)
        closed = tr.call("throughput.ti_throughput", throughput.ti_throughput,
                         duty, gamma).per_user
        check(at_zero == closed, f"{duty} gamma={gamma}: closed form differs")
        return _fingerprint(verdict), closed

    return Job("ti", run)


def _si_job(duty, sset) -> Job:
    K, L = sset.size, sset.period

    def run(tr):
        si = tr.call("analysis.is_si", analysis.is_si, sset)
        _count_verdict(tr, si, _si_nominal(K, L, range(1, K + 1)))
        check(si.holds, f"built set {duty} not SI")
        _check_verdict(tr, sset, si, _si_nominal(K, L, range(1, K + 1)))
        pw = tr.call("analysis.is_pairwise_si", analysis.is_pairwise_si, sset)
        nominal = _si_nominal(K, L, [2] if K >= 2 else [])
        _count_verdict(tr, pw, nominal)
        check(pw.holds, f"built set {duty} not pairwise SI")
        _check_verdict(tr, sset, pw, nominal)
        return _fingerprint(si), _fingerprint(pw)

    return Job("si", run)


def _consistency_job(duty, gamma) -> Job:
    def run(tr):
        ok = tr.call("throughput.consistency_check", throughput.consistency_check,
                     duty, gamma)
        check(ok is True, f"{duty} gamma={gamma}: consistency_check failed")
        return ok

    return Job("consistency", run)


def _refusal_job(duty, sset, budget) -> Job:
    """Every verdict whose sweep would cost more than ``budget`` must raise."""
    K, L = sset.size, sset.period
    calls = [
        ("analysis.is_ti", analysis.is_ti, (sset, 1)),
        ("throughput.consistency_check", throughput.consistency_check, (duty, 1)),
    ]
    if sum(comb(K, m) * L ** m for m in range(1, K + 1)) > budget:
        calls.append(("analysis.is_si", analysis.is_si, (sset,)))

    def run(tr):
        for name, fn, args in calls:
            try:
                tr.call(name, fn, *args, budget=budget)
            except core.BudgetExceededError:
                continue
            raise CheckFailed(f"{name} on {duty} ran past budget {budget}")
        return len(calls)

    return Job("refusal", run)


def verify_sweep(rng: random.Random, tiny: bool, out_dir: Path) -> list[Job]:
    jobs = []
    budget = analysis.DEFAULT_BUDGET
    corpus = SWEEP_CORPUS[:9] + SWEEP_CORPUS[10:11] if tiny else SWEEP_CORPUS
    for spec in corpus:
        duty = construction.as_duty_factors(spec)
        sset = _materialize(
            construction.construct_si(duty, fill="random", seed=rng.getrandbits(32))
        )
        K, L = sset.size, sset.period
        if L ** (K - 1) * K * L > budget:
            jobs.append(_refusal_job(duty, sset, budget))
            continue
        if L == _TIGHT_BUDGET_PERIOD:
            jobs.append(_refusal_job(duty, sset, L ** (K - 1)))
            continue
        for gamma in range(1, K):
            jobs.append(_ti_job(duty, sset, gamma))
            jobs.append(_consistency_job(duty, gamma))
        jobs.append(_si_job(duty, sset))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verify-witness: seeded random sets, mostly not TI or SI

#: Every (K, L) with K in 2..5, L in 2..16 and a nominal TI sweep L^(K-1)
#: of at most 4096 configurations, so a rare invariant draw cannot
#: dominate.  Each shape gets the same number of sets; only the bits are
#: drawn from the seed, which keeps the work nearly seed-independent.
WITNESS_SHAPES = tuple((K, L) for K in range(2, 6) for L in range(2, 17)
                       if L ** (K - 1) <= 4096)
SETS_PER_SHAPE = 23
SEARCH_JOBS = 24
SEARCH_CANDIDATES = 5000


def _random_set(rng: random.Random, K: int, L: int) -> core.SequenceSet:
    rows = tuple(
        core.BinarySequence(tuple(rng.randint(0, 1) for _ in range(L)))
        for _ in range(K)
    )
    return _materialize(core.SequenceSet(rows))


def _witness_job(sset) -> Job:
    K, L = sset.size, sset.period

    def run(tr):
        prints = []
        for gamma in range(1, K):
            verdict = tr.call("analysis.is_ti", analysis.is_ti, sset, gamma)
            _count_verdict(tr, verdict, L ** (K - 1))
            _check_verdict(tr, sset, verdict, L ** (K - 1))
            prints.append(_fingerprint(verdict))
        si = tr.call("analysis.is_si", analysis.is_si, sset)
        _count_verdict(tr, si, _si_nominal(K, L, range(1, K + 1)))
        _check_verdict(tr, sset, si, _si_nominal(K, L, range(1, K + 1)))
        pw = tr.call("analysis.is_pairwise_si", analysis.is_pairwise_si, sset)
        _count_verdict(tr, pw, _si_nominal(K, L, [2]))
        _check_verdict(tr, sset, pw, _si_nominal(K, L, [2]))
        check(pw.holds or not si.holds, "SI set is not pairwise SI")
        return tuple(prints), _fingerprint(si), _fingerprint(pw)

    return Job("witness", run)


def _search_job(seed: int) -> Job:
    def run(tr):
        result = tr.call("analysis.find_pairwise_si_not_si",
                         analysis.find_pairwise_si_not_si, SEARCH_CANDIDATES, seed)
        tr.count("analysis.search.candidates", result.candidates_tried)
        tr.count("analysis.search.pairwise_found", result.pairwise_si_found)
        check(result.candidates_tried == SEARCH_CANDIDATES, "search skipped candidates")
        check(len(result.hits) <= result.pairwise_si_found, "more hits than pairwise finds")
        for hit in result.hits:
            check(tr.call("analysis.is_pairwise_si", analysis.is_pairwise_si, hit).holds
                  and not tr.call("analysis.is_si", analysis.is_si, hit).holds,
                  "search hit is not pairwise-SI-but-not-SI")
        return result.pairwise_si_found, len(result.hits)

    return Job("search", run)


def verify_witness(rng: random.Random, tiny: bool, out_dir: Path) -> list[Job]:
    per_shape, n_search = (1, 2) if tiny else (SETS_PER_SHAPE, SEARCH_JOBS)
    jobs = [_witness_job(_random_set(rng, K, L))
            for K, L in WITNESS_SHAPES for _ in range(per_shape)]
    jobs += [_search_job(rng.getrandbits(32)) for _ in range(n_search)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# build-parse: construction, masks, format and parse up a period ladder

PRIMES = (2, 3, 5, 7, 11, 13, 17)

#: Fixed ladder lists (fill="left") with the SHA-256 of their text format.
#: The top rung is L = 510510 = 2*3*5*7*11*13*17.
PINNED_LADDER = {
    ("1/2", "2/3"): "ea1fcd3560f0c005309bdd61090f59923819b64d818b4c25e6598e5013a32f88",
    ("1/2", "1/3", "3/5"): "7ce7cfe8d721bf8ef5cff079fb7b96f7a4d157361d3dfdd3d1274013318c64dd",
    ("1/2", "2/3", "1/5", "4/7"): "f99e061576cac2d1675e8a8bf5457546414e7146846615f09863f8a059a512c9",
    ("1/2", "1/3", "2/5", "3/7", "5/11"):
        "66f73236e902672a1a611ecc26f9246e0d33fe32a64dadb33b2711e235059276",
    ("1/2", "2/3", "3/5", "1/7", "2/11", "7/13"):
        "e1d7bf5fd7d2096575efefa7e4679afb1c3f1e1a9aba1937a20830cb1f71c216",
    ("1/2", "1/3", "2/5", "1/7", "3/11", "1/13", "2/17"):
        "65bb2353e37d9d561a55d5adf9e09bdac9f7afc2250f173db6c258fcdf34ccef",
}
TOP_RUNG = tuple(PINNED_LADDER)[-1]

#: SHA-256 of the stdout of ``protoseq example``.
EXAMPLE_DIGEST = "a8fbd409a8d835e5c8d0edba52cf94dc3217258fa43b5f336844af48f805e4c3"

#: Numerator patterns per ladder rung below the top; each is built with
#: both fills.  They are fixed, so the work does not depend on the seed.
PATTERNS_PER_RUNG = 4
OPTIMAL_DUTY_CASES = ((2, 1), (3, 1), (4, 2), (5, 2), (8, 1), (8, 3), (12, 4), (20, 1))


def _build_job(duty, fill: str, seed, pinned: str | None) -> Job:
    K = len(duty)
    bound = math.prod(f.denominator for f in duty)
    gamma = max(1, K // 2)

    def run(tr):
        sset = tr.call("construction.construct_si", construction.construct_si,
                       duty, fill, seed)
        tr.count("construction.slots", K * sset.period)
        check(sset.period == bound == tr.call("construction.min_period_bound",
                                               construction.min_period_bound, duty),
              f"{duty}: period is not the product of denominators")
        check(sset.duty_factors == duty, f"{duty}: duty factors not realized")
        masks = tr.call("core.SequenceSet.masks", getattr, sset, "masks")
        text = tr.call("core.format_sequence_set", core.format_sequence_set, sset)
        tr.count("core.parse.bytes", len(text))
        parsed = tr.call("core.parse_sequence_set", core.parse_sequence_set, text)
        check(tr.call("core.SequenceSet.masks", getattr, parsed, "masks") == masks,
              f"{duty}: parsed masks differ from built masks")
        at_zero = tr.call("analysis.throughput_at", analysis.throughput_at,
                          sset, (0,) * K, gamma)
        closed = tr.call("throughput.ti_throughput", throughput.ti_throughput,
                         duty, gamma).per_user
        check(at_zero == closed, f"{duty}: closed form differs at zero shifts")
        return _digest(text)

    return Job(f"build-{fill}", run, pinned)


def _optimal_duty_job(users: int, gamma: int) -> Job:
    def run(tr):
        r = tr.call("throughput.optimal_duty", throughput.optimal_duty, users, gamma)
        check(0 <= r.f_star <= 1, "f* outside [0, 1]")
        check(r.rational_value == throughput.symmetric_throughput(
            r.rational_f, users, gamma), "rational value is not the exact throughput")
        if gamma == 1:
            check(abs(r.f_star - 1 / users) <= 2 * r.resolution,
                  f"gamma=1 optimum {r.f_star} is not 1/{users}")
        return r.f_star, r.value, r.rational_f, r.rational_value

    return Job("optimal-duty", run)


def _run_cli(tr, name: str, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.call(f"cli.main/{name}", cli.main, argv)
    check(code == 0, f"protoseq {name} exited {code}: {err.getvalue().strip()}")
    tr.count("cli.output_bytes", len(out.getvalue().encode()))
    return out.getvalue()


def _cli_example_job() -> Job:
    return Job("cli-example", lambda tr: _digest(_run_cli(tr, "example", ["example"])),
               EXAMPLE_DIGEST)


def _cli_construct_job(spec, out_path: Path) -> Job:
    def run(tr):
        check(_run_cli(tr, "construct", ["construct", "--duty", ",".join(spec),
                                         "--out", str(out_path)]) == "",
              "construct --out wrote to stdout")
        text = out_path.read_text(encoding="ascii")
        tr.count("cli.output_bytes", len(text))
        return _digest(text)

    return Job("cli-construct", run, PINNED_LADDER[spec])


def _cli_bound_job(spec) -> Job:
    def run(tr):
        report = json.loads(_run_cli(tr, "bound", ["bound", "--duty", ",".join(spec)]))
        check(report["period_bound"] == math.prod(Fraction(f).denominator for f in spec),
              "bound is not the product of denominators")
        check(len(report["subset_divisors"]) == 2 ** len(spec) - 1,
              "bound does not list every subset")
        return report["period_bound"]

    return Job("cli-bound", run)


def _cli_throughput_job(spec, gamma: int) -> Job:
    def run(tr):
        report = json.loads(_run_cli(tr, "throughput", [
            "throughput", "--duty", ",".join(spec), "--gamma", str(gamma)]))
        values = tuple(Fraction(r["num"], r["den"]) for r in report["per_user"])
        closed = tr.call("throughput.ti_throughput", throughput.ti_throughput,
                         spec, gamma).per_user
        check(values == closed, "CLI throughput differs from ti_throughput")
        return values

    return Job("cli-throughput", run)


def _pattern_duty(pattern: int, primes) -> tuple[Fraction, ...]:
    """Numerators spread over [1, p - 1], different for each pattern."""
    return tuple(Fraction(1 + (pattern + 2 * i) % (p - 1), p)
                 for i, p in enumerate(primes))


def build_parse(rng: random.Random, tiny: bool, out_dir: Path) -> list[Job]:
    top = 4 if tiny else len(PRIMES)
    jobs = []
    for spec, pinned in PINNED_LADDER.items():
        if len(spec) <= top:
            jobs.append(_build_job(construction.as_duty_factors(spec), "left", None, pinned))
    for k in range(2, min(top, 6) + 1):
        for pattern in range(1 if tiny else PATTERNS_PER_RUNG):
            duty = _pattern_duty(pattern + 1, PRIMES[:k])
            jobs.append(_build_job(duty, "left", None, None))
            jobs.append(_build_job(duty, "random", rng.getrandbits(32), None))
    jobs += [_optimal_duty_job(k, g) for k, g in OPTIMAL_DUTY_CASES]
    small, mid = list(PINNED_LADDER)[3:5]
    jobs += [
        _cli_example_job(),
        _cli_construct_job(small, out_dir / "construct-small.txt"),
        _cli_construct_job(mid, out_dir / "construct-mid.txt"),
        _cli_bound_job(TOP_RUNG),
        _cli_throughput_job(TOP_RUNG, 3),
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# simulate: Monte-Carlo shift experiments and session decoding

WORKED = ("2/3", "1/3", "1/3")
PROTOCOL_SETS = (WORKED, ("1/2", "1/3", "1/5"), ("1/4",) * 4, ("1/2",) * 5)
PROTOCOL_RUNS = 2000
JOINT_CASES = ((("1/2", "1/3", "1/5"), 1), (("1/2", "1/3", "1/5"), 2),
               (("1/4",) * 4, 2), (("1/2",) * 5, 2))
JOINT_RUNS, JOINT_HORIZON = 500, 100
#: K=14 is above the joint sampler's 12-user limit, so it takes the fallback.
FALLBACK_SET = ("1/2",) * 14
FALLBACK_CASES = (4, 7)
FALLBACK_RUNS, FALLBACK_HORIZON = 20, 1
#: (periods, sessions per pass); the sessions alternate trust_ti and the TI
#: pre-check.  With these counts the pass's median job is a Monte-Carlo
#: protocol run and its 90th-percentile job a 1000-period session, not a
#: boundary between two kinds of job, so neither percentile jumps between
#: runs.
SESSION_PLAN = ((10, 10), (100, 4), (1000, 4))
#: A statistical check: the sample mean lies within this many standard errors.
MEAN_SIGMAS = 6


def _protocol_job(sset, gamma: int, seed: int) -> Job:
    cfg = simulator.SimConfig(gamma=gamma, runs=PROTOCOL_RUNS, seed=seed)

    def run(tr):
        result = tr.call("simulator.run_monte_carlo/protocol",
                         simulator.run_monte_carlo, sset, cfg)
        tr.count("simulator.mc_protocol.runs", cfg.runs)
        closed = tr.call("throughput.ti_throughput", throughput.ti_throughput,
                         sset.duty_factors, gamma).per_user
        for u, c in zip(result.per_user, closed):
            check(u.minimum == u.mean == u.maximum == c,
                  f"protocol throughput spread or off the closed form at gamma={gamma}")
        return result.per_user

    return Job("mc-protocol", run)


def _random_access_job(sset, gamma: int, seed: int, runs: int, horizon: int,
                       tag: str) -> Job:
    cfg = simulator.SimConfig(gamma=gamma, runs=runs, seed=seed, horizon=horizon,
                              scheme="random_access")
    samples = runs * horizon * sset.period

    def run(tr):
        result = tr.call(f"simulator.run_monte_carlo/{tag}",
                         simulator.run_monte_carlo, sset, cfg)
        tr.count(f"simulator.mc_{tag}.slots", samples)
        closed = tr.call("throughput.ti_throughput", throughput.ti_throughput,
                         sset.duty_factors, gamma).per_user
        for u, p in zip(result.per_user, closed):
            check(u.minimum <= u.mean <= u.maximum, "random-access stats out of order")
            err = MEAN_SIGMAS * math.sqrt(float(p * (1 - p)) / samples)
            check(abs(float(u.mean - p)) <= err,
                  f"random-access mean {float(u.mean)} far from {float(p)}")
        return result.per_user

    return Job(f"mc-{tag}", run)


def _session_job(sset, periods: int, gamma: int, trust_ti: bool, seed: int) -> Job:
    L = sset.period

    def run(tr):
        report = tr.call(f"simulator.run_session/p{periods}", simulator.run_session,
                         sset, gamma, periods, seed, trust_ti=trust_ti)
        closed = tr.call("throughput.ti_throughput", throughput.ti_throughput,
                         sset.duty_factors, gamma).per_user
        required = tuple(int(r * L) for r in closed)
        check(report.code.required_per_period == required, "survivor requirement")
        outcomes = [o for user in report.per_user for o in user]
        tr.count("simulator.session.periods", len(outcomes))
        tr.count("simulator.session.decoded", sum(o.success for o in outcomes))
        check(report.all_decoded, f"session p{periods} seed={seed}: a period failed")
        check(report.receiver_groups_consistent, "receiver grouping mixed periods")
        check(all(o.survived >= required[o.user_id - 1] for o in outcomes),
              "fewer survivors than guaranteed")
        return report.shifts, tuple((o.survived, o.success) for o in outcomes)

    return Job(f"session-p{periods}", run)


def simulate(rng: random.Random, tiny: bool, out_dir: Path) -> list[Job]:
    def built(spec):
        return _materialize(construction.construct_si(spec))

    jobs = []
    for spec in PROTOCOL_SETS[:2] if tiny else PROTOCOL_SETS:
        sset = built(spec)
        jobs += [_protocol_job(sset, g, rng.getrandbits(32)) for g in range(1, sset.size)]
    for spec, gamma in JOINT_CASES[:1] if tiny else JOINT_CASES:
        jobs.append(_random_access_job(built(spec), gamma, rng.getrandbits(32),
                                       JOINT_RUNS, JOINT_HORIZON, "random_joint"))
    big = built(FALLBACK_SET)
    for gamma in FALLBACK_CASES[:1] if tiny else FALLBACK_CASES:
        jobs.append(_random_access_job(big, gamma, rng.getrandbits(32), FALLBACK_RUNS,
                                       FALLBACK_HORIZON, "random_fallback"))
    worked = built(WORKED)
    for periods, count in SESSION_PLAN:
        for i in range(1 if tiny else count):
            trust = i % 2 == 0
            jobs.append(_session_job(worked, periods, 1 if trust else 2, trust,
                                     rng.getrandbits(32)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "verify-witness": verify_witness,
    "build-parse": build_parse,
    "simulate": simulate,
}
