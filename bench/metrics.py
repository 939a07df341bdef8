"""Metric tables and the derivation of per-layer metrics from a traced run.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's metric catalogue;
BENCHMARK.json repeats their names, units and directions.  Each
per-layer entry also names the end-to-end metric and workload it should
move, so a later change to one layer can state its prediction by name.
A per-layer metric whose workload makes no such call reads 0.
"""

from __future__ import annotations

import random
import statistics
import time

from protoseq import analysis, construction, core

# name, unit, better, what it is
END_TO_END = (
    ("wall_s", "s", "lower", "median wall time of one untraced pass over the job list"),
    ("job_p50_ms", "ms", "lower", "median job latency, pooled over the run's passes"),
    ("job_p90_ms", "ms", "lower", "90th-percentile job latency, pooled over the run's passes"),
    ("setup_s", "s", "lower", "fresh interpreter to first timed job, median of fresh processes"),
    ("peak_rss_mib", "MiB", "lower", "peak resident memory of the process that ran the passes"),
)

#: Reported with the end-to-end metrics but carried in the result's
#: ``attempted``/``failed`` fields: it is 0 on a correct commit, and a
#: relative bound on a zero median means nothing.
FAILED_FRAC = ("failed_frac", "ratio", "lower", "jobs that raised or failed a check over jobs attempted")

# name, unit, better, the end-to-end metric it should move and on which workload
PER_LAYER = (
    ("core.masks.busy_s", "s", "lower", "wall_s, peak_rss_mib on build-parse; about 0 elsewhere"),
    ("core.masks.peak_mib", "MiB", "lower", "peak_rss_mib on build-parse"),
    ("core.parse.busy_s", "s", "lower", "wall_s on build-parse"),
    ("core.parse.mb_per_s", "MB/s", "higher", "wall_s on build-parse"),
    ("core.format.busy_s", "s", "lower", "wall_s on build-parse"),
    ("core.success_counts.us_per_call", "us", "lower",
     "job_p90_ms on verify-sweep, wall_s on simulate"),
    ("core.rotate_mask.us_per_call", "us", "lower", "job_p50_ms on verify-witness"),
    ("construction.construct_si.busy_s", "s", "lower", "wall_s, peak_rss_mib on build-parse"),
    ("construction.slots_per_s", "1/s", "higher", "wall_s on build-parse"),
    ("construction.construct_si.peak_mib", "MiB", "lower", "peak_rss_mib on build-parse"),
    ("analysis.is_ti.busy_s", "s", "lower",
     "wall_s, job_p90_ms on verify-sweep; job_p50_ms on verify-witness"),
    ("analysis.is_si.busy_s", "s", "lower",
     "wall_s, job_p90_ms on verify-sweep; job_p50_ms on verify-witness"),
    ("analysis.is_pairwise_si.busy_s", "s", "lower",
     "wall_s, job_p90_ms on verify-sweep; job_p50_ms on verify-witness"),
    ("analysis.configurations_checked", "count", "lower", "wall_s on verify-sweep"),
    ("analysis.configs_per_s", "1/s", "higher", "wall_s on verify-sweep"),
    ("analysis.early_exit_frac", "ratio", "lower", "job_p50_ms on verify-witness"),
    ("analysis.verify_witness.busy_s", "s", "lower", "wall_s on verify-witness"),
    ("analysis.search.busy_s", "s", "lower", "wall_s on verify-witness"),
    ("analysis.search.pairwise_hit_ratio", "ratio", "higher",
     "exact; must not change on verify-witness"),
    ("analysis.budget_refusal_ms", "ms", "lower", "job_p50_ms on verify-sweep"),
    ("throughput.ti_throughput.busy_s", "s", "lower", "job_p50_ms on verify-sweep"),
    ("throughput.consistency_check.busy_s", "s", "lower", "wall_s on verify-sweep"),
    ("throughput.optimal_duty.busy_s", "s", "lower", "wall_s on build-parse"),
    ("simulator.mc_protocol.runs_per_s", "1/s", "higher", "wall_s on simulate"),
    ("simulator.mc_random_joint.slots_per_s", "1/s", "higher", "wall_s on simulate"),
    ("simulator.mc_random_fallback.slots_per_s", "1/s", "higher", "wall_s on simulate"),
    ("simulator.session.p10.busy_s", "s", "lower", "job_p90_ms, wall_s on simulate"),
    ("simulator.session.p100.busy_s", "s", "lower", "job_p90_ms, wall_s on simulate"),
    ("simulator.session.p1000.busy_s", "s", "lower", "job_p90_ms, wall_s on simulate"),
    ("simulator.session.scaling_1000_over_100", "ratio", "lower",
     "job_p90_ms, wall_s on simulate; about 10 means linear"),
    ("simulator.session.decoded_frac", "ratio", "higher",
     "failed_frac on simulate; must stay 1"),
    ("cli.example.busy_s", "s", "lower", "wall_s on build-parse"),
    ("cli.construct.busy_s", "s", "lower", "wall_s on build-parse"),
    ("cli.bound.busy_s", "s", "lower", "wall_s on build-parse"),
    ("cli.output_bytes", "count", "lower", "wall_s on build-parse; exact"),
    ("trace.overhead_frac", "ratio", "lower",
     "traced over untraced wall_s of the same run, minus 1"),
)

#: Calls whose heap peak the memory pass records.
PEAK_CALLS = {
    "core.masks.peak_mib": "core.SequenceSet.masks",
    "construction.construct_si.peak_mib": "construction.construct_si",
}

# per-layer busy time: metric name -> (span name, tag)
_BUSY = {
    "core.masks.busy_s": ("core.SequenceSet.masks", None),
    "core.parse.busy_s": ("core.parse_sequence_set", None),
    "core.format.busy_s": ("core.format_sequence_set", None),
    "construction.construct_si.busy_s": ("construction.construct_si", None),
    "analysis.is_ti.busy_s": ("analysis.is_ti", None),
    "analysis.is_si.busy_s": ("analysis.is_si", None),
    "analysis.is_pairwise_si.busy_s": ("analysis.is_pairwise_si", None),
    "analysis.verify_witness.busy_s": ("analysis.verify_witness", None),
    "analysis.search.busy_s": ("analysis.find_pairwise_si_not_si", None),
    "throughput.ti_throughput.busy_s": ("throughput.ti_throughput", None),
    "throughput.consistency_check.busy_s": ("throughput.consistency_check", None),
    "throughput.optimal_duty.busy_s": ("throughput.optimal_duty", None),
    "simulator.session.p10.busy_s": ("simulator.run_session", "p10"),
    "simulator.session.p100.busy_s": ("simulator.run_session", "p100"),
    "simulator.session.p1000.busy_s": ("simulator.run_session", "p1000"),
    "cli.example.busy_s": ("cli.main", "example"),
    "cli.construct.busy_s": ("cli.main", "construct"),
    "cli.bound.busy_s": ("cli.main", "bound"),
}

# per-layer rate: metric name -> (count key, span name, tag, scale)
_RATES = {
    "core.parse.mb_per_s": ("core.parse.bytes", "core.parse_sequence_set", None, 1e-6),
    "construction.slots_per_s": ("construction.slots", "construction.construct_si", None, 1.0),
    "simulator.mc_protocol.runs_per_s": (
        "simulator.mc_protocol.runs", "simulator.run_monte_carlo", "protocol", 1.0),
    "simulator.mc_random_joint.slots_per_s": (
        "simulator.mc_random_joint.slots", "simulator.run_monte_carlo", "random_joint", 1.0),
    "simulator.mc_random_fallback.slots_per_s": (
        "simulator.mc_random_fallback.slots", "simulator.run_monte_carlo", "random_fallback",
        1.0),
}

_VERDICT_SPANS = ("analysis.is_ti", "analysis.is_si", "analysis.is_pairwise_si")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, peak_bytes: dict, probes: dict, overhead: float) -> dict:
    """Per-layer values from the spans and counts of the traced passes.

    Busy times and counts are per pass (median over traced passes); rates
    and ratios divide totals over all traced passes.
    """
    passes = len(tracer.counts)
    own = tracer.self_times()
    per_pass: dict = {}  # (name, tag) -> [self ns per pass]
    calls: dict = {}  # (name, tag) -> [durations ns]
    refusals = []
    for span, self_ns in zip(tracer.spans, own):
        key = (span.name, span.tag)
        per_pass.setdefault(key, [0] * passes)[span.pass_index] += self_ns
        calls.setdefault(key, []).append(span.end_ns - span.start_ns)
        if span.error == "BudgetExceededError":
            refusals.append(span.end_ns - span.start_ns)

    def busy(key) -> float:
        return statistics.median(per_pass.get(key, [0])) / 1e9

    def total_s(key) -> float:
        return sum(calls.get(key, [])) / 1e9

    def per_call_s(key) -> float:
        return _ratio(total_s(key), len(calls.get(key, [])))

    def count(key) -> float:
        return statistics.median(c[key] for c in tracer.counts)

    def total(key) -> int:
        return sum(c[key] for c in tracer.counts)

    out = {name: busy(key) for name, key in _BUSY.items()}
    for name, (ckey, span, tag, scale) in _RATES.items():
        out[name] = _ratio(total(ckey) * scale, total_s((span, tag)))
    for name, span in PEAK_CALLS.items():
        out[name] = peak_bytes.get(span, 0) / 2**20
    out.update(probes)
    out["analysis.configurations_checked"] = count("analysis.configurations_checked")
    out["analysis.configs_per_s"] = _ratio(
        total("analysis.configurations_checked"),
        sum(total_s((s, None)) for s in _VERDICT_SPANS))
    out["analysis.early_exit_frac"] = _ratio(
        total("analysis.negative_checked"), total("analysis.negative_nominal"))
    out["analysis.search.pairwise_hit_ratio"] = _ratio(
        total("analysis.search.pairwise_found"), total("analysis.search.candidates"))
    out["analysis.budget_refusal_ms"] = (
        statistics.median(refusals) / 1e6 if refusals else 0.0)
    out["simulator.session.scaling_1000_over_100"] = _ratio(
        per_call_s(("simulator.run_session", "p1000")),
        per_call_s(("simulator.run_session", "p100")))
    out["simulator.session.decoded_frac"] = _ratio(
        total("simulator.session.decoded"), total("simulator.session.periods"))
    out["cli.output_bytes"] = count("cli.output_bytes")
    out["trace.overhead_frac"] = overhead
    return out


# ---------------------------------------------------------------------------
# primitive probes on fixed mask batches (traced run only)

_PROBE_REPEATS = 7


def _us_per_call(fn, batch) -> float:
    """Median over repeats of the mean time of one call across the batch."""
    samples = []
    for _ in range(_PROBE_REPEATS):
        start = time.perf_counter_ns()
        for args in batch:
            fn(*args)
        samples.append((time.perf_counter_ns() - start) / len(batch) / 1e3)
    return statistics.median(samples)


def probe_primitives() -> dict:
    """Per-call cost of the two hot bitmask primitives on fixed inputs."""
    rng = random.Random(20261017)
    sset = construction.construct_si(("1/2", "1/2", "1/3", "1/5"))
    L = sset.period
    success_batch = []
    for _ in range(2000):
        masks = [core.rotate_mask(m, rng.randrange(L), L) for m in sset.masks]
        success_batch.append((masks, rng.randint(1, 3), L))
    rotate_batch = []
    for _ in range(5000):
        L = rng.randint(2, 16)
        rotate_batch.append((rng.getrandbits(L), rng.randrange(L), L))
    return {
        "core.success_counts.us_per_call": _us_per_call(analysis.success_counts, success_batch),
        "core.rotate_mask.us_per_call": _us_per_call(core.rotate_mask, rotate_batch),
    }
