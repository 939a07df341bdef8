"""protoseq benchmark: one workload per invocation, checked exactly.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

The workload's job list is generated from ``--seed``.  With ``--trace 0``
the run times five fresh set-up processes and then untraced passes over
the job list for ``--seconds``, and reports the end-to-end metrics in
reference seconds (see ``Clock``; the times as measured are printed
too); with ``--trace 1`` it times untraced and traced passes (half the
time each), one heap-peak pass and two primitive probes, and reports the
per-layer metrics.  Load comes from this one process and thread;
numpy/BLAS threads are capped at 1.
``--workload all`` runs every workload one after another, each in a
fresh process.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Spans and a full result record (environment, job counts, failures) are
written to ``.bench_out/`` in the checkout.  The program is imported
from ``src/`` of the checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import array
import bisect
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("verify-sweep", "verify-witness", "build-parse", "simulate")
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 180


def _import_program():
    """Import protoseq from this checkout's ``src/``, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "protoseq" / "__init__.py").is_file():
        print(f"error: no protoseq sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import protoseq

    if Path(protoseq.__file__).resolve().parent != (src / "protoseq").resolve():
        print(f"error: imported protoseq from {protoseq.__file__}", file=sys.stderr)
        sys.exit(2)
    return protoseq


def _build_jobs(workload: str, seed: int, tiny: bool):
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return workloads.WORKLOADS[workload](rng, tiny, OUT_DIR)


# ---------------------------------------------------------------------------
# machine-speed calibration

#: On a shared machine the speed of the same code drifts by up to a
#: factor of two over tens of seconds, longer than a run, so raw times of
#: runs with different seeds spread by a quarter or more.  Every timing is
#: therefore scaled to a reference speed: a fixed calibration kernel runs
#: between jobs and between a job's calls into protoseq, at least every
#: CALIBRATE_EVERY_NS, and each stretch of job time between two
#: calibrations is multiplied by REFERENCE_CALIBRATION_NS over their
#: (smoothed) kernel time.  Calibration time is in no job's time.  The
#: times as measured are recorded next to the scaled ones.
CALIBRATE_EVERY_NS = 250_000_000
REFERENCE_CALIBRATION_NS = 3_500_000


def _mix(a: int, b: int) -> int:
    return (a ^ b) & 1023


def _calibration_kernel() -> None:
    """Function calls and small-dict updates, then bit-by-bit OR into a
    32 KiB integer: of the kernels tried, this mix tracked the drift of
    both the interpreter-bound and the big-integer jobs most closely."""
    table: dict = {}
    for i in range(4000):
        table[i & 255] = _mix(i, table.get((i * 7) & 255, 0))
    acc = 0
    for t in range(0, 262144, 193):
        acc |= 1 << t


class Clock:
    """Calibration samples of one run, and time scaled by them."""

    def __init__(self):
        self.ends: list[int] = []  # perf_counter_ns when each calibration ended
        self.durations: list[int] = []
        self.calibrate()

    def calibrate(self) -> int:
        start = time.perf_counter_ns()
        _calibration_kernel()
        self.ends.append(time.perf_counter_ns())
        self.durations.append(self.ends[-1] - start)
        return self.durations[-1]

    def tick(self) -> None:
        """Calibrate if the last calibration is due for renewal."""
        if time.perf_counter_ns() - self.ends[-1] >= CALIBRATE_EVERY_NS:
            self.calibrate()

    def measure(self, t0: int, t1: int) -> tuple[float, float]:
        """Seconds in [t0, t1] outside calibrations: (as measured, scaled).

        Needs a calibration that ends before ``t0`` and one that starts
        after ``t1``.  A calibration's speed estimate is the median of it
        and its two neighbours on each side, which damps the kernel's own
        jitter but follows drift lasting a second or more.
        """
        k = bisect.bisect_right(self.ends, t0)
        raw = scaled = 0
        seg_start = t0
        while True:
            inner = self.ends[k] <= t1
            seg_end = self.ends[k] - self.durations[k] if inner else t1
            seg = seg_end - seg_start
            raw += seg
            scaled += seg * 2 * REFERENCE_CALIBRATION_NS / (
                self._smoothed(k - 1) + self._smoothed(k))
            if not inner:
                return raw / 1e9, scaled / 1e9
            seg_start = self.ends[k]
            k += 1

    def _smoothed(self, k: int) -> float:
        return statistics.median(self.durations[max(0, k - 2):k + 3])


# ---------------------------------------------------------------------------
# passes


class Passes:
    """Outcome of running the job list repeatedly.

    Times are in reference seconds (see ``Clock``); the ``raw_`` lists
    hold the same times as measured.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.latencies_ms = array.array("d")  # compact: a run holds ~10^5 jobs
        self.raw_walls: list[float] = []
        self.raw_latencies_ms = array.array("d")
        self.attempted = 0
        self.failures: list[str] = []


def run_passes(jobs, tracer, clock: Clock, seconds: float, refs: dict,
               into: Passes) -> Passes:
    """Run whole passes until ``seconds`` have elapsed (at least one pass).

    A job fails when it raises, or when its fingerprint differs from its
    pinned expectation or from its first recorded fingerprint.  A pass's
    wall time is the sum of its job latencies.
    """
    from workloads import CheckFailed

    start = time.perf_counter()
    # start and end perf_counter_ns of every job, in a compact array so
    # that the harness's memory barely grows with the number of passes
    marks = array.array("q")
    while True:
        tracer.start_pass()
        for jid, job in enumerate(jobs):
            clock.tick()
            tracer.begin_job(jid)
            t0 = time.perf_counter_ns()
            error = None
            try:
                fp = job.run(tracer)
                if job.expect is not None and fp != job.expect:
                    error = f"result {fp!r} is not the pinned {job.expect!r}"
                elif refs.setdefault(jid, fp) != fp:
                    error = "result differs from the same job's first pass"
            except CheckFailed as exc:
                error = str(exc)
            except Exception as exc:  # any raise is a failed job, not a crash
                error = f"raised {type(exc).__name__}: {exc}"
            marks.extend((t0, time.perf_counter_ns()))
            tracer.end_job()
            into.attempted += 1
            if error is not None:
                into.failures.append(f"job {jid} ({job.kind}): {error}")
        if time.perf_counter() - start >= seconds:
            break
    for _ in range(3):
        clock.calibrate()
    n = 2 * len(jobs)
    for p in range(0, len(marks), n):
        times = [clock.measure(marks[i], marks[i + 1]) for i in range(p, p + n, 2)]
        into.raw_latencies_ms.extend(raw * 1e3 for raw, _ in times)
        into.latencies_ms.extend(scaled * 1e3 for _, scaled in times)
        into.raw_walls.append(sum(raw for raw, _ in times))
        into.walls.append(sum(scaled for _, scaled in times))
    return into


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# set-up time


def _setup_probe(args) -> None:
    """Child side: import, build the inputs, print the clock, exit."""
    _import_program()
    _build_jobs(args.workload, args.seed, args.scale == "tiny")
    print(time.monotonic_ns(), flush=True)


def measure_setup(args, clock: Clock) -> tuple[list[float], list[float]]:
    """Fresh interpreter start to first timed job, once per fresh process.

    The probe prints CLOCK_MONOTONIC, which all processes on the host
    share.  Returns the times in reference seconds and as measured, each
    scaled by the median of three calibrations just before and after it.
    """
    scaled, raw = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    for _ in range(SETUP_PROBES):
        before = statistics.median(clock.calibrate() for _ in range(3))
        t0 = time.monotonic_ns()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        raw.append((int(done.stdout.split()[-1]) - t0) / 1e9)
        after = statistics.median(clock.calibrate() for _ in range(3))
        scaled.append(raw[-1] * 2 * REFERENCE_CALIBRATION_NS / (before + after))
    return scaled, raw


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg": os.getloadavg(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def _timing_metrics(walls, latencies_ms, setup) -> dict:
    return {
        "wall_s": statistics.median(walls),
        "job_p50_ms": statistics.median(latencies_ms),
        "job_p90_ms": _percentile(latencies_ms, 90),
        "setup_s": statistics.median(setup),
    }


def end_to_end_run(args, jobs) -> tuple[dict, Passes, dict, Clock]:
    from spans import NullTracer

    clock = Clock()
    setup, raw_setup = measure_setup(args, clock)
    done = run_passes(jobs, NullTracer(clock.tick), clock, args.seconds, {}, Passes())
    metrics = _timing_metrics(done.walls, done.latencies_ms, setup)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = _timing_metrics(done.raw_walls, done.raw_latencies_ms, raw_setup)
    return metrics, done, raw, clock


def traced_run(args, jobs) -> tuple[dict, Passes, dict, Clock]:
    from metrics import PEAK_CALLS, layer_metrics, probe_primitives
    from spans import NullTracer, PeakTracer, SpanTracer

    clock = Clock()
    refs: dict = {}
    untraced = run_passes(jobs, NullTracer(clock.tick), clock, args.seconds / 2, refs,
                          Passes())
    plain_walls = untraced.walls
    untraced.walls = []
    tracer = SpanTracer(clock.tick)
    done = run_passes(jobs, tracer, clock, args.seconds / 2, refs, untraced)
    overhead = statistics.median(done.walls) / statistics.median(plain_walls) - 1
    peaks = PeakTracer(PEAK_CALLS.values())
    if any(s.name in peaks.peak_bytes for s in tracer.spans):
        done = run_passes(jobs, peaks, clock, 0, refs, done)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = layer_metrics(tracer, peaks.peak_bytes, probe_primitives(), overhead)
    return metrics, done, {}, clock


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        worst = max(worst, subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small job lists, for the smoke check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_program()
    if args.setup_probe:
        _setup_probe(args)
        return 0

    from metrics import END_TO_END, FAILED_FRAC, PER_LAYER

    jobs = _build_jobs(args.workload, args.seed, args.scale == "tiny")
    if args.trace:
        metrics, done, raw, clock = traced_run(args, jobs)
        table = PER_LAYER
    else:
        metrics, done, raw, clock = end_to_end_run(args, jobs)
        table = END_TO_END
    failed = len(done.failures)
    env = environment(args)
    units = {name: unit for name, unit, _, _ in table}
    result = {
        "correct": failed == 0,
        "attempted": done.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    for line in done.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload}: {done.attempted} jobs in {len(done.walls)} passes"
          f" of {len(jobs)} jobs")
    name, unit = FAILED_FRAC[:2]
    print(f"# {name} = {failed / done.attempted} {unit}")
    for k, v in result["metrics"].items():
        print(f"# {k} = {v['value']} {v['unit']}")
    for k, v in raw.items():
        print(f"# as measured, {k} = {v} {units[k]}")
    speed = REFERENCE_CALIBRATION_NS / statistics.median(clock.durations)
    print(f"# machine speed, reference = 1: {speed}")
    record = {"env": env, "jobs_per_pass": len(jobs), "passes": len(done.walls),
              "pass_walls_s": done.walls, "raw_pass_walls_s": done.raw_walls,
              "as_measured": raw, "calibrations_ns": clock.durations,
              name: failed / done.attempted, "failures": done.failures[:100], **result}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
