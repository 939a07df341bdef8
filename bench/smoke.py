"""Smoke check of the benchmark itself, at tiny sizes.

Run from the root of a source checkout:

    python3 bench/smoke.py

It checks that
  * every workload, untraced and traced, prints every metric that
    BENCHMARK.json names, with its unit, and a last line with exactly the
    keys correct, attempted, failed and metrics;
  * BENCHMARK.json lists the metrics of bench/metrics.py;
  * a planted wrong expectation fails its job, so failed_frac > 0;
  * without the program's sources the benchmark exits non-zero and
    prints no result.
It exits 0 when all of these hold.  It takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def check_catalogue() -> None:
    from metrics import END_TO_END, PER_LAYER

    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        if listed != [row[:3] for row in table]:
            fail(f"BENCHMARK.json {key} differs from bench/metrics.py")


def check_output(workload: str, trace: int) -> None:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{label} exited {done.returncode}: {done.stderr[-500:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{label}: {result['failed']} of {result['attempted']} jobs failed")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        fail(f"{label}: metrics {list(result['metrics'])}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{label}: {m['name']} reads {got}")
        if not any(line.startswith(f"# {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines):
            fail(f"{label}: {m['name']} not printed with its unit")
    if not any(line.startswith("# failed_frac = 0.0 ") for line in lines):
        fail(f"{label}: failed_frac not printed as 0")


def check_planted_failure(workload: str) -> None:
    from spans import NullTracer

    jobs = run._build_jobs(workload, 7, tiny=True)
    clock = run.Clock()
    clean = run.run_passes(jobs, NullTracer(), clock, 0, {}, run.Passes())
    if clean.failures:
        fail(f"{workload}: unplanted run failed: {clean.failures[0]}")
    jobs[len(jobs) // 2].expect = ("planted wrong expectation",)
    planted = run.run_passes(jobs, NullTracer(), clock, 0, {}, run.Passes())
    if not len(planted.failures) / planted.attempted > 0:
        fail(f"{workload}: a planted wrong expectation did not fail its job")


def check_without_sources() -> None:
    bare = run.OUT_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(SPEC["command"] + ["--workload", "simulate", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        fail("the benchmark ran without the program's sources")


def main() -> int:
    run._import_program()
    check_catalogue()
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_output(workload, trace)
        check_planted_failure(workload)
    check_without_sources()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
