"""Ladder frontier: the largest rung that a build or a verdict settles
within a wall-clock limit.

Usage, from the root of a source checkout:

    python3 tools/frontier.py --out BENCH_<n>.json

The rungs are the duty lists of ``bench/workloads.PINNED_LADDER``
(K = 2..7, L up to 510510) and one K = 8 rung, L = 9699690, that adds
4/19 to the top one.  Each (rung, leg) runs in a fresh subprocess, one
after another, with the evaluation budget lifted; at ``--limit`` seconds
the subprocess is killed, its cell reads "timeout", and its leg runs no
further rung.  The legs:

- ``build-left`` and ``build-random``: ``construct_si`` with that fill
  (the random one seeded), then ``format_sequence_set`` and
  ``parse_sequence_set``, recording whether the parsed set equals the
  built one and whether a pinned rung's left-fill text has its digest.
- ``cli``: ``protoseq.cli.main`` in process, after the parser's first
  build (timed on its own), for ``construct --duty <rung> --out <file>``,
  ``bound --duty <rung>`` and ``throughput --duty <rung> --gamma
  max(1, K // 2)``, recording each command's seconds and exit code and
  whether a pinned rung's written file has its digest.  Verdict commands
  stay out of it, so the verdict legs' timeouts do not end this one.
- ``si``, ``pairwise-si`` and ``ti`` (every gamma): the verdict on the
  left-fill set and on a copy with one 1 and one 0 of user 1 swapped
  (same weights, neither SI nor pairwise SI; see ``_swapped``).  Each
  verdict runs in its own leg, so a slow one does not hide a fast one.

Each cell records its seconds, peak RSS, and each verdict with its
``configurations_checked``.  Seconds are given as measured and scaled to
the reference speed of ``bench/run.py``'s calibration kernel, imported
read-only.  The output JSON then holds the last line of each workload of
``bench/run.py --workload all --seed 7 --seconds <--bench-seconds>``;
``--bench-seconds 0`` leaves them out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEGS = ("build-left", "build-random", "cli", "si", "pairwise-si", "ti")
FILL_SEED = 7
CALIBRATIONS = 5


def rungs() -> list[tuple[tuple[str, ...], str | None]]:
    """Each rung's duty list and the digest of its left-fill text, if pinned."""
    from workloads import PINNED_LADDER as ladder

    return [*ladder.items(), ((*tuple(ladder)[-1], "4/19"), None)]


# ---------------------------------------------------------------------------
# one cell, in its own process


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _swapped(sset):
    """Copy of ``sset`` in which user 1 moves its first one that precedes a
    zero into that zero.

    The weights stay.  User 1's cross-correlation with user v changes by
    v(t + 1 + tau) - v(t + tau) at shift tau, which is not zero at every
    tau unless v is constant, so a copy of a set without a constant user
    is neither SI nor pairwise SI.
    """
    from protoseq import BinarySequence, SequenceSet
    from protoseq.core import rotate_mask

    L = sset.period
    mask = sset.masks[0]
    ends = mask & ~rotate_mask(mask, 1, L)  # slots t with a one, a zero at t + 1
    t = (ends & -ends).bit_length() - 1
    moved = BinarySequence.from_mask(mask ^ 1 << t ^ 1 << (t + 1) % L, L)
    return SequenceSet((moved, *sset.sequences[1:]))


def _build_leg(duty, fill, pinned) -> dict:
    from protoseq import construct_si, format_sequence_set, parse_sequence_set

    built, construct_s = _timed(construct_si, duty, fill, FILL_SEED)
    text, format_s = _timed(format_sequence_set, built)
    parsed, parse_s = _timed(parse_sequence_set, text)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    return {
        "steps_s": {"construct": construct_s, "format": format_s, "parse": parse_s},
        "round_trip": parsed == built,
        "pinned_digest": None if pinned is None or fill != "left" else digest == pinned,
    }


def _cli_leg(duty, pinned) -> dict:
    from protoseq import cli

    spec = ",".join(duty)
    _, parser_s = _timed(cli._build_parser)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "set.psq"
        commands = {
            "construct": ["construct", "--duty", spec, "--out", str(out)],
            "bound": ["bound", "--duty", spec],
            "throughput": ["throughput", "--duty", spec, "--gamma", str(max(1, len(duty) // 2))],
        }
        steps, codes = {}, {}
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            for name, argv in commands.items():
                codes[name], steps[name] = _timed(cli.main, argv)
        matches = None if pinned is None else (
            hashlib.sha256(out.read_bytes()).hexdigest() == pinned)
    return {"parser_s": parser_s, "steps_s": steps, "exit_codes": codes,
            "pinned_digest": matches}


def _verdict_leg(duty, leg) -> dict:
    from protoseq import construct_si, is_pairwise_si, is_si, is_ti

    built = construct_si(duty)
    calls = {
        "si": lambda s: [is_si(s, budget=math.inf)],
        "pairwise-si": lambda s: [is_pairwise_si(s, budget=math.inf)],
        "ti": lambda s: [is_ti(s, g, budget=math.inf) for g in range(1, s.size)],
    }[leg]
    verdicts = {}
    for name, sset in (("built", built), ("swapped", _swapped(built))):
        found, seconds = _timed(calls, sset)
        verdicts[name] = {
            "seconds": seconds,
            "results": [{"prop": v.prop, "gamma": v.gamma, "holds": v.holds,
                         "configurations_checked": v.configurations_checked}
                        for v in found],
        }
    return {"verdicts": verdicts}


def _calibration_ns(kernel) -> int:
    samples = []
    for _ in range(CALIBRATIONS):
        start = time.perf_counter_ns()
        kernel()
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples)


def run_cell(index: int, leg: str) -> dict:
    from run import REFERENCE_CALIBRATION_NS, _calibration_kernel

    duty, pinned = rungs()[index]
    before = _calibration_ns(_calibration_kernel)
    start = time.perf_counter()
    if leg.startswith("build-"):
        record = _build_leg(duty, leg.removeprefix("build-"), pinned)
    elif leg == "cli":
        record = _cli_leg(duty, pinned)
    else:
        record = _verdict_leg(duty, leg)
    seconds = time.perf_counter() - start
    after = _calibration_ns(_calibration_kernel)
    speed = REFERENCE_CALIBRATION_NS / statistics.median([before, after])
    return {
        "seconds": seconds,
        "scaled_s": seconds * speed,
        "machine_speed": speed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **record,
    }


# ---------------------------------------------------------------------------
# the table


def frontier_table(count: int | None, limit: float) -> dict:
    """Run the first ``count`` rungs (all if None) on every leg; a leg
    stops at its first timeout."""
    table = []
    frontier = dict.fromkeys(LEGS)  # leg -> the largest rung it settled
    for index, (duty, _) in enumerate(rungs()[:count]):
        K, L = len(duty), math.prod(int(f.split("/")[1]) for f in duty)
        cells = {}
        for leg in LEGS:
            if "timeout" in (row["cells"][leg] for row in table):
                cells[leg] = "not run"
                continue
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--cell", str(index), leg]
            try:
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      timeout=limit, check=True)
            except subprocess.TimeoutExpired:
                cells[leg] = "timeout"
                continue
            cells[leg] = json.loads(done.stdout)
            frontier[leg] = {"K": K, "L": L}
        table.append({"K": K, "L": L, "duty": list(duty), "cells": cells})
    return {"limit_s": limit, "frontier": frontier, "table": table}


def bench_lines(seconds: float) -> dict:
    """Result line of each workload of ``bench/run.py --workload all``."""
    from run import WORKLOAD_NAMES

    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all",
           "--seed", "7", "--seconds", str(seconds)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    return {"command": " ".join(["python3", "bench/run.py", *cmd[2:]]),
            "results": dict(zip(WORKLOAD_NAMES, results))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--rungs", type=int, help="run only the first RUNGS rungs")
    parser.add_argument("--limit", type=float, default=30.0,
                        help="wall-clock seconds per (rung, leg)")
    parser.add_argument("--bench-seconds", type=float, default=25.0,
                        help="--seconds of the bench/run.py lines; 0 leaves them out")
    parser.add_argument("--cell", nargs=2, metavar=("RUNG", "LEG"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # protoseq from this checkout; bench/ last, so it shadows no module
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.append(str(ROOT / "bench"))
    if args.cell:
        print(json.dumps(run_cell(int(args.cell[0]), args.cell[1])))
        return 0
    if args.out is None:
        parser.error("--out is required")
    record = {
        "environment": {"python": platform.python_version(),
                        "machine": platform.machine(), "nproc": os.cpu_count()},
        **frontier_table(args.rungs, args.limit),
        "bench": bench_lines(args.bench_seconds) if args.bench_seconds else None,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
