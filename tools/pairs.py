"""Alternating pairs of benchmark runs on two checkouts, and the claim rule.

Usage, with two source checkouts (a parent and a change):

    python3 tools/pairs.py PARENT CHANGE --workload build-parse --seed 7 \\
        --seconds 25 --pairs 10

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T``
once in each checkout, one run after the other, in that
checkout's directory; the parent goes first in even pairs and the change
in odd ones.  Several ``--workload`` names run their pairs one workload
after another (``all`` is refused: it prints one result line per
workload).  For every end-to-end metric of the result lines the
tool prints the parent's median and quartiles, the change's median and
its move against the parent's, and the pairs the change wins (ties count
for neither side).  The verdict column applies the claim rule: "gain"
when the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range, "gain void" when
that holds but the change failed more jobs in total than the parent,
"worse" for the same rule the other way, and "over bound" when the
change's median is worse than the parent's by more than the metric's
bound.  The rule needs ``MIN_PAIRS`` pairs: with fewer, a "gain", "gain
void" or "worse" reads "unresolved".  Where none of these applies and the
parent's interquartile range is wider than the bound, the verdict is
"unresolved" too, unless every run of the change reads better than
every run of the parent.  Which way is
better, and the bounds, come from ``BENCHMARK.json`` in the change's
checkout (lower is better where it names no metric).  ``--out`` also
writes every result line and the summaries as JSON.

Standard library only; nothing is imported from ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900

#: The fewest pairs on which the claim rule gives "gain", "gain void" or
#: "worse".
MIN_PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float, scale: str) -> dict:
    """The result line of one ``bench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", scale]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
              seconds: float, scale: str) -> list[tuple[dict, dict]]:
    """``pairs`` (parent, change) result lines, the first side alternating."""
    found = []
    for i in range(pairs):
        sides = {}
        for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            checkout = parent if name == "parent" else change
            sides[name] = run_once(checkout, workload, seed, seconds, scale)
        found.append((sides["parent"], sides["change"]))
    return found


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def side_totals(pairs: list[tuple[dict, dict]], key: str) -> tuple[int, int]:
    """The parent's and the change's sums of ``key`` over their result lines."""
    return sum(p[key] for p, _ in pairs), sum(c[key] for _, c in pairs)


def summarize(pairs: list[tuple[dict, dict]], rules: dict) -> list[dict]:
    """One row per end-to-end metric of the result lines.

    ``rules`` maps a metric name to its ``BENCHMARK.json`` entry; a name
    it lacks counts as lower-is-better with no bound.
    """
    rows = []
    n = len(pairs)
    parent_failed, change_failed = side_totals(pairs, "failed")
    for name in pairs[0][0]["metrics"]:
        rule = rules.get(name, {})
        sign = -1 if rule.get("better") == "higher" else 1  # sign * value: lower is better
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        losses = sum(sign * c > sign * p for p, c in zip(parent, change))
        p_median, c_median = statistics.median(parent), statistics.median(change)
        q1, q3 = _quartiles(parent)
        gap = sign * (p_median - c_median)  # positive when the change is better
        verdict = "-"
        if 10 * wins >= 9 * n and gap > q3 - q1:
            verdict = "gain" if change_failed <= parent_failed else "gain void"
        elif 10 * losses >= 9 * n and -gap > q3 - q1:
            verdict = "worse"
        if verdict != "-" and n < MIN_PAIRS:
            verdict = "unresolved"
        if "bound" in rule:
            if -gap > rule["bound"] * abs(p_median):
                verdict = "over bound"
            elif (verdict == "-" and q3 - q1 > rule["bound"] * abs(p_median)
                  and max(sign * c for c in change) >= min(sign * p for p in parent)):
                verdict = "unresolved"
        rows.append({
            "metric": name, "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent_median": p_median, "parent_q1": q1, "parent_q3": q3,
            "change_median": c_median,
            "change_pct": 100 * (c_median - p_median) / p_median if p_median else None,
            "wins": wins, "losses": losses, "pairs": n, "verdict": verdict,
        })
    return rows


def format_rows(workload: str, pairs: list[tuple[dict, dict]], rows: list[dict]) -> str:
    failed = side_totals(pairs, "failed")
    attempted = side_totals(pairs, "attempted")
    lines = [f"{workload}: {len(pairs)} pairs; failed parent {failed[0]}/{attempted[0]},"
             f" change {failed[1]}/{attempted[1]}",
             f"  {'metric':<14}{'parent [Q1-Q3]':<34}{'change':<12}{'move':<10}"
             f"{'wins':<8}verdict"]
    for r in rows:
        quartiles = f"{r['parent_median']:.4g} [{r['parent_q1']:.4g}-{r['parent_q3']:.4g}]"
        move = "n/a" if r["change_pct"] is None else f"{r['change_pct']:+.1f}%"
        wins = f"{r['wins']}/{r['pairs']}"
        lines.append(f"  {r['metric']:<14}{quartiles:<34}{r['change_median']:<12.4g}"
                     f"{move:<10}{wins:<8}{r['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="bench/run.py workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, help="JSON file for every result line")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if "all" in args.workload:
        parser.error("--workload all prints one result line per workload; name each")
    benchmark = args.change / "BENCHMARK.json"
    rules = {}
    if benchmark.is_file():
        rules = {m["name"]: m for m in json.loads(benchmark.read_text())["end_to_end"]}
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in args.workload:
        pairs = run_pairs(args.parent, args.change, workload, args.pairs, args.seed,
                          args.seconds, "full")
        rows = summarize(pairs, rules)
        print(format_rows(workload, pairs, rows), flush=True)
        record["workloads"][workload] = {"pairs": [list(p) for p in pairs], "summary": rows}
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
