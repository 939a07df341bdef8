"""``tools/pairs.py``: the claim rule on recorded result lines, and one
tiny pair of real ``bench/run.py`` runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(failed=0, **values):
    """A result line of ``bench/run.py`` with these metric values."""
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


RULES = {"fast": {"name": "fast", "better": "lower", "bound": 0.25},
         "rate": {"name": "rate", "better": "higher", "bound": 0.1}}


def test_claim_rule_on_recorded_lines(pairs):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    # "fast": the change is lower in 9 of 10 pairs, by more than the IQR
    fast = [p - 0.6 for p in parent[:9]] + [2.0]
    # "rate" is higher-is-better; the change is lower in every pair
    rate = [p / 2 for p in parent]
    # "flat": one tie, and the other pairs split
    flat = [1.0] + [p + (0.01 if i % 2 else -0.01) for i, p in enumerate(parent[1:])]
    recorded = [(line(fast=p, rate=p, flat=p), line(fast=f, rate=r, flat=t))
                for p, f, r, t in zip(parent, fast, rate, flat)]
    rows = {r["metric"]: r for r in pairs.summarize(recorded, RULES)}
    assert list(rows) == ["fast", "rate", "flat"]
    fast_row = rows["fast"]
    assert fast_row["parent_median"] == pytest.approx(1.45)
    assert (fast_row["parent_q1"], fast_row["parent_q3"]) == pytest.approx((1.225, 1.675))
    assert fast_row["change_median"] == pytest.approx(0.85)
    assert fast_row["change_pct"] == pytest.approx(-600 / 14.5)
    assert (fast_row["wins"], fast_row["losses"], fast_row["pairs"]) == (9, 1, 10)
    assert fast_row["verdict"] == "gain"
    assert (rows["rate"]["wins"], rows["rate"]["losses"]) == (0, 10)
    assert rows["rate"]["verdict"] == "over bound"
    assert (rows["flat"]["wins"], rows["flat"]["losses"]) == (5, 4)
    assert rows["flat"]["verdict"] == "-"
    # eight wins of ten are not enough, and neither is a gap inside the IQR
    wide = {"fast": {"better": "lower", "bound": 0.5}}
    rows = pairs.summarize(recorded[1:9] + [recorded[9]] * 2, wide)
    assert rows[0]["wins"] == 8 and rows[0]["verdict"] == "-"
    narrow = [(line(fast=p), line(fast=p - 0.1)) for p in parent]
    assert pairs.summarize(narrow, wide)[0]["verdict"] == "-"
    # the parent's IQR (0.45) is wider than the bound (0.25 x 1.45): a
    # small move is unresolved, not unchanged ...
    assert pairs.summarize(narrow, RULES)[0]["verdict"] == "unresolved"
    # ... unless every run of the change is better than every parent run
    skewed = [1.0] * 7 + [2.0] * 3  # median 1.0, IQR 0.75
    apart = [(line(fast=p), line(fast=0.9)) for p in skewed]
    assert pairs.summarize(apart, RULES)[0]["verdict"] == "-"
    worse = [(line(fast=p), line(fast=p + 0.5)) for p in parent]
    assert pairs.summarize(worse, {})[0]["verdict"] == "worse"
    # a gain does not count when the change fails more jobs in total
    failing = [(line(fast=p, rate=p), line(failed=int(i == 3), fast=f, rate=r))
               for i, (p, f, r) in enumerate(zip(parent, fast, rate))]
    rows = {r["metric"]: r for r in pairs.summarize(failing, RULES)}
    assert rows["fast"]["wins"] == 9 and rows["fast"]["verdict"] == "gain void"
    assert rows["rate"]["verdict"] == "over bound"
    # three pairs are too few for the claim rule: a gain or a loss in
    # every pair is unresolved, and only "over bound" still stands
    short = {r["metric"]: r for r in pairs.summarize(recorded[:3], RULES)}
    assert (short["fast"]["wins"], short["fast"]["pairs"]) == (3, 3)
    assert short["fast"]["verdict"] == "unresolved"
    assert short["rate"]["verdict"] == "over bound"
    assert pairs.summarize(worse[:3], {})[0]["verdict"] == "unresolved"
    assert pairs.summarize(failing[:4], RULES)[0]["verdict"] == "unresolved"
    table = pairs.format_rows("w", recorded, pairs.summarize(recorded, RULES))
    assert table.splitlines()[0] == "w: 10 pairs; failed parent 0/100, change 0/100"
    assert table.splitlines()[2].split()[-2:] == ["9/10", "gain"]


def test_one_tiny_pair_of_real_runs(pairs):
    ((parent, change),) = pairs.run_pairs(ROOT, ROOT, "build-parse", 1, 7, 0.2, "tiny")
    assert parent["failed"] == change["failed"] == 0
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    rows = pairs.summarize([(parent, change)], {})
    assert [r["metric"] for r in rows] == names
    assert all(r["pairs"] == 1 for r in rows)
    table = pairs.format_rows("build-parse", [(parent, change)], rows)
    assert table.startswith("build-parse: 1 pairs; failed parent 0/")


def test_a_workload_of_several_result_lines_is_refused(pairs, capsys):
    with pytest.raises(SystemExit):
        pairs.main([str(ROOT), str(ROOT), "--workload", "build-parse", "--workload", "all"])
    assert "--workload all" in capsys.readouterr().err
