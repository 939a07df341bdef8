"""``tools/frontier.py`` on the first two ladder rungs: the JSON it writes
and the verdicts it records."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (prop, gamma, holds, configurations_checked) of each verdict, on the
#: left-fill set and on its copy with user 1's one moved into a zero.
VERDICTS = {
    (2, "si"): ([("SI", None, True, 8)], [("SI", None, False, 6)]),
    (2, "pairwise-si"): ([("PAIRWISE_SI", None, True, 6)],
                         [("PAIRWISE_SI", None, False, 4)]),
    (2, "ti"): ([("TI", 1, True, 6)], [("TI", 1, False, 4)]),
    (3, "si"): ([("SI", None, True, 993)], [("SI", None, False, 5)]),
    (3, "pairwise-si"): ([("PAIRWISE_SI", None, True, 90)],
                         [("PAIRWISE_SI", None, False, 2)]),
    (3, "ti"): ([("TI", 1, True, 900), ("TI", 2, True, 900)],
                [("TI", 1, False, 18), ("TI", 2, False, 18)]),
}


def test_frontier_settles_the_first_two_rungs(tmp_path):
    out = tmp_path / "frontier.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "frontier.py"), "--out", str(out),
                    "--rungs", "2", "--limit", "2", "--bench-seconds", "0"], check=True)
    record = json.loads(out.read_text())
    assert set(record) == {"environment", "limit_s", "frontier", "table", "bench"}
    assert record["limit_s"] == 2 and record["bench"] is None
    legs = ("build-left", "build-random", "cli", "si", "pairwise-si", "ti")
    assert record["frontier"] == {leg: {"K": 3, "L": 30} for leg in legs}
    assert [(row["K"], row["L"], len(row["duty"])) for row in record["table"]] == [
        (2, 6, 2), (3, 30, 3)]
    for row in record["table"]:
        assert tuple(row["cells"]) == legs
        for leg, cell in row["cells"].items():
            assert cell["seconds"] > 0 and cell["scaled_s"] > 0 and cell["peak_rss_mib"] > 0
            if leg.startswith("build-"):
                assert set(cell["steps_s"]) == {"construct", "format", "parse"}
                assert cell["round_trip"] is True
                assert cell["pinned_digest"] is (True if leg == "build-left" else None)
                continue
            if leg == "cli":
                assert cell["parser_s"] > 0
                assert set(cell["steps_s"]) == {"construct", "bound", "throughput"}
                assert cell["exit_codes"] == dict.fromkeys(cell["steps_s"], 0)
                assert cell["pinned_digest"] is True
                continue
            found = tuple(
                [(v["prop"], v["gamma"], v["holds"], v["configurations_checked"])
                 for v in cell["verdicts"][copy]["results"]]
                for copy in ("built", "swapped")
            )
            assert found == VERDICTS[row["K"], leg]
