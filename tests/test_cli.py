import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from protoseq import (
    analysis,
    cli,
    construct_si,
    format_sequence_set,
    parse_sequence_set,
)

WORKED_ROWS = (
    "110110110110110110110110110",
    "111000000111000000111000000",
    "111111111000000000000000000",
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.psq"
    path.write_text("".join(r + "\n" for r in WORKED_ROWS))
    return str(path)


def test_construct_writes_text_format(capsys, tmp_path):
    out_path = tmp_path / "set.psq"
    code, out, err = run_cli(
        capsys, "construct", "--duty", "2/3,1/3,1/3", "--out", str(out_path)
    )
    assert code == 0
    sset = parse_sequence_set(out_path.read_text())
    assert tuple(s.to_string() for s in sset.sequences) == WORKED_ROWS


def test_construct_stdout_round_trip(capsys):
    code, out, err = run_cli(capsys, "construct", "--duty", "1/2,1/3")
    assert code == 0
    assert parse_sequence_set(out).period == 6


def test_verify_si_holds(capsys, worked_file):
    code, payload, _ = run_json(
        capsys, "verify", "--property", "si", worked_file
    )
    assert code == 0
    assert payload["schema"] == 1
    assert payload["holds"] is True
    assert payload["witness"] is None
    assert payload["configurations_checked"] == 813


def test_verify_reads_the_set_from_stdin(capsys, monkeypatch, worked_file):
    expected = run_cli(capsys, "verify", "--property", "si", worked_file)
    rows = "".join(r + "\n" for r in WORKED_ROWS)
    monkeypatch.setattr(sys, "stdin", io.StringIO(rows))
    assert run_cli(capsys, "verify", "--property", "si", "-") == expected


# The `verify` runs that the numpy-free CI job pins as (exit code, stdout
# SHA-256): two row-layout sets built by `construct`, copies of them with two
# slots of user 1 swapped (so their sweeps first differ past the first
# block), and a set of one user, which has no pair
VERIFY_PINS = [
    ("rows", ("ti", "--gamma", "2"), 0,
     "ebbc7e8dfa82fa7c5be967beee330cee3b2b88283edfc5bfa76c37a4f6b0d5ff"),
    ("rows", ("si",), 0,
     "aacab1352350eade146c1769fd60d1fa192f248371c940991f7eadb7e3a5dac2"),
    ("swapped", ("ti", "--gamma", "2"), 1,
     "7b288abe640b1e786fa4d6669be58ba2e6bcb35446cbf450d5d1c07ffde2a74f"),
    ("swapped", ("si",), 1,
     "026221bd9fe274336d1e9d36b17cc9a5140c6341d02159e6e26e541ada13e392"),
    ("rows36", ("ti", "--gamma", "2"), 0,
     "7a3adf7845a6affe4bd5f62fb069f07e1990fc48998842944b0026d7d0923e35"),
    ("rows36", ("si",), 0,
     "b19fb089eb337a3dfb8a158b26eca28da1b4923e51250210ef58901ed16a5310"),
    ("swapped36", ("ti", "--gamma", "2"), 1,
     "a051cb7bad784f37297b0a39c161173206493f0d7a17348897d5c9d1ac4f4ec3"),
    ("swapped36", ("si",), 1,
     "b8b3a50610d6afa84d95faceac3ed5d9593fb76dc0a892d0b5bae9666902260b"),
    ("rows36", ("pairwise-si",), 0,
     "6b21500b34b43892b3941fcb9d1992eedaa7b8afff52d5807157531c3922f912"),
    ("swapped36", ("pairwise-si",), 1,
     "c39442bfbcf5a02e46cc83435bacba5697228d2d893321abfb9eb58267c7f5ac"),
    ("one", ("pairwise-si",), 0,
     "44011a68e6a1af30e96e720a1521403ef2235adaffc1a67fea9df9e19e3c67c2"),
]


@pytest.fixture(scope="module")
def pinned_sets(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    paths = {}
    for name, duty in (("rows", "1/2,1/2,1/2,1/3"),
                       ("rows36", "2/3,1/2,1/3,1/2"),
                       ("one", "1/3")):
        paths[name] = root / f"{name}.psq"
        assert cli.main(["construct", "--duty", duty, "--out", str(paths[name])]) == 0
    for name, source, (i, j) in (("swapped", "rows", (6, 7)),
                                 ("swapped36", "rows36", (9, 11))):
        first, rest = paths[source].read_text().split("\n", 1)
        row = list(first)
        row[i], row[j] = row[j], row[i]
        paths[name] = root / f"{name}.psq"
        paths[name].write_text("".join(row) + "\n" + rest)
    return paths


@pytest.mark.parametrize(
    "name, args, status, digest",
    VERIFY_PINS,
    ids=[f"{name}-{args[0]}" for name, args, _, _ in VERIFY_PINS],
)
def test_verify_matches_the_numpy_free_job_pins(
    capsys, pinned_sets, name, args, status, digest
):
    code, out, err = run_cli(
        capsys, "verify", "--property", *args, str(pinned_sets[name])
    )
    assert code == status, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_ti_violation_exits_one(capsys, tmp_path):
    path = tmp_path / "pair.psq"
    path.write_text("10\n10\n")
    code, payload, _ = run_json(
        capsys, "verify", "--property", "ti", "--gamma", "1", str(path)
    )
    assert code == 1
    assert payload["holds"] is False
    w = payload["witness"]
    assert w["users"] == [1]
    assert {w["value_a"]["num"], w["value_b"]["num"]} == {0, 1}


def test_verify_budget_exit_code(capsys, worked_file):
    code, out, err = run_cli(
        capsys, "verify", "--property", "si", "--budget", "10", worked_file
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_verify_budget_below_one_is_a_usage_error(capsys, tmp_path, budget):
    path = tmp_path / "three.psq"
    path.write_text("110\n101\n011\n")
    argv = ["verify", "--property", "ti", "--gamma", "1", "--budget", budget, str(path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--budget" in captured.err


def test_verify_budget_of_one_is_refused_with_exit_three(capsys, tmp_path):
    path = tmp_path / "three.psq"
    path.write_text("110\n101\n011\n")
    code, out, err = run_cli(
        capsys, "verify", "--property", "ti", "--gamma", "1", "--budget", "1", str(path)
    )
    assert code == 3
    assert out == ""
    assert "budget is 1" in err


@pytest.mark.parametrize("argv", [
    ("--property", "ti", "--gamma", "1"),
    ("--property", "si"),
])
def test_verify_refusals_past_the_digit_limit_exit_three(capsys, tmp_path, argv):
    # L^(K-1) * K * L and (L + 1)^K - 1 slot evaluations, over 4300 digits
    rng = random.Random(4400)
    path = tmp_path / "wide.psq"
    rows = (format(rng.getrandbits(10), "010b") for _ in range(4400))
    path.write_text("".join(row + "\n" for row in rows))
    start = time.monotonic()
    code, out, err = run_cli(capsys, "verify", *argv, str(path))
    assert time.monotonic() - start < 1.0
    assert (code, out) == (3, "")
    need = {"ti": "TI verification needs at least 2**14628",
            "si": "SI verification needs at least 2**15221"}[argv[1]]
    assert err == f"error: {need} slot evaluations, budget is 100000000\n"


def test_verify_ti_requires_gamma(capsys, worked_file):
    code, out, err = run_cli(capsys, "verify", "--property", "ti", worked_file)
    assert code == 2
    assert "gamma" in err


def test_throughput_command(capsys):
    code, payload, _ = run_json(
        capsys, "throughput", "--duty", "2/3,1/3,1/3", "--gamma", "2"
    )
    assert code == 0
    assert [(r["num"], r["den"]) for r in payload["per_user"]] == [
        (16, 27),
        (7, 27),
        (7, 27),
    ]


def test_bound_command(capsys):
    code, payload, _ = run_json(capsys, "bound", "--duty", "2/3,1/3,1/3")
    assert code == 0
    assert payload["period_bound"] == 27
    divisors = {
        tuple(entry["subset"]): entry["divisor"]
        for entry in payload["subset_divisors"]
    }
    assert divisors[(1, 2, 3)] == 27
    assert divisors[(1,)] == 3
    assert len(divisors) == 7


def test_bound_full_refuses_more_subsets_than_the_limit(capsys):
    duty = ",".join(["1/2"] * 24)  # 2^24 - 1 subsets
    code, out, err = run_cli(capsys, "bound", "--full", "--duty", duty)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "limit" in err
    # without --full only the whole set is listed
    code, payload, _ = run_json(capsys, "bound", "--duty", duty)
    assert code == 0
    assert [s["subset"] for s in payload["subset_divisors"]] == [list(range(1, 25))]


def test_bound_lists_every_subset_only_up_to_sixteen_users(capsys):
    assert cli.BOUND_LIST_USERS == 16
    duty = ",".join(["1/2"] * 17)
    code, payload, _ = run_json(capsys, "bound", "--duty", duty)
    assert code == 0
    assert payload["subset_divisors"] == [
        {"subset": list(range(1, 18)), "divisor": 2**17}
    ]


def test_bound_trivial(capsys):
    code, payload, _ = run_json(capsys, "bound", "--duty", "1/1")
    assert code == 0
    assert payload["period_bound"] == 1


def test_optimal_f_command(capsys):
    code, payload, _ = run_json(
        capsys, "optimal-f", "--users", "20", "--gamma", "1"
    )
    assert code == 0
    assert abs(payload["f_star"] - 0.05) < 1e-3
    assert payload["rational_f"] == {"num": 1, "den": 20, "decimal": "0.05"}


@pytest.mark.parametrize(
    "resolution, expected",
    [("1e-12", 3), ("9.9e-8", 3), ("1e-308", 3), ("1e-309", 3), ("5e-324", 3),
     ("inf", 2), ("nan", 2), ("0", 2), ("5", 2)],
)
def test_optimal_f_resolution_bounds(capsys, resolution, expected):
    code, out, err = run_cli(capsys, "optimal-f", "--users", "5", "--gamma", "1",
                             "--resolution", resolution)
    assert code == expected
    assert out == ""
    assert err.startswith("error: ")


def test_curve_command(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys,
        "curve", "--users", "10..12", "--gamma", "1,5", "--f", "1/10",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "users,gamma,duty,per_user,system"
    assert lines[1].startswith("10,1,1/10,")
    assert len(lines) == 7


def test_simulate_command_exact_zero_variance(capsys, worked_file):
    code, payload, _ = run_json(
        capsys,
        "simulate", "--gamma", "2", "--runs", "100", "--seed", "5", worked_file,
    )
    assert code == 0
    assert payload["rng"] == "philox4x64"
    user1 = payload["per_user"][0]
    assert user1["min"] == user1["max"] == {"num": 16, "den": 27,
                                            "decimal": "0.592592592593"}


def test_session_command(capsys, worked_file):
    code, payload, _ = run_json(
        capsys,
        "session", "--gamma", "1", "--periods", "6", "--seed", "2", worked_file,
    )
    assert code == 0
    assert payload["all_decoded"] is True
    assert payload["header_bits"] == 3
    stats = payload["per_user"][1]
    assert stats["required_per_period"] == 2
    assert stats["min_survivors"] == 2
    assert stats["success_rate"]["num"] == 1


def test_simulate_random_scheme_and_byte_determinism(capsys, worked_file):
    argv = [
        "simulate", "--gamma", "1", "--runs", "500", "--seed", "31",
        "--horizon", "3", "--scheme", "random", worked_file,
    ]
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["scheme"] == "random_access"
    assert payload["samples_per_run"] == 81


def test_example_command_reproduces_and_is_deterministic(capsys):
    code_a, out_a, err_a = run_cli(capsys, "example")
    code_b, out_b, err_b = run_cli(capsys, "example")
    assert code_a == code_b == 0
    assert err_a == err_b == ""
    assert out_a == out_b
    assert "s1 = " + WORKED_ROWS[0] in out_a
    assert "R = 8/27, 2/27, 2/27" in out_a
    assert "R = 16/27, 7/27, 7/27" in out_a
    assert "all values reproduced" in out_a


def test_example_mismatch_exits_one_and_names_each_deviation(capsys, monkeypatch):
    built = construct_si(["2/3", "1/3", "1/3"])
    # swap one bit of s3 within the same duty factor: slot 8 off, slot 9 on
    swapped = built.sequences[2].mask ^ (1 << 8 | 1 << 9)
    rows = list(WORKED_ROWS[:2]) + [format(swapped, "027b")[::-1]]
    broken = parse_sequence_set("".join(r + "\n" for r in rows))
    monkeypatch.setattr(cli.construction, "construct_si", lambda duty: broken)
    code, out, err = run_cli(capsys, "example")
    assert code == 1
    assert "s3 = " + rows[2] in out
    assert out.startswith("duty factors: 2/3, 1/3, 1/3\n")
    assert "SI: False" in out
    assert "all values reproduced" not in out
    lines = err.splitlines()
    assert lines and all(line.startswith("MISMATCH: ") for line in lines)
    assert "MISMATCH: sequence s3 deviates from the expected layout" in lines
    assert "MISMATCH: set not SI" in lines


def test_usage_errors_exit_two(capsys):
    code, out, err = run_cli(capsys, "construct", "--duty", "5/3")
    assert code == 2
    code, out, err = run_cli(capsys, "throughput", "--duty", "nope", "--gamma", "1")
    assert code == 2
    code, out, err = run_cli(capsys, "verify", "--property", "si", "/nonexistent")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("construct", "--duty", "1/0"),
    ("bound", "--duty", "1/2,1/0"),
    ("throughput", "--duty", "1/0", "--gamma", "1"),
    ("curve", "--users", "3", "--gamma", "1", "--f", "1/0"),
    ("curve", "--users", "3", "--gamma", "1", "--f", "0/0"),
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: duty factor '") and "zero denominator" in err


def test_empty_user_range_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "curve", "--users", "5..2", "--gamma", "1",
                             "--f", "1/2")
    assert (code, out) == (2, "")
    assert err == "error: empty range '5..2': 5 > 2\n"
    code, out, _ = run_cli(capsys, "curve", "--users", "2..2", "--gamma", "1",
                           "--f", "1/2")
    assert code == 0 and len(out.splitlines()) == 2


def test_python_m_protoseq_runs_the_command_line(capsys):
    argv = ["throughput", "--duty", "2/3,1/3,1/3", "--gamma", "2"]
    code, out, _ = run_cli(capsys, *argv)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "protoseq", *argv],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
    done = subprocess.run([sys.executable, "-m", "protoseq", "construct", "--duty", "1/0"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2


# Runs each argv given as a JSON list through cli.main in one interpreter and
# prints whether numpy is loaded after each command, and after the import
# whether numpy and the test oracle protoseq.reference are.
_FOOTPRINT = """
import contextlib, io, json, sys
from protoseq import cli
print("import", "numpy" in sys.modules, "protoseq.reference" in sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(argv[0], code, "numpy" in sys.modules)
"""


def test_only_monte_carlo_and_duty_search_load_numpy(worked_file):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def footprint(*commands):
        done = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, json.dumps(commands)],
            capture_output=True, text=True, env=env,
        )
        assert done.stderr == ""
        return done.stdout.splitlines()

    duty = ["--duty", "2/3,1/3,1/3"]
    assert footprint(
        ["example"],
        ["construct", *duty],
        ["bound", *duty],
        ["throughput", *duty, "--gamma", "2"],
        ["curve", "--users", "2..6", "--gamma", "1,2", "--f", "1/3"],
        ["verify", "--property", "ti", "--gamma", "1", worked_file],
        ["verify", "--property", "si", worked_file],
        ["simulate", "--gamma", "2", "--runs", "100", "--seed", "5", worked_file],
    ) == [
        "import False False", "example 0 False", "construct 0 False", "bound 0 False",
        "throughput 0 False", "curve 0 False", "verify 0 False", "verify 0 False",
        "simulate 0 True",
    ]
    assert footprint(["optimal-f", "--users", "5", "--gamma", "1"]) == [
        "import False False", "optimal-f 0 True",
    ]
    # a session draws its shifts from the seeded Philox generator
    assert footprint(
        ["session", "--gamma", "1", "--periods", "6", "--seed", "2", worked_file]
    ) == ["import False False", "session 0 True"]


def test_round_trip_verdicts_match_in_memory(capsys, tmp_path):
    from protoseq import construct_si, is_si, is_ti

    duty = "1/2,1/3"
    path = tmp_path / "set.psq"
    code, _, _ = run_cli(capsys, "construct", "--duty", duty,
                         "--out", str(path))
    assert code == 0
    sset = parse_sequence_set(path.read_text())
    built = construct_si(duty.split(","))
    assert sset == built
    code, payload, _ = run_json(capsys, "verify", "--property", "ti",
                                "--gamma", "1", str(path))
    assert code == 0
    assert payload["holds"] == is_ti(built, 1).holds == is_si(built).holds


def test_construct_over_budget_exits_three(capsys):
    code, out, err = run_cli(capsys, "construct", "--duty", "1/9999,1/9998,1/9997")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--runs", "10000000000"),
        ("simulate", "--runs", "10000000000", "--scheme", "random"),
        ("session", "--periods", "1000000000", "--trust-ti"),
        ("session", "--periods", "1000000000"),
    ],
)
def test_oversized_runs_and_periods_exit_three(capsys, worked_file, argv):
    """Runs past the array limit exit 3; a billion-period session costs
    O(K * L) and finishes, with every judged period counted."""
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv, "--gamma", "1", "--seed", "0", worked_file)
    if argv[0] == "session":
        assert time.monotonic() - start < 2.0
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["periods"] == 10**9 and payload["all_decoded"] is True
        for user in payload["per_user"]:
            assert user["periods_evaluated"] in (10**9, 10**9 - 1)
            assert user["decoded"] == user["periods_evaluated"]
            assert user["min_survivors"] == user["required_per_period"]
        return
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "limit" in err


@pytest.mark.parametrize("extra", [(), ("--trust-ti",)])
def test_session_beyond_the_period_limit_exits_three(capsys, worked_file, extra):
    code, out, err = run_cli(capsys, "session", "--periods", str(10**30), "--gamma",
                             "1", "--seed", "0", *extra, worked_file)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "limit" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--users", "1..100000", "--gamma", "1", "--f", "1/2"),
    ("--users", "4000", "--gamma", "1,2000", "--f", "1/3"),
])
def test_curve_over_budget_exits_three(capsys, argv):
    start = time.monotonic()
    code, out, err = run_cli(capsys, "curve", *argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "budget" in err


def test_random_access_long_horizon_at_fourteen_users_exits_zero(capsys, tmp_path):
    # 20 runs of 10000 periods of 2^14 slots: one binomial draw per user and run
    path = tmp_path / "k14.psq"
    path.write_text(format_sequence_set(construct_si(["1/2"] * 14)))
    code, payload, err = run_json(
        capsys, "simulate", "--scheme", "random", "--horizon", "10000",
        "--gamma", "1", "--runs", "20", "--seed", "0", str(path),
    )
    assert code == 0 and err == ""
    assert payload["samples_per_run"] == 10000 * 2**14
    assert len(payload["per_user"]) == 14


def test_random_access_over_the_int64_slot_total_exits_three(capsys, worked_file):
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", "random", "--horizon", str(10**18),
        "--runs", "3", "--gamma", "1", "--seed", "0", worked_file,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "int64" in err and "Traceback" not in err


def test_simulate_protocol_measures_one_period_at_any_horizon(capsys, worked_file):
    argv = ["simulate", "--gamma", "2", "--runs", "10", "--seed", "1", worked_file]
    code_a, one, _ = run_json(capsys, *argv)
    code_b, five, _ = run_json(capsys, *argv[:-1], "--horizon", "5", worked_file)
    assert code_a == code_b == 0
    assert one["samples_per_run"] == five["samples_per_run"] == 27
    assert one["per_user"] == five["per_user"]


@pytest.mark.parametrize("extra", [(), ("--trust-ti",)])
def test_session_on_non_ti_set_exits_one(capsys, tmp_path, extra):
    path = tmp_path / "pair.psq"
    path.write_text("110\n101\n")
    code, out, err = run_cli(
        capsys, "session", "--gamma", "1", "--periods", "3", "--seed", "0",
        *extra, str(path),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "throughput-invariant" in err


@pytest.mark.parametrize(
    "exc, expected",
    [
        (analysis.StructuralContradictionError("forced SI fails"), 1),
        (analysis.PreconditionError("subsets are not SI"), 2),
    ],
)
def test_analysis_errors_map_to_exit_codes(capsys, monkeypatch, worked_file,
                                           exc, expected):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(analysis, "is_si", fail)
    code, out, err = run_cli(capsys, "verify", "--property", "si", worked_file)
    assert code == expected
    assert out == ""
    assert err == f"error: {exc}\n"


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone away: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("rows, expected", [(WORKED_ROWS, 0), (("10", "10"), 1)])
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(
    capsys, monkeypatch, tmp_path, rows, expected
):
    path = tmp_path / "set.psq"
    path.write_text("".join(r + "\n" for r in rows))
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert cli.main(["verify", "--property", "si", str(path)]) == expected
    assert cli.main(["example"]) == 0
    assert capsys.readouterr().err == ""


def test_closed_pipe_points_stdout_at_the_null_device(capsys, monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["throughput", "--duty", "2/3,1/3,1/3", "--gamma", "2"]) == 0
        # the descriptor now leads to the null device, so the flush at
        # exit stays quiet
        stream.write("more output\n")
        stream.flush()
    assert capsys.readouterr().err == ""


@st.composite
def fuzzed_files(draw):
    """Bytes of small sets: valid ones, and ones with non-ASCII bytes,
    comments, unequal lines, CRLF or CR line ends, or nothing at all."""
    K = draw(st.integers(1, 4))
    L = draw(st.integers(1, 5))
    row = st.text("01", min_size=L, max_size=L).map(str.encode)
    noise = st.one_of(
        st.text("01", max_size=6).map(str.encode),
        st.sampled_from([b"# comment", b"  ", b"\t10", b"1 0", b"10x", b"\x00"]),
        st.sampled_from(["\u00e9", "\uff11", "\u0660", "\u3000"]).map(str.encode),
        st.binary(max_size=4),
    )
    lines = draw(st.lists(row, max_size=K))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return b"".join(x + end for x in lines)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "set.psq"


@given(fuzzed_files())
def test_fuzzed_set_files_exit_with_a_documented_code(fuzz_path, data):
    fuzz_path.write_bytes(data)
    for argv in (
        ["verify", "--property", "si", str(fuzz_path)],
        ["simulate", "--gamma", "1", "--runs", "3", "--seed", "0", str(fuzz_path)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), (argv, data)
        if code in (0, 1):
            assert json.loads(out.getvalue())["schema"] == 1
        else:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")


_NUMBER = st.one_of(
    st.integers(-2, 60),
    st.integers(-10**40, 10**40),
    st.sampled_from([10**30, 2**63 - 1, 2**63]),
).map(str)
_TEXT = st.one_of(
    _NUMBER,
    st.sampled_from(["", " ", "0x10", "1e3", "1_000", "\u0663", "\uff11\uff12",
                     "\u00e9", "\u221e", "-", "1..", "..2", "1..2..3"]),
    st.text(max_size=4),
)
_FRACTION = st.one_of(
    st.tuples(_NUMBER, st.one_of(st.just("0"), _NUMBER)).map("/".join),
    _TEXT,
)


_SMALL = st.integers(1, 60).map(str)
_GAMMA = st.sampled_from(["1", "2", "0", "3", "-1", "\u0661", "2.0", "\u00e9"])
_DUTIES = st.one_of(
    st.lists(st.sampled_from(["1/2", "1/3", "2/7"]), min_size=1, max_size=3),
    st.lists(_FRACTION, min_size=1, max_size=3),
).map(",".join)


@st.composite
def session_argv(draw):
    """``session`` argv whose period count is mostly a number (small,
    negative or huge) and otherwise malformed text."""
    argv = ["session", "--gamma", draw(_GAMMA),
            "--periods", draw(st.one_of(_SMALL, _NUMBER, _TEXT)),
            "--seed", draw(st.sampled_from(["0", "7", "-1"]))]
    if draw(st.booleans()):
        argv.append("--trust-ti")
    return argv


@st.composite
def curve_argv(draw):
    """``curve`` argv whose values are mostly well-formed numbers (small,
    negative or huge) and otherwise malformed text."""
    users = st.one_of(_SMALL, st.tuples(_SMALL, _SMALL).map("..".join), _NUMBER,
                      st.tuples(_NUMBER, _NUMBER).map("..".join), _TEXT)
    gammas = st.one_of(st.lists(_SMALL, min_size=1, max_size=3),
                       st.lists(st.one_of(_NUMBER, _TEXT), min_size=1, max_size=3))
    return ["curve", "--users", draw(users), "--gamma", ",".join(draw(gammas)),
            "--f", draw(_DUTIES)]


def command_argv(command, required, optional=(), flags=()):
    """``command`` argv with every option of ``required`` and some of
    ``optional``, each followed by a value drawn from its strategy, then
    some of ``flags``."""

    @st.composite
    def draw_argv(draw):
        argv = [command]
        chosen = [option for option in optional if draw(st.booleans())]
        for name, values in [*required, *chosen]:
            argv += [name, draw(values)]
        return argv + [flag for flag in flags if draw(st.booleans())]

    return draw_argv()


# --budget, --resolution and --runs come from bounded sets, so that no
# example starts work beyond the default budgets
FUZZED_ARGV = {
    "session": session_argv(),
    "curve": curve_argv(),
    "construct": command_argv(
        "construct", [("--duty", _DUTIES)],
        [("--fill", st.sampled_from(["left", "random", "up"])),
         ("--seed", st.sampled_from(["0", "7", "-1", "x"]))],
    ),
    "bound": command_argv("bound", [("--duty", _DUTIES)], flags=["--full"]),
    "verify": command_argv(
        "verify", [("--property", st.sampled_from(["si", "pairwise-si", "ti", "x"]))],
        [("--gamma", _GAMMA),
         ("--budget", st.sampled_from(["1", "1000", "100000000", "0", "-5", "1e3"]))],
    ),
    "throughput": command_argv("throughput", [("--duty", _DUTIES), ("--gamma", _GAMMA)]),
    "optimal-f": command_argv(
        "optimal-f",
        [("--users", st.one_of(_SMALL, _NUMBER, _TEXT)),
         ("--gamma", st.one_of(_SMALL, _NUMBER))],
        [("--resolution", st.sampled_from(
            ["1e-4", "0.01", "0.5", "1", "0", "-1", "nan", "inf", "1e-12", "1e-309",
             "5e-324", "x"]))],
    ),
    "simulate": command_argv(
        "simulate",
        [("--gamma", _GAMMA),
         ("--runs", st.sampled_from(["1", "3", "100", "0", "-1", "10000000000", "x"])),
         ("--seed", st.sampled_from(["0", "7", "-1"]))],
        [("--horizon", st.sampled_from(["1", "5", "0", "-1", str(10**18)])),
         ("--scheme", st.sampled_from(["seq", "random", "x"]))],
    ),
}
#: the subcommands that read a set file, the worked set here
_READS_A_SET = {"session", "verify", "simulate"}


def check_fuzzed_argv(worked_path, argv):
    """An argv ends in exit 0, 1, 2 or 3; argparse's own usage errors
    leave through ``SystemExit(2)``, as on the command line."""
    if argv[0] in _READS_A_SET:
        argv = [*argv, str(worked_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert out.getvalue() == "" and "usage:" in err.getvalue()
            return
    assert code in (0, 1, 2, 3), argv
    if not out.getvalue():
        assert code != 0 and err.getvalue().startswith("error: "), argv
    elif argv[0] == "curve":
        assert code == 0
        header, *rows = out.getvalue().splitlines()
        assert header == "users,gamma,duty,per_user,system" and rows, argv
    elif argv[0] == "construct":
        assert code == 0 and parse_sequence_set(out.getvalue()).size >= 1
    else:
        assert code in (0, 1) and json.loads(out.getvalue())["schema"] == 1


@pytest.mark.parametrize("command", list(FUZZED_ARGV))
@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(data=st.data())
def test_fuzzed_argv_exit_with_a_documented_code(worked_path, command, data):
    check_fuzzed_argv(worked_path, data.draw(FUZZED_ARGV[command]))


_DUTIES_900 = ",".join(["1/99991"] * 900)


@settings(deadline=timedelta(seconds=5), phases=[Phase.explicit])
@given(argv=st.one_of(*FUZZED_ARGV.values()))
@example(argv=["curve", "--users", "5", "--gamma", "0,-3", "--f", "1/2"])
@example(argv=["curve", "--users", "0..3", "--gamma", "7", "--f", "1/2"])
@example(argv=["curve", "--users", "5", "--gamma", "2,0", "--f", "1/2"])
@example(argv=["optimal-f", "--users", "1100", "--gamma", "1099", "--resolution", "0.5"])
@example(argv=["optimal-f", "--users", "2000", "--gamma", "1500", "--resolution", "0.01"])
@example(argv=["optimal-f", "--users", "1000", "--gamma", "999", "--resolution", "0.01"])
@example(argv=["bound", "--duty", _DUTIES_900])
def test_argv_found_by_fuzzing_exit_with_a_documented_code(worked_path, argv):
    check_fuzzed_argv(worked_path, argv)


@pytest.mark.parametrize("argv", [
    ("throughput", "--duty", ",".join([f"1/{10**40 + 1}"] * 110), "--gamma", "1"),
    ("throughput", "--duty", _DUTIES_900, "--gamma", "1"),
    ("bound", "--duty", _DUTIES_900),
])
def test_exact_values_past_the_digit_limit_exit_three(capsys, argv):
    # denominators of (10^40 + 1)^110 and 99991^900, over 4400 digits each
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "4300 digits" in err
    assert "set_int_max_str_digits" not in err


_NINES = "9" * 4300  # the longest integer argparse's int() reads


@pytest.mark.parametrize("argv", [
    # a period of 10^8000, 3 * (10^4300 - 1) entries, 27 * (10^4300 - 1)
    # slots and 2^15000 - 1 subsets: each has more than 4300 digits
    ("construct", "--duty", ",".join(["1/1" + "0" * 4000] * 2)),
    ("simulate", "--gamma", "1", "--seed", "0", "--runs", _NINES),
    ("simulate", "--scheme", "random", "--gamma", "1", "--seed", "0",
     "--runs", "1", "--horizon", _NINES),
    ("bound", "--full", "--duty", ",".join(["1/2"] * 15000)),
])
def test_budget_refusals_past_the_digit_limit_exit_three(capsys, worked_path, argv):
    if argv[0] in _READS_A_SET:
        argv = [*argv, str(worked_path)]
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "at least 2**" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("argv, expected", [
    (("--users", "1100", "--gamma", "1099", "--resolution", "0.5"), 3),
    (("--users", "2000", "--gamma", "1500", "--resolution", "0.01"), 3),
    (("--users", "1020", "--gamma", "1000", "--resolution", "0.01"), 3),
    (("--users", "1000", "--gamma", "999", "--resolution", "0.01"), 3),
    (("--users", "20", "--gamma", "19", "--resolution", "0.01"), 0),
])
def test_optimal_f_refuses_searches_over_its_budget(capsys, argv, expected):
    start = time.monotonic()
    code, out, err = run_cli(capsys, "optimal-f", *argv)
    assert time.monotonic() - start < 1.0
    assert code == expected
    assert (out == "") == (code == 3) and "Traceback" not in err


@pytest.fixture(scope="module")
def worked_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("worked") / "worked.psq"
    path.write_text("".join(r + "\n" for r in WORKED_ROWS))
    return path
