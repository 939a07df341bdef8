"""Command-line entry point.

Subcommands cover construction (``construct``, ``bound``), verification
(``verify``, ``example``), closed-form throughput (``throughput``,
``optimal-f``, ``curve``) and simulation (``simulate``, ``session``).
Schedule sets travel in the line-per-schedule text format; reports are
JSON (schema 1) with exact rationals carried as num/den pairs plus a
decimal convenience field, and curves are CSV.

Exit codes: 0 success, 1 property violation or mismatch, 2 usage error,
3 evaluation budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from . import analysis, construction, simulator, throughput
from .core import (
    DEFAULT_BUDGET,
    MAX_ENTRIES,
    BudgetExceededError,
    SequenceSet,
    format_sequence_set,
    parse_sequence_set,
    refuse_past,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

#: ``bound`` lists every subset's divisor up to this many users, and only
#: the whole set's above it unless ``--full`` is given.
BOUND_LIST_USERS = 16


def _rational(x: Fraction) -> dict:
    return {
        "num": x.numerator,
        "den": x.denominator,
        "decimal": f"{float(x):.12g}",
    }


def _value(v):
    return _rational(v) if isinstance(v, Fraction) else v


def _witness_json(w: analysis.Witness | None):
    if w is None:
        return None
    return {
        "users": list(w.users),
        "shifts_a": list(w.shifts_a),
        "shifts_b": list(w.shifts_b),
        "value_a": _value(w.value_a),
        "value_b": _value(w.value_b),
    }


def _out(text: str) -> None:
    """Write to stdout; a reader that has gone away ends the output quietly.

    On a closed pipe the rest of the output is dropped: stdout's file
    descriptor, if it has one, is pointed at the null device, so later
    writes and the flush at exit succeed, and the command still returns
    its own exit code.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    try:
        text = json.dumps(payload, indent=2)
    except ValueError as exc:
        # an exact value past the interpreter's limit on integer printing,
        # which guards against quadratic int-to-decimal conversions
        raise BudgetExceededError(
            f"an exact value has more than {sys.get_int_max_str_digits()} "
            "digits, the limit for printing an integer"
        ) from exc
    _out(text + "\n")


def _read_set(path: str) -> SequenceSet:
    if path == "-":
        return parse_sequence_set(sys.stdin.read())
    with open(path, "r", encoding="ascii") as fh:
        return parse_sequence_set(fh.read())


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        _out(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args) -> int:
    duty = construction.parse_duty_spec(args.duty)
    sset = construction.construct_si(duty, fill=args.fill, seed=args.seed)
    _write_text(args.out, format_sequence_set(sset))
    return EXIT_OK


def _cmd_bound(args) -> int:
    duty = construction.parse_duty_spec(args.duty)
    k = len(duty)
    period = construction.min_period_bound(duty)
    if args.full:
        message = "{k} users have {amount} subsets, the limit is {limit}"
        refuse_past((1 << k) - 1, MAX_ENTRIES, message, k=k)
    users = range(1, k + 1)
    if k <= BOUND_LIST_USERS or args.full:
        subsets = [s for m in users for s in itertools.combinations(users, m)]
    else:
        subsets = [tuple(users)]
    divisors = construction.subset_divisors(duty, subsets)
    _emit(
        {
            "duty": [_rational(f) for f in duty],
            "period_bound": period,
            "subset_divisors": [
                {"subset": list(s), "divisor": d} for s, d in zip(subsets, divisors)
            ],
        }
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    sset = _read_set(args.file)
    prop = args.property
    if prop == "ti":
        if args.gamma is None:
            raise ValueError("--gamma is required for property 'ti'")
        verdict = analysis.is_ti(sset, args.gamma, budget=args.budget)
    elif prop == "si":
        verdict = analysis.is_si(sset, budget=args.budget)
    else:
        verdict = analysis.is_pairwise_si(sset, budget=args.budget)
    _emit(
        {
            "property": verdict.prop,
            "gamma": verdict.gamma,
            "holds": verdict.holds,
            "witness": _witness_json(verdict.witness),
            "configurations_checked": verdict.configurations_checked,
        }
    )
    return EXIT_OK if verdict.holds else EXIT_VIOLATION


def _cmd_throughput(args) -> int:
    duty = construction.parse_duty_spec(args.duty)
    report = throughput.ti_throughput(duty, args.gamma)
    _emit(
        {
            "gamma": report.gamma,
            "mode": "closed_form",
            "per_user": [_rational(r) for r in report.per_user],
        }
    )
    return EXIT_OK


def _cmd_optimal_f(args) -> int:
    result = throughput.optimal_duty(args.users, args.gamma, args.resolution)
    _emit(
        {
            "users": args.users,
            "gamma": args.gamma,
            "resolution": args.resolution,
            "f_star": result.f_star,
            "value": result.value,
            "rational_f": _rational(result.rational_f),
            "rational_value": _rational(result.rational_value),
        }
    )
    return EXIT_OK


def _parse_range(text: str) -> range:
    """``K`` or ``A..B`` (both ends included); an empty range is refused."""
    if ".." in text:
        lo, hi = (int(v) for v in text.split("..", 1))
        if lo > hi:
            raise ValueError(f"empty range {text!r}: {lo} > {hi}")
        return range(lo, hi + 1)
    v = int(text)
    return range(v, v + 1)


def _cmd_curve(args) -> int:
    k_values = _parse_range(args.users)
    gammas = [int(g) for g in args.gamma.split(",") if g.strip()]
    duties = construction.parse_duty_spec(args.f)
    rows = throughput.throughput_curve(k_values, gammas, duties)
    _write_text(args.out, throughput.curve_csv(rows))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    sset = _read_set(args.file)
    scheme = (
        "protocol_sequences" if args.scheme == "seq" else "random_access"
    )
    cfg = simulator.SimConfig(
        gamma=args.gamma,
        runs=args.runs,
        seed=args.seed,
        horizon=args.horizon,
        scheme=scheme,
    )
    result = simulator.run_monte_carlo(sset, cfg)
    _emit(
        {
            "scheme": result.scheme,
            "gamma": result.gamma,
            "runs": result.runs,
            "horizon": result.horizon,
            "seed": result.seed,
            "rng": result.rng,
            "samples_per_run": result.samples_per_run,
            "per_user": [
                {
                    "min": _rational(u.minimum),
                    "mean": _rational(u.mean),
                    "max": _rational(u.maximum),
                }
                for u in result.per_user
            ],
        }
    )
    return EXIT_OK


def _cmd_session(args) -> int:
    sset = _read_set(args.file)
    report = simulator.run_session(
        sset,
        gamma=args.gamma,
        periods=args.periods,
        seed=args.seed,
        trust_ti=args.trust_ti,
    )
    per_user = []
    for u in range(sset.size):
        # every judged period has the user's summary values
        outcomes = report.per_user[u]
        judged = len(outcomes)
        per_user.append(
            {
                "user": u + 1,
                "packets_per_period": report.code.packets_per_period[u],
                "required_per_period": report.code.required_per_period[u],
                "periods_evaluated": judged,
                "decoded": judged if outcomes.success else 0,
                "min_survivors": outcomes.survived if judged else 0,
                "success_rate": _rational(report.success_rate(u + 1)),
            }
        )
    _emit(
        {
            "gamma": report.gamma,
            "periods": report.periods,
            "seed": report.seed,
            "rng": report.rng,
            "shifts": list(report.shifts),
            "header_bits": report.header_bits,
            "receiver_groups_consistent": report.receiver_groups_consistent,
            "all_decoded": report.all_decoded,
            "per_user": per_user,
        }
    )
    return EXIT_OK if report.all_decoded else EXIT_VIOLATION


# worked three-user example: duty factors 2/3, 1/3, 1/3
_EXAMPLE_DUTY = ("2/3", "1/3", "1/3")
_EXAMPLE_ROWS = (
    "110110110110110110110110110",
    "111000000111000000111000000",
    "111111111000000000000000000",
)
_EXAMPLE_H = {(1, 2): 6, (2, 3): 3, (1, 3): 6, (1, 2, 3): 2}
_EXAMPLE_R = {
    1: (Fraction(8, 27), Fraction(2, 27), Fraction(2, 27)),
    2: (Fraction(16, 27), Fraction(7, 27), Fraction(7, 27)),
}


def _cmd_example(args) -> int:
    failures: list[str] = []
    duty = construction.parse_duty_spec(",".join(_EXAMPLE_DUTY))
    sset = construction.construct_si(duty)
    L = sset.period
    _out(f"duty factors: {', '.join(_EXAMPLE_DUTY)}\n")
    _out(f"period: {L} (bound {construction.min_period_bound(duty)})\n")
    _out("sequences:\n")
    for i, seq in enumerate(sset.sequences, start=1):
        text = seq.to_string()
        _out(f"  s{i} = {text}\n")
        if text != _EXAMPLE_ROWS[i - 1]:
            failures.append(f"sequence s{i} deviates from the expected layout")

    for users, expected in _EXAMPLE_H.items():
        # the values pin the first shift, as a common offset only relabels
        # slots: so they are a pair's over all L * L shift tuples, and the
        # triple's over the L * L tuples with its first shift pinned
        values = analysis.correlation_values(sset, users)
        label = ",".join(str(u) for u in users)
        _out(f"H({label}) over {L * L} shift tuples: {sorted(values)}\n")
        if values != {expected}:
            failures.append(f"H({label}) expected constant {expected}")

    for gamma, expected in _EXAMPLE_R.items():
        verdict = analysis.is_ti(sset, gamma)
        values = analysis.throughput_at(sset, (0, 0, 0), gamma)
        closed = throughput.ti_throughput(duty, gamma).per_user
        _out(
            f"gamma={gamma}: TI={verdict.holds} "
            f"({verdict.configurations_checked} shift classes), "
            f"R = {', '.join(str(v) for v in values)}\n"
        )
        if not verdict.holds:
            failures.append(f"set not TI at gamma={gamma}")
        if values != expected or closed != expected:
            failures.append(f"throughput at gamma={gamma} deviates from {expected}")

    si = analysis.is_si(sset)
    _out(f"SI: {si.holds} ({si.configurations_checked} correlations checked)\n")
    if not si.holds:
        failures.append("set not SI")

    if failures:
        for f in failures:
            print(f"MISMATCH: {f}", file=sys.stderr)
        return EXIT_VIOLATION
    _out("all values reproduced\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoseq",
        description="periodic binary protocol sequences: construction, "
        "exact analysis, and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a shift-invariant set")
    p.add_argument("--duty", required=True, help="comma-separated duty factors, e.g. 2/3,1/3,1/3")
    p.add_argument("--fill", choices=("left", "random"), default="left")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output file ('-' or omitted: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bound", help="period divisibility bounds for duty factors")
    p.add_argument("--duty", required=True)
    p.add_argument("--full", action="store_true",
                   help="enumerate all subsets even for large K (at most 10**7)")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="exhaustively verify an invariance property")
    p.add_argument("--property", required=True, choices=("si", "pairwise-si", "ti"))
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.add_argument("file", help="sequence set file ('-' for stdin)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("throughput", help="closed-form throughput for duty factors")
    p.add_argument("--duty", required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.set_defaults(func=_cmd_throughput)

    p = sub.add_parser("optimal-f", help="best common duty factor by grid search")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--resolution", type=float, default=1e-4)
    p.set_defaults(func=_cmd_optimal_f)

    p = sub.add_parser("curve", help="symmetric throughput table as CSV")
    p.add_argument("--users", required=True,
                   help="K or an A..B range with A <= B (both ends included)")
    p.add_argument("--gamma", required=True, help="comma-separated list")
    p.add_argument("--f", required=True, help="comma-separated duty factors")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("simulate", help="Monte-Carlo shift experiment")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--scheme", choices=("seq", "random"), default="seq")
    p.add_argument("file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("session", help="session-level decoding simulation")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--periods", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trust-ti", action="store_true",
                   help="skip the throughput-invariance pre-check")
    p.add_argument("file")
    p.set_defaults(func=_cmd_session)

    p = sub.add_parser("example", help="reproduce the built-in worked example")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call in a process and reused after
    that: ``parse_args`` gives each call a fresh namespace, and help and
    usage text read the terminal width when they are printed.
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        simulator.SessionConfigError,
        analysis.StructuralContradictionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (analysis.PreconditionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
