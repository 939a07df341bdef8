"""Closed-form throughput of throughput-invariant schedule sets.

For a TI set, user i's throughput depends only on the duty factors: it
is f_i times the probability that at most gamma - 1 of the other users
transmit in a slot, with each user j present independently with weight
f_j.  The symmetric case collapses to a binomial tail, which is what the
duty-factor optimizer and the curve writer evaluate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, prod
from typing import TYPE_CHECKING, Iterable, Mapping

from .core import DEFAULT_BUDGET, MAX_ENTRIES, refuse_past, validate_gamma
from .analysis import _periodic_ti
from .construction import as_duty_factors, construct_si

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ThroughputReport",
    "OptimalDuty",
    "CurveRow",
    "ti_throughput",
    "symmetric_throughput",
    "consistency_check",
    "optimal_duty",
    "throughput_curve",
    "curve_csv",
]


@dataclass(frozen=True)
class ThroughputReport:
    """Closed-form per-user throughput values."""

    per_user: tuple[Fraction, ...]
    gamma: int


@dataclass(frozen=True)
class OptimalDuty:
    """Grid-search result for the best common duty factor."""

    f_star: float
    value: float
    rational_f: Fraction
    rational_value: Fraction
    resolution: float


@dataclass(frozen=True)
class CurveRow:
    """One point of the symmetric-throughput table."""

    users: int
    gamma: int
    duty: Fraction
    per_user: Fraction
    system: Fraction


def _binomial_row(a: int, b: int, m: int, n: int) -> list[int]:
    """The terms comb(m, j) * a**j * b**(m - j) of (b + a*x)^m, for j <= n.

    Built with running products: comb(m, j) * a**j times (m - j) / (j + 1)
    is exact, and the powers of b come up from b**(m - n), so b = 0 (an
    always-on factor) needs no division.
    """
    b_powers = [b ** (m - n)]
    for _ in range(n):
        b_powers.append(b_powers[-1] * b)
    row = []
    head = 1  # comb(m, j) * a**j
    for j in range(n + 1):
        row.append(head * b_powers[n - j])
        head = head * (m - j) // (j + 1) * a
    return row


def _tail_values(counts: Mapping, gamma: int) -> dict[tuple[int, int], Fraction]:
    """Each duty factor's closed-form throughput in a multiset of users.

    ``counts`` maps a factor a/d, in lowest terms, to its number of users
    m.  With b = d - a, each user contributes the factor b + a*x to the
    polynomial P(x), so P's coefficient of x^k over prod(d^m) is the
    probability that exactly k users transmit.  A user's value is a/d
    times the probability that fewer than gamma others do: the first
    gamma coefficients of P / (b + a*x) over the other users'
    denominators.  Only P's first gamma + 1 coefficients are kept, and
    the division runs from the low end, where it is exact; the loop
    carries a times each quotient coefficient.  An always-on user's
    factor (b = 0) is a*x, so a times its quotient is P shifted down by
    one coefficient.
    """
    p = [1]
    for (a, d), m in counts.items():
        power = _binomial_row(a, d - a, m, min(m, gamma))
        product = [0] * min(gamma + 1, len(p) + len(power) - 1)
        for i, c in enumerate(p):
            for j, e in enumerate(power[: len(product) - i]):
                product[i + j] += c * e
        p = product
    denominator = prod(d**m for (_, d), m in counts.items())
    values = {}
    for (a, d), m in counts.items():
        b = d - a
        if b:
            total = r = 0
            for k in range(gamma):
                r = a * (p[k] - r) // b
                total += r
        else:
            total = sum(p[1 : gamma + 1])
        values[a, d] = Fraction(total, denominator)
    return values


def ti_throughput(duty: Iterable, gamma: int) -> ThroughputReport:
    """Exact per-user throughput forced on any TI set with these duty factors.

    R_i = f_i * sum over subsets H of the other users with |H| < gamma of
    prod(f_j, j in H) * prod(1 - f_k, k outside H and i), evaluated for
    each distinct factor at once (see ``_tail_values``).
    """
    duty = as_duty_factors(duty)
    validate_gamma(gamma, len(duty))
    keys = [(f.numerator, f.denominator) for f in duty]
    values = _tail_values(Counter(keys), gamma)
    return ThroughputReport(tuple(values[key] for key in keys), gamma)


def symmetric_throughput(f, users: int, gamma: int) -> Fraction:
    """Common throughput when all ``users`` share duty factor f."""
    (f,) = as_duty_factors([f])
    validate_gamma(gamma, users)
    key = (f.numerator, f.denominator)
    return _tail_values({key: users}, gamma)[key]


def consistency_check(
    duty: Iterable, gamma: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Cross-validate the closed form against the built set.

    Builds the set for the duty factors and asks the TI sweep what
    ``is_ti`` asks: True iff every user's success count is the same at
    every shift configuration and that count, as a fraction of the
    period, is the closed form.  Row i of a built set repeats with period
    d_1⋯d_i at most, so the sweep is the period-reduced one
    (``analysis._periodic_ti``): not the L^(K-1) classes of the
    exhaustive sweep, but the ∏ p_u classes that the rows' minimal
    periods tell apart, which cover every configuration.  The refusal
    stays at the exhaustive sweep's nominal cost, L^(K-1)·K·L slot
    evaluations, as ``is_ti``'s, and comes before any period is found.
    The duty factors are checked once; the build and the closed form get
    the checked Fractions, which ``as_duty_factors`` passes through as
    they are.
    """
    duty = as_duty_factors(duty)
    sset = construct_si(duty)
    _, first, difference = _periodic_ti(sset, gamma, budget)
    counts = tuple(Fraction(c, sset.period) for c in first)
    return difference is None and counts == ti_throughput(duty, gamma).per_user


def _symmetric_values(f: np.ndarray, users: int, gamma: int) -> np.ndarray:
    import numpy as np

    total = np.zeros_like(f)
    for j in range(gamma):
        total += comb(users - 1, j) * f ** (j + 1) * (1.0 - f) ** (users - 1 - j)
    return total


def optimal_duty(users: int, gamma: int, resolution: float = 1e-4) -> OptimalDuty:
    """Best common duty factor for the symmetric throughput, by grid search.

    The curve is scanned on a [0, 1] grid at ``resolution``, then on a
    window around the best point a thousand times finer; no unimodality
    is assumed.  Ties break toward the smaller duty factor.  The search
    itself runs in floating point; the winner is also re-scored exactly
    at nearby rationals for the report.  ``resolution`` must lie in
    (0, 1], and a coarse grid of more than ``core.MAX_ENTRIES`` steps
    (infinitely many at a subnormal resolution) is refused with
    ``BudgetExceededError`` before anything is allocated, as is a search
    of more than ``DEFAULT_BUDGET`` units: gamma terms per grid point,
    and ``_row_cost`` per exact re-scoring at its largest allowed
    denominator.  Within that budget every binomial coefficient
    of the grid's terms fits a float (they stay below 2^630).
    """
    import numpy as np

    validate_gamma(gamma, users)
    if not 0 < resolution <= 1:
        raise ValueError(f"resolution must lie in (0, 1], got {resolution}")
    steps = 1 / resolution  # inf for a subnormal float, exact for a Fraction
    steps = max(2, round(steps)) if steps < inf else steps
    message = "a grid of {amount} steps exceeds the limit of {limit}"
    refuse_past(steps, MAX_ENTRIES, message)
    max_denominators = (users, 2 * users, 10, 100, 1000, 10**6)
    cost = (steps + 2001) * gamma
    cost += sum(_row_cost(users, gamma, Fraction(1, q)) for q in max_denominators)
    message = "the duty search costs more than the budget of {limit}"
    refuse_past(cost, DEFAULT_BUDGET, message)
    grid = np.linspace(0.0, 1.0, steps + 1)
    coarse = _symmetric_values(grid, users, gamma)
    best = float(grid[int(np.argmax(coarse))])
    lo = max(0.0, best - resolution)
    hi = min(1.0, best + resolution)
    fine = np.linspace(lo, hi, 2001)
    values = _symmetric_values(fine, users, gamma)
    idx = int(np.argmax(values))
    f_star = float(fine[idx])
    value = float(values[idx])

    # exact re-scoring at simple rationals near the float winner
    candidates = {Fraction(f_star).limit_denominator(q) for q in max_denominators}
    scores = {c: symmetric_throughput(c, users, gamma) for c in sorted(candidates)}
    best_rat = max(scores, key=scores.__getitem__)  # the smallest of equal scores
    return OptimalDuty(
        f_star=f_star,
        value=value,
        rational_f=best_rat,
        rational_value=scores[best_rat],
        resolution=resolution,
    )


def _curve_grid(k_values, gammas, duties):
    """The (K, gamma, f) of every curve row, in table order.

    A user count no larger than every capability gives no row; a range
    drops those counts by index, so the grid never walks them.
    """
    least = min(gammas)
    if isinstance(k_values, range):
        start, step = k_values.start, k_values.step
        if step > 0:
            k_values = k_values[max(0, (least - start) // step + 1):]
        else:
            k_values = k_values[:max(0, -((least - start) // -step))]
    for k in k_values:
        for g in gammas:
            if g < k:
                for f in duties:
                    yield k, g, f


def _row_cost(k: int, g: int, f: Fraction) -> int:
    """Upper bound on the cost of one curve row, in units of about 10 ns.

    ``_tail_values`` builds g + 1 binomial terms of about
    K * bit_length(d) bits for f = n/d, divides g of them by d - n, and
    reduces one fraction.  Each of the g terms is charged
    2000 units of fixed set-up plus the square of its size in 30-bit
    digits, which bounds that work from above.  The bound is loose on
    purpose: a tighter one would change which tables ``curve`` and
    which searches ``optimal_duty`` refuse.
    """
    digits = -(-k * f.denominator.bit_length() // 30)
    return g * (2000 + digits * digits)


def throughput_curve(
    k_values: Iterable[int], gammas: Iterable[int], duty_factors: Iterable
) -> tuple[CurveRow, ...]:
    """Symmetric per-user and system throughput over a parameter grid.

    System throughput is the per-user value times the user count.
    Combinations with gamma >= K fall outside the model and are omitted;
    a gamma below 1, no gamma at all and a grid without rows raise
    ``ValueError``.  Before the first row the cost of the whole table is
    estimated (see ``_row_cost``), and a table of more than
    ``DEFAULT_BUDGET`` units, about a second of exact arithmetic, is
    refused with ``BudgetExceededError``.
    """
    duties = as_duty_factors(duty_factors)
    if not isinstance(k_values, range):
        k_values = tuple(k_values)
    gammas = tuple(gammas)
    if not gammas or min(gammas) < 1:
        raise ValueError(f"curve capabilities must be at least 1, got {list(gammas)}")
    message = "the curve's exact sums cost more than the budget of {limit}"
    cost = 0
    for k, g, f in _curve_grid(k_values, gammas, duties):
        cost += _row_cost(k, g, f)
        refuse_past(cost, DEFAULT_BUDGET, message)
    if not cost:
        # every row costs at least 2000 units
        raise ValueError("the curve has no rows: no user count exceeds a capability")
    rows = []
    for k, g, f in _curve_grid(k_values, gammas, duties):
        per_user = symmetric_throughput(f, k, g)
        rows.append(CurveRow(k, g, f, per_user, k * per_user))
    return tuple(rows)


def curve_csv(rows: Iterable[CurveRow]) -> str:
    """Render curve rows as CSV with 12-significant-digit decimals."""
    lines = ["users,gamma,duty,per_user,system"]
    for r in rows:
        lines.append(
            f"{r.users},{r.gamma},{r.duty.numerator}/{r.duty.denominator},"
            f"{float(r.per_user):.12g},{float(r.system):.12g}"
        )
    return "\n".join(lines) + "\n"
