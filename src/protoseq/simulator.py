"""Random-shift Monte-Carlo experiments and a session-level decoding model.

Two experiment schemes are provided.  Under ``protocol_sequences`` each
run draws one uniform shift per user and measures every user's exact
per-period throughput; a throughput-invariant set shows zero spread
across runs.  Under ``random_access`` each user instead transmits in
every slot independently with probability equal to its duty factor,
which is the natural memoryless baseline at the same load.  A user then
succeeds in each slot independently, with the probability that the
closed form ``ti_throughput`` gives, so its count over a run is one
binomial draw.

The session simulator models the receive chain one level up: any slot
with at most gamma transmitters delivers all its packets with readable
headers (user identity plus a one-bit period parity), any busier slot
erases them, and a user's period decodes when at least the guaranteed
number of its packets survive.  Coding internals are abstracted to that
threshold.

With fixed shifts every complete period repeats slot for slot, so a
session's survivors are counted once, at the session's shifts.  A user
with survivors delivers some in every complete period, and adjacent
periods alternate parity, so the receiver's parity runs never merge two
periods and a period decodes exactly when that count meets the threshold.
So a session keeps one summary per user and builds its period records
when they are read.  The slot-level receive chain, which delivers
packets one by one and groups them by parity runs, is kept in
``protoseq.reference`` as the test oracle.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, repeat
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    DEFAULT_BUDGET,
    MAX_ENTRIES,
    ProtoseqError,
    SequenceSet,
    as_shifts,
    at_most_mask,
    refuse_past,
    rotated_masks,
    success_counts,
    validate_gamma,
)
from .analysis import is_ti
from .throughput import ti_throughput

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RNG_NAME",
    "SessionConfigError",
    "SimConfig",
    "UserStats",
    "SimResult",
    "PeriodOutcome",
    "PeriodOutcomes",
    "ErasureCodeSpec",
    "SessionReport",
    "run_monte_carlo",
    "run_session",
]

#: Counter-based generator used for every experiment; splittable, with
#: published constants, so results are reproducible from the seed alone.
RNG_NAME = "philox4x64"

# packed 64-bit words of protocol rows held per batch of runs
_WORD_BATCH = 1 << 16


class SessionConfigError(ProtoseqError):
    """The set cannot back the requested session configuration."""


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one Monte-Carlo experiment."""

    gamma: int
    runs: int
    seed: int
    horizon: int = 1  # periods measured per run
    scheme: str = "protocol_sequences"

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.scheme not in ("protocol_sequences", "random_access"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class UserStats:
    """Exact spread of one user's empirical throughput across runs."""

    minimum: Fraction
    mean: Fraction
    maximum: Fraction


@dataclass(frozen=True)
class SimResult:
    scheme: str
    gamma: int
    runs: int
    horizon: int
    seed: int
    rng: str
    samples_per_run: int  # slots measured in each run
    per_user: tuple[UserStats, ...]


def _generator(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(seed))


def _stats_from_counts(counts: np.ndarray, denom: int) -> tuple[UserStats, ...]:
    """Exact per-user stats from integer success counts of shape (runs, K)."""
    runs = counts.shape[0]
    out = []
    for i in range(counts.shape[1]):
        col = counts[:, i]
        out.append(
            UserStats(
                minimum=Fraction(int(col.min()), denom),
                mean=Fraction(int(col.sum()), runs * denom),
                maximum=Fraction(int(col.max()), denom),
            )
        )
    return tuple(out)


def _protocol_counts(sset: SequenceSet, cfg: SimConfig) -> np.ndarray:
    """Success counts of every run, shape (runs, K), counted on packed words.

    User i's row in a run is ``core.rotate_mask(m, tau, L)``, cut from the
    little-endian 64-bit words of the doubled mask by a funnel shift,
    and the rows of a batch of runs are summed in bit-sliced planes
    (the ripple of ``core.count_planes``) and compared with gamma by
    ``core.at_most_mask``, all elementwise on numpy arrays.
    """
    import numpy as np

    K, L, gamma = sset.size, sset.period, cfg.gamma
    shifts = _generator(cfg.seed).integers(0, L, size=(cfg.runs, K))
    words = (L + 63) >> 6
    # a row at shift tau reads words tau >> 6 .. (tau >> 6) + words
    span = ((L - 1) >> 6) + words + 1
    doubled = np.frombuffer(
        b"".join((m | m << L).to_bytes(8 * span, "little") for m in sset.masks),
        dtype="<u8",
    )
    tail = np.uint64((1 << (L - 64 * (words - 1))) - 1)
    # arrays are laid out (user, word, run), so every elementwise pass runs
    # along the runs of a batch
    base = (np.arange(K) * span)[:, None]
    offsets = np.arange(words + 1)[:, None]
    counts = np.empty((cfg.runs, K), dtype=np.int64)
    batch = max(1, _WORD_BATCH // (K * words))
    for start in range(0, cfg.runs, batch):
        taus = shifts[start:start + batch].T
        bits = (taus & 63).astype(np.uint64)[:, None]
        g = doubled[(base + (taus >> 6))[:, None] + offsets]  # (K, words + 1, runs)
        rows = (g[:, :-1] >> bits) | (g[:, 1:] << (np.uint64(64) - bits))
        rows[:, -1] &= tail
        planes: list[np.ndarray] = []
        for n in range(1, K + 1):
            carry = rows[n - 1]
            for k, p in enumerate(planes):
                planes[k], carry = p ^ carry, p & carry
            if n.bit_length() > len(planes):
                planes.append(carry)
        ok = at_most_mask(planes, gamma, 64)
        counts[start:start + batch] = np.bitwise_count(rows & ok).sum(axis=1).T
    return counts


def _random_access_counts(sset: SequenceSet, cfg: SimConfig) -> np.ndarray:
    """Success counts of every run, shape (runs, K), one binomial draw each.

    User i succeeds in a slot when it fires and at most gamma - 1 others
    do, independently in every slot, so its count over ``horizon`` periods
    is Binomial(horizon * L, R_i) with R_i the closed-form throughput.
    Each count has its exact law; users within a run are drawn
    independently, which no reported statistic can tell apart.
    """
    rates = [float(r) for r in ti_throughput(sset.duty_factors, cfg.gamma).per_user]
    return _generator(cfg.seed).binomial(
        cfg.horizon * sset.period, rates, size=(cfg.runs, sset.size)
    )


def run_monte_carlo(sset: SequenceSet, cfg: SimConfig) -> SimResult:
    """Measure per-user throughput spread across seeded random runs.

    Protocol-sequence runs draw shifts and are measured over one period
    (the schedule makes longer horizons identical slot for slot); the
    random-access baseline is measured over ``horizon`` periods' worth
    of slots.  Protocol runs are counted together on packed 64-bit words:
    each user's shifted schedule is cut from its doubled mask, and a
    batch of runs (a fixed number of words, so memory does not grow with
    runs times L) is summed in bit-sliced counter planes in one numpy
    pass.  The counts equal ``success_counts`` at the drawn shifts; the
    exhaustive verdicts and sessions stay on integer masks.  Random-access
    runs draw each user's count from its binomial law (see the module
    docstring), for any number of users.  Results are deterministic for
    a fixed seed.  Runs whose arrays would hold more than
    ``core.MAX_ENTRIES`` entries (runs times K) are refused with
    ``BudgetExceededError`` before anything is drawn, and so are
    random-access runs whose slots (runs times ``horizon`` periods) exceed
    2^63 - 1, where the int64 counts and their sums would overflow.
    """
    K = sset.size
    validate_gamma(cfg.gamma, K)
    L = sset.period
    message = "{runs} runs need arrays of {amount} entries, the limit is {limit}"
    refuse_past(cfg.runs * K, MAX_ENTRIES, message, runs=cfg.runs)
    if cfg.scheme == "protocol_sequences":
        counts = _protocol_counts(sset, cfg)
        samples = L
    else:
        samples = cfg.horizon * L
        # the counts and their column sums are int64
        message = "{runs} runs draw {amount} slots, more than the int64 limit of {limit}"
        refuse_past(cfg.runs * samples, 2**63 - 1, message, runs=cfg.runs)
        counts = _random_access_counts(sset, cfg)
    return SimResult(
        scheme=cfg.scheme,
        gamma=cfg.gamma,
        runs=cfg.runs,
        horizon=cfg.horizon,
        seed=cfg.seed,
        rng=RNG_NAME,
        samples_per_run=samples,
        per_user=_stats_from_counts(counts, samples),
    )


# ---------------------------------------------------------------------------
# session-level decoding


class PeriodOutcome(NamedTuple):
    """Decode outcome for one complete period of one user."""

    user_id: int
    period_index: int
    parity: int
    sent: int
    survived: int
    success: bool


@dataclass(frozen=True)
class PeriodOutcomes(Sequence):
    """One user's judged periods of a session, as a read-only sequence.

    Every judged period of a session has the same survivors, so the
    user's summary (periods ``first`` up to ``stop``, with their sent,
    survived and success values) stands for all of them.  Each
    ``PeriodOutcome`` is built when it is read; slices are tuples of
    records.  Two summaries are equal when their fields are.
    """

    user_id: int
    first: int  # first judged period: 0, or 1 when the user is shifted
    stop: int  # the session's period count
    sent: int
    survived: int
    success: bool

    def __len__(self) -> int:
        return self.stop - self.first

    def __getitem__(self, index):
        periods = range(self.first, self.stop)[index]
        if isinstance(index, slice):
            return tuple(map(self._record, periods))
        return self._record(periods)

    def __iter__(self):
        first = self.first
        return map(PeriodOutcome._make, zip(
            repeat(self.user_id), range(first, self.stop),
            cycle((first & 1, 1 - (first & 1))), repeat(self.sent),
            repeat(self.survived), repeat(self.success),
        ))

    def _record(self, p: int) -> PeriodOutcome:
        return PeriodOutcome(self.user_id, p, p & 1, self.sent, self.survived,
                             self.success)


@dataclass(frozen=True)
class ErasureCodeSpec:
    """Per-user coding threshold: packets sent per period and the minimum
    number of survivors needed to decode the period."""

    packets_per_period: tuple[int, ...]
    required_per_period: tuple[int, ...]

    @classmethod
    def from_set(cls, sset: SequenceSet, gamma: int) -> "ErasureCodeSpec":
        """Derive the code from the set's guaranteed throughput.

        The survivor guarantee is the period times the closed-form
        throughput; if that is not an integer the set cannot be
        throughput-invariant at this capability and the configuration is
        rejected.
        """
        report = ti_throughput(sset.duty_factors, gamma)
        L = sset.period
        sent = tuple(s.ones for s in sset.sequences)
        required = []
        for i, r in enumerate(report.per_user):
            guaranteed = r * L
            if guaranteed.denominator != 1:
                raise SessionConfigError(
                    f"user {i + 1}: guaranteed survivors per period is "
                    f"{guaranteed}, not an integer; the set is not "
                    f"throughput-invariant at gamma={gamma}"
                )
            required.append(int(guaranteed))
        return cls(sent, tuple(required))


@dataclass(frozen=True)
class SessionReport:
    gamma: int
    periods: int
    seed: int | None
    rng: str
    shifts: tuple[int, ...]
    header_bits: int
    code: ErasureCodeSpec
    per_user: tuple[PeriodOutcomes, ...]
    receiver_groups_consistent: bool

    @property
    def all_decoded(self) -> bool:
        return all(o.success or not o for o in self.per_user)

    def success_rate(self, user_id: int) -> Fraction:
        # every judged period of a user decodes, or none does
        outcomes = self.per_user[user_id - 1]
        return Fraction(int(outcomes.success or not outcomes))


def run_session(
    sset: SequenceSet,
    gamma: int,
    periods: int,
    seed: int | None = 0,
    shifts: Sequence[int] | None = None,
    trust_ti: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> SessionReport:
    """Simulate identification and threshold decoding over whole periods.

    One session draws (or takes) a shift per user and plays ``periods``
    periods of slots.  Slots with at most gamma transmitters deliver
    their packets, and a user's period decodes when enough of its
    packets survive; the survivors of every complete period are the
    user's success count at the session's shifts (see the module
    docstring).  Only complete periods inside the horizon are judged.
    Unless ``trust_ti`` is set, the set is first verified to be
    throughput-invariant at ``gamma``.

    After that check a session costs O(K * L) for any period count: each
    user keeps one summary, and ``per_user[u]`` builds its
    ``PeriodOutcome`` records when they are read.  A period count above
    ``sys.maxsize`` (2^63 - 1 on 64-bit builds), which no sequence
    length can hold, is refused with ``BudgetExceededError`` before any
    work.
    """
    K = sset.size
    L = sset.period
    validate_gamma(gamma, K)
    if periods < 1:
        raise ValueError("periods must be at least 1")
    refuse_past(periods, sys.maxsize, "{amount} periods exceed the limit of {limit}")
    if shifts is None:
        if seed is None:
            raise ValueError("either shifts or a seed is required")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        taus = tuple(int(x) for x in _generator(seed).integers(0, L, size=K))
    else:
        taus = as_shifts(shifts, L, K)
    if not trust_ti:
        verdict = is_ti(sset, gamma, budget=budget)
        if not verdict.holds:
            raise SessionConfigError(
                f"set is not throughput-invariant at gamma={gamma}; "
                f"witness {verdict.witness}"
            )
    code = ErasureCodeSpec.from_set(sset, gamma)
    header_bits = 1 + (K - 1).bit_length()

    # every complete period repeats slot for slot, so one count at the
    # drawn shifts gives each user's survivors in every judged period
    counts = success_counts(rotated_masks(sset.masks, taus, L), gamma, L)
    per_user = tuple(
        PeriodOutcomes(u + 1, 0 if tau == 0 else 1, periods, sent, survived,
                       survived >= required)
        for u, (tau, sent, survived, required) in enumerate(
            zip(taus, code.packets_per_period, counts, code.required_per_period)
        )
    )

    return SessionReport(
        gamma=gamma,
        periods=periods,
        seed=seed if shifts is None else None,
        rng=RNG_NAME,
        shifts=taus,
        header_bits=header_bits,
        code=code,
        per_user=per_user,
        receiver_groups_consistent=True,
    )
