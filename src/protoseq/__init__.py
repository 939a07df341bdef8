"""Protocol sequences for a collision channel with multi-packet reception.

Periodic binary schedules let users share a slot-synchronous channel
without feedback or coordination; when the receiver can resolve up to
gamma simultaneous packets, well-chosen schedules deliver every user a
throughput that does not depend on the unknown relative shifts at all.
This package constructs such schedule sets from exact duty factors,
verifies their invariance properties exhaustively, evaluates closed-form
throughput, and simulates both the shift experiments and the
session-level decoding chain.
"""

from .core import (
    DEFAULT_BUDGET,
    BinarySequence,
    BudgetExceededError,
    ProtoseqError,
    SequenceSet,
    count_config,
    cyclic_shift,
    format_sequence_set,
    hamming_cross_correlation,
    parse_sequence_set,
    theta_profile,
)
from .construction import (
    as_duty_factors,
    build_arrays,
    construct_si,
    min_period_bound,
    parse_duty_spec,
    si_divisibility,
    subset_divisors,
)
from .analysis import (
    DeltaRecord,
    PreconditionError,
    PropertyVerdict,
    SearchResult,
    StructuralContradictionError,
    StructuralReport,
    Witness,
    allone_constraint,
    check_lemma_delta,
    check_lemma_theta,
    correlation_values,
    delta_record,
    find_pairwise_si_not_si,
    is_pairwise_si,
    is_si,
    is_ti,
    structural_conclusion,
    structural_hypotheses,
    throughput_at,
    verify_witness,
)
from .throughput import (
    CurveRow,
    OptimalDuty,
    ThroughputReport,
    consistency_check,
    curve_csv,
    optimal_duty,
    symmetric_throughput,
    throughput_curve,
    ti_throughput,
)
from .simulator import (
    ErasureCodeSpec,
    PeriodOutcome,
    SessionConfigError,
    SessionReport,
    SimConfig,
    SimResult,
    UserStats,
    run_monte_carlo,
    run_session,
)

__version__ = "0.1.0"
