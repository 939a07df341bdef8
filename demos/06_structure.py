"""Structure of invariant sets: histogram deltas and forced conclusions.

Shifting a tuple redistributes its slot histogram, but once every
smaller subset is shift-invariant, the whole redistribution collapses
to one degree of freedom with fixed binomial ratios.  That is the
engine behind the implications that force a throughput-invariant set
to be fully shift-invariant in many regimes.  Pairwise invariance alone
does not force full invariance: the smallest known triple that is
pairwise invariant but not fully invariant has period 12, and random
searches rarely meet one.
"""

import random

from protoseq import (
    SequenceSet,
    check_lemma_delta,
    construct_si,
    delta_record,
    find_pairwise_si_not_si,
    is_pairwise_si,
    is_si,
    structural_conclusion,
)

rng = random.Random(11)

print("pair deltas follow delta_1 = -2 * delta_2 for any two schedules:")
for _ in range(3):
    trial = SequenceSet.from_strings(
        [
            "".join(str(rng.randint(0, 1)) for _ in range(8)),
            "".join(str(rng.randint(0, 1)) for _ in range(8)),
        ]
    )
    a = (rng.randrange(8), rng.randrange(8))
    b = (rng.randrange(8), rng.randrange(8))
    rec = delta_record(trial, (1, 2), a, b)
    ok = check_lemma_delta(trial, (1, 2), a, b)
    print(f"  shifts {a} -> {b}: deltas = {rec.deltas}, identity holds = {ok}")

print("\nstructural conclusions for built sets:")
for spec, gamma in [(("2/3", "1/3", "1/3"), 1), (("1/2", "1/2", "1/2"), 2)]:
    sset = construct_si(spec)
    report = structural_conclusion(sset, gamma)
    print(
        f"  duty {','.join(spec)} gamma={gamma}: TI={report.ti.holds}, "
        f"implications {list(report.applicable)}, SI verified="
        f"{report.si.holds if report.si else None}"
    )

print("\na pairwise-invariant triple that is not fully invariant (period 12):")
triple = SequenceSet.from_strings(["101010101010", "100100100100", "111001110000"])
for seq in triple.sequences:
    print(f"  {seq.to_string()}")
pairwise = is_pairwise_si(triple)
si = is_si(triple)
w = si.witness
print(
    f"  pairwise SI: {pairwise.holds} ({pairwise.configurations_checked} "
    f"configurations); SI: {si.holds}, users {w.users} correlate "
    f"{w.value_a} at shifts {w.shifts_a} but {w.value_b} at {w.shifts_b}"
)
a, b = (0, 0, 0), (0, 0, 2)
rec = delta_record(triple, (1, 2, 3), a, b)
print(
    f"  shifts {a} -> {b}: deltas = {rec.deltas}, identity holds = "
    f"{check_lemma_delta(triple, (1, 2, 3), a, b)}"
)

print("\nhunting for more such triples at random:")
result = find_pairwise_si_not_si(200_000, seed=42)
print(
    f"  {result.candidates_tried} candidates, "
    f"{result.pairwise_si_found} pairwise-invariant triples, "
    f"{len(result.hits)} counterexamples"
)
print("  an empty hunt proves nothing; the smallest known period is 12.")
