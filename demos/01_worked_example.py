"""Walk through the three-user worked example end to end.

Users with duty factors 2/3, 1/3, 1/3 get schedules of period 27.  The
set is shift-invariant: every tuple's cross-correlation is the same no
matter how the users drift, so every user's throughput is a constant of
the shifts at every receiver capability.
"""

from fractions import Fraction

from protoseq import (
    construct_si,
    hamming_cross_correlation,
    is_si,
    is_ti,
    min_period_bound,
    theta_profile,
    throughput_at,
    ti_throughput,
)

duty = [Fraction(2, 3), Fraction(1, 3), Fraction(1, 3)]
sset = construct_si(duty)

print("duty factors:", ", ".join(str(f) for f in duty))
print(f"period: {sset.period} (lower bound {min_period_bound(duty)})")
for i, seq in enumerate(sset.sequences, start=1):
    print(f"  s{i} = {seq.to_string()}")

print("\ncross-correlations at a few arbitrary shifts:")
for users in [(1, 2), (2, 3), (1, 3), (1, 2, 3)]:
    values = {
        hamming_cross_correlation(sset, users, shifts)
        for shifts in [(0,) * len(users), (5, 11, 7)[: len(users)], (20, 3, 14)[: len(users)]]
    }
    print(f"  H{users} = {sorted(values)}")

profile = theta_profile(sset, (1, 2, 3), (0, 0, 0))
print("\nslots by number of simultaneous transmitters:", profile)

print("\nexhaustive verdicts:")
print("  shift-invariant:", is_si(sset).holds)
for gamma in (1, 2):
    verdict = is_ti(sset, gamma)
    measured = throughput_at(sset, (0, 0, 0), gamma)
    closed = ti_throughput(duty, gamma).per_user
    print(
        f"  gamma={gamma}: throughput-invariant={verdict.holds}, "
        f"R = {', '.join(str(r) for r in measured)} "
        f"(closed form {', '.join(str(r) for r in closed)})"
    )
