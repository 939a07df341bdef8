"""The benchmark's job lists pass their exact checks on this tree.

``bench/workloads.py`` pins results (verdict fingerprints, digests,
counts) and checks every returned value exactly.  Running each job of
every workload once, at seed 0, catches a change that would make the
benchmark fail.  Only ``bench/`` is read; files the jobs write go to a
temporary directory.
"""

import random
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize(
    "workload", ["verify-sweep", "verify-witness", "build-parse", "simulate"]
)
def test_benchmark_jobs_pass_their_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from spans import NullTracer

    # the job list ``bench/run.py --workload <name> --seed 0`` runs
    jobs = workloads.WORKLOADS[workload](random.Random(f"{workload}:0"), False, tmp_path)
    tracer = NullTracer()
    for job in jobs:
        result = job.run(tracer)  # raises CheckFailed on a wrong result
        if job.expect is not None:
            assert result == job.expect, job.kind
