"""In-memory spans and counts recorded around the benchmark's calls into protoseq.

Every call a job makes into the library goes through ``tracer.call(name,
fn, *args)``.  The untraced runs use ``NullTracer``, which calls straight
through; the traced run uses ``SpanTracer``, which records one span per
call (name, start, end, parent span, job id, pass) under the span of the
job that made it.  Span names are ``<module>.<function>``, optionally
followed by ``/<tag>`` where one function serves several per-layer
metrics (``simulator.run_session/p1000``).  Counts (configurations
checked, slots, bytes, candidates) are recorded by the jobs at the same
call boundaries.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter
from dataclasses import asdict, dataclass


class NullTracer:
    """Tracing off: one extra Python call per library call, nothing recorded.

    ``tick`` runs before every library call, outside any span; the harness
    uses it to calibrate the machine's speed between calls.
    """

    def __init__(self, tick=lambda: None):
        self.tick = tick

    def call(self, name, fn, *args, **kwargs):
        self.tick()
        return fn(*args, **kwargs)

    def count(self, key, n):
        pass

    def start_pass(self):
        pass

    def begin_job(self, job_id):
        pass

    def end_job(self):
        pass


@dataclass
class Span:
    name: str
    tag: str | None
    start_ns: int
    end_ns: int
    parent: int | None
    job: int
    pass_index: int
    error: str | None = None


class SpanTracer(NullTracer):
    """Records a span per job and per library call, plus per-pass counts."""

    def __init__(self, tick=lambda: None):
        super().__init__(tick)
        self.spans: list[Span] = []
        self.counts: list[Counter] = []
        self._job_span: int | None = None
        self._job: int = -1

    def start_pass(self):
        self.counts.append(Counter())

    def begin_job(self, job_id):
        self._job = job_id
        self._job_span = len(self.spans)
        now = time.perf_counter_ns()
        self.spans.append(
            Span("job", None, now, now, None, job_id, len(self.counts) - 1)
        )

    def end_job(self):
        self.spans[self._job_span].end_ns = time.perf_counter_ns()
        self._job_span = None

    def count(self, key, n):
        self.counts[-1][key] += n

    def call(self, name, fn, *args, **kwargs):
        self.tick()
        func, _, tag = name.partition("/")
        error = None
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self.spans.append(
                Span(func, tag or None, start, end, self._job_span, self._job,
                     len(self.counts) - 1, error)
            )

    def self_times(self) -> list[int]:
        """Each span's duration minus the part its child spans cover.

        Children of one span run one after another inside it, so the part
        they cover is the sum of their durations.
        """
        own = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end_ns - s.start_ns
        return own

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


class PeakTracer(NullTracer):
    """Largest Python heap growth (tracemalloc) during calls to ``names``.

    tracemalloc slows every allocation, so it runs in its own pass and
    only around the named calls; its timings are not used.
    """

    def __init__(self, names):
        super().__init__()
        self.peak_bytes = dict.fromkeys(names, 0)

    def call(self, name, fn, *args, **kwargs):
        if name not in self.peak_bytes:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_bytes[name] = max(self.peak_bytes[name], peak)
