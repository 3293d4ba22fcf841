"""Measurement helpers shared by the workloads.

Spans are kept in memory as plain records and written out once, when the
run ends.  A span wraps one call (or one batch of microsecond-scale calls)
from the benchmark into a public function of ``mpart``; it carries how many
calls it covers and how many units of work they did, so per-layer counts
are taken where the work happens.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter_ns

# Percentiles in per-mille, so ranks are exact integer arithmetic.
PERMILLES = (500, 900, 990, 999)
MIN_BEYOND = 10


def percentile(samples, permille: int):
    """Nearest-rank percentile: the smallest sample with at least
    ``permille``/1000 of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[rank - 1]


def samples_beyond(n: int, permille: int) -> int:
    """How many of n samples rank above the nearest-rank percentile."""
    return n - max(1, -(-permille * n // 1000))


def tail_permille(n: int) -> int | None:
    """Highest of PERMILLES that keeps at least MIN_BEYOND of n samples
    beyond it, or None when even the median does not."""
    best = None
    for pm in PERMILLES:
        if samples_beyond(n, pm) >= MIN_BEYOND:
            best = pm
    return best


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; attempting none is an error,
    not a perfect score."""
    if attempted < 1:
        raise ValueError("failed_ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: int
    end: int
    calls: int = 1
    work: int = 0


class _NullSpan:
    """Stand-in yielded by the untraced run; attribute writes are dropped."""

    __slots__ = ()

    def __setattr__(self, name, value):
        pass


class _NullContext:
    __slots__ = ()
    span = _NullSpan()

    def __enter__(self):
        return self.span

    def __exit__(self, *exc):
        return False


_NULL = _NullContext()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    spans: tuple = ()

    def span(self, name: str, calls: int = 1, work: int = 0):
        return _NULL


class Tracer:
    """Tracing on: every span is appended to an in-memory list."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, calls: int = 1, work: int = 0):
        parent = self._stack[-1] if self._stack else None
        op = parent.op if parent is not None else len(self.spans)
        sp = Span(
            len(self.spans),
            parent.id if parent is not None else None,
            op,
            name,
            perf_counter_ns(),
            0,
            calls,
            work,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter_ns()
            self._stack.pop()


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0
        run_start = run_end = None
        for s, e in sorted(children[sp.id]):
            s, e = max(s, sp.start), min(e, sp.end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[sp.id] = sp.end - sp.start - covered
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: self time in seconds, calls and work units."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"busy_s": 0.0, "calls": 0, "work": 0}
    )
    for sp in spans:
        t = totals[sp.name]
        t["busy_s"] += selfs[sp.id] / 1e9
        t["calls"] += sp.calls
        t["work"] += sp.work
    return totals


def write_spans(path: str, spans) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps(asdict(sp)) + "\n")


def reference_work() -> int:
    """A fixed computation independent of mpart: big-integer additions,
    dictionary stores and interpreter dispatch, the mix mpart's own loops
    are made of.  It takes about CAL_REF_NS on an unloaded reference host."""
    x, acc, d = 1, 0, {}
    for i in range(12000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        acc += x << 100
        d[x & 255] = i
    return acc + len(d)


CAL_REF_NS = 3_000_000  # about its fastest on the 2-vCPU VM the bounds were set on
CAL_EVERY_NS = 100_000_000


class Calibration:
    """Timings of reference_work taken through a run.

    A shared host can slow all computation for seconds to minutes at a
    time; a 2-vCPU VM was seen at up to 2.3x, on either core.  Dividing an
    operation's time by the reference time measured around it removes that
    factor (from about 23% to 4% coefficient of variation over one-second
    windows on that VM), so a time is reported as it would read on a host
    where the reference work takes CAL_REF_NS.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, int]] = []  # (operations done, reference ns)
        self._last = None

    def measure(self, ops_done: int) -> int:
        t0 = perf_counter_ns()
        reference_work()
        dt = perf_counter_ns() - t0
        self.marks.append((ops_done, dt))
        self._last = perf_counter_ns()
        return dt

    def due(self) -> bool:
        return self._last is None or perf_counter_ns() - self._last >= CAL_EVERY_NS

    def factors(self, n: int) -> list[float]:
        """For each of n operations, CAL_REF_NS over the mean of the
        reference timings taken just before and just after it."""
        out = []
        marks = self.marks
        j = 0
        for i in range(n):
            while j + 1 < len(marks) and marks[j + 1][0] <= i:
                j += 1
            after = marks[j + 1][1] if j + 1 < len(marks) else marks[j][1]
            out.append(2 * CAL_REF_NS / (marks[j][1] + after))
        return out


class Run:
    """Operations of one workload execution: latency, kind, failures.

    An operation is one request of the workload's closed loop.  Checks run
    outside the timed region and mark operations failed by index; an
    exception inside an operation marks it failed and is reported on stderr.
    Reference work is timed between operations, never inside one, at least
    every CAL_EVERY_NS.
    """

    def __init__(self, tracer) -> None:
        self.tr = tracer
        self.cal = Calibration()
        self.latency_ns: list[int] = []
        self.kind: list[str] = []
        self.failed: set[int] = set()
        self.work: dict[str, int] = defaultdict(int)

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    def op(self, kind: str, fn, *args):
        """Time fn(*args) as one operation; returns (index, result), with
        result None when it raised."""
        idx = len(self.latency_ns)
        if self.cal.due():
            self.cal.measure(idx)
        t0 = perf_counter_ns()
        try:
            with self.tr.span(kind):
                result = fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
            self.failed.add(idx)
        self.latency_ns.append(perf_counter_ns() - t0)
        self.kind.append(kind)
        return idx, result

    def end_round(self) -> None:
        self.cal.measure(len(self.latency_ns))

    def check(self, idx: int, ok: bool) -> None:
        if not ok:
            self.failed.add(idx)

    def normalized_ns(self) -> list[float]:
        """Latencies scaled to the reference host."""
        return [x * f for x, f in zip(self.latency_ns, self.cal.factors(len(self.latency_ns)))]

    def rate(self, unit: str, *kinds: str) -> float:
        """Work units of one kind per second spent in the given operation
        kinds, on the reference host."""
        busy = sum(x for x, k in zip(self.normalized_ns(), self.kind) if k in kinds)
        return self.work[unit] / (busy / 1e9) if busy else 0.0


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def environment(seed: int) -> dict:
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        cpus = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": cpus,
        "platform": platform.platform(),
        "seed": seed,
    }
