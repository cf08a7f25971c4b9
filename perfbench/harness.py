"""Timing, span recording and steadiness guards shared by every workload.

Everything here runs inside the worker process.  Spans are recorded only
around the benchmark's own calls into the program's public functions;
nothing inside ``src/repro`` is instrumented.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy

#: Percentiles reported for op latency (``op_p50_ms``, ``op_p90_ms``).
PERCENTILES = (0.50, 0.90)

#: Every reported percentile keeps at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: A percentile rank must stay this far (in share of ops) from any
#: boundary between op classes ordered by their median latency.
CLASS_MARGIN = 0.03

#: Bound on the share of a traced op's wall time that no layer span
#: covers (benchmark glue between the calls).  The layers' self times
#: therefore sum to at least ``1 - UNATTRIBUTED_BOUND`` of the op wall.
UNATTRIBUTED_BOUND = 0.05


def min_samples(percentiles=PERCENTILES, tail=MIN_TAIL_SAMPLES) -> int:
    """Smallest sample count that leaves ``tail`` samples beyond every
    percentile in ``percentiles``."""
    count = 1
    while any(samples_beyond(count, q) < tail for q in percentiles):
        count += 1
    return count


def rank(count: int, q: float) -> int:
    """0-based nearest-rank index of percentile ``q`` among ``count``
    sorted samples."""
    return max(0, math.ceil(q * count) - 1)


def samples_beyond(count: int, q: float) -> int:
    return count - 1 - rank(count, q)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), q)]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB).
    With ``children``, the larger of it and the peak of the largest
    child process already waited for."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    index: int
    args: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder.  Spans nest through an explicit stack;
    all spans of one op share its op id."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self.epoch = time.perf_counter()

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        with self.span("op"):
            yield

    @contextmanager
    def span(self, name: str, **args):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self._op, index, args)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def record(self, op: int, name: str, start: float, end: float,
               parent: int | None = None, **args) -> int:
        """Record a finished span with an explicit op and parent (for
        ops that overlap in time, where the span stack cannot tell)."""
        index = len(self.spans)
        self.spans.append(Span(name, start, end, parent, op, index, args))
        return index

    def wrap_external(self, name: str, fn):
        """``fn`` with a span around each call; counts the active lanes
        of the second argument (the SIMD externals' index vector): the
        lanes the VM's mask (the call's last argument) enables, times
        the values each lane holds."""

        def wrapped(interp, arg_exprs, args, env, *rest):
            start = time.perf_counter()
            try:
                return fn(interp, arg_exprs, args, env, *rest)
            finally:
                end = time.perf_counter()
                index = args[1] if len(args) > 1 else None
                lanes = int(numpy.size(getattr(index, "data", index)))
                mask = rest[0] if rest else None
                if mask is not None and numpy.size(mask):
                    lanes = (int(numpy.count_nonzero(mask))
                             * (lanes // int(numpy.size(mask))))
                parent = self._stack[-1] if self._stack else None
                self.record(self._op, name, start, end, parent, lanes=lanes)

        return wrapped

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op: layer name -> summed self time (seconds).  The op's
        root span appears under ``"op"``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        per_op: dict[int, dict[str, float]] = {}
        for span in self.spans:
            layers = per_op.setdefault(span.op, {})
            own = (span.end - span.start) - child_time[span.index]
            layers[span.name] = layers.get(span.name, 0.0) + own
        return per_op

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent is None]

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (complete events, microseconds)."""
        events = []
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round((span.start - self.epoch) * 1e6, 3),
                    "dur": round((span.end - span.start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"op": span.op, "id": span.index,
                             "parent": span.parent, **span.args},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


class NullTracer:
    """The untraced path: same calls, no recording."""

    enabled = False

    @contextmanager
    def op(self, op_id: int):
        yield

    @contextmanager
    def span(self, name: str, **args):
        yield None

    def wrap_external(self, name: str, fn):
        return fn


NULL_TRACER = NullTracer()


def layer_medians_ms(tracer: Tracer, names) -> dict[str, float]:
    """Median over traced ops of each layer's per-op self time, in ms."""
    per_op = tracer.self_times()
    return {
        name: 1e3 * statistics.median(
            [layers.get(name, 0.0) for layers in per_op.values()]
        )
        for name in names
    }


def unattributed_share(tracer: Tracer) -> float:
    """Median over traced ops of the root span's self time as a share
    of the op wall: what no layer span accounts for."""
    per_op = tracer.self_times()
    shares = []
    for root in tracer.roots():
        wall = root.end - root.start
        shares.append(per_op[root.op]["op"] / wall if wall > 0 else 0.0)
    return statistics.median(shares)


# ---------------------------------------------------------------------------
# Samples and guards
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One timed op: its latency, op class, input, output, position in
    the round's op list, start time and host-speed scale."""

    latency: float
    cls: str
    op: object
    output: object = None
    error: str | None = None
    traced: bool = False
    position: int = 0
    start: float = 0.0
    scale: float = 1.0

    @property
    def nominal(self) -> float:
        """Latency on the nominal host (see ``hostspeed``)."""
        return self.latency * self.scale


def list_wall(samples: list[Sample], concurrency: int = 1,
              nominal: bool = True) -> float:
    """Wall time of one pass over the fixed op list, estimated as the
    sum over list positions of the median latency across rounds,
    divided by the number of ops in flight.  A slow phase of the host
    during some rounds moves it far less than a per-round wall."""
    by_position: dict[int, list[float]] = {}
    for sample in samples:
        by_position.setdefault(sample.position, []).append(
            sample.nominal if nominal else sample.latency)
    return sum(statistics.median(v) for v in by_position.values()) / concurrency


def class_guard(samples: list[Sample], percentiles=PERCENTILES,
                margin=CLASS_MARGIN) -> list[str]:
    """Problems with percentile ranks near op-class boundaries.

    Classes are ordered by their median latency; the cumulative share
    at each boundary must stay ``margin`` away from every percentile.
    """
    by_class: dict[str, list[float]] = {}
    for sample in samples:
        by_class.setdefault(sample.cls, []).append(sample.latency)
    if len(by_class) < 2:
        return []
    order = sorted(by_class, key=lambda c: statistics.median(by_class[c]))
    total = len(samples)
    problems = []
    cumulative = 0
    for cls in order[:-1]:
        cumulative += len(by_class[cls])
        share = cumulative / total
        for q in percentiles:
            if abs(share - q) < margin:
                problems.append(
                    f"p{round(q * 100)} rank {q:.2f} is within {margin:.2f} of "
                    f"the boundary after class {cls!r} at {share:.3f}"
                )
    return problems


def class_shares(samples: list[Sample]) -> dict[str, float]:
    counts: dict[str, int] = {}
    for sample in samples:
        counts[sample.cls] = counts.get(sample.cls, 0) + 1
    return {cls: counts[cls] / len(samples) for cls in sorted(counts)}


def tail_guard(count: int, percentiles=PERCENTILES,
               tail=MIN_TAIL_SAMPLES) -> list[str]:
    return [
        f"p{round(q * 100)} has {samples_beyond(count, q)} samples beyond it "
        f"(need {tail})"
        for q in percentiles
        if samples_beyond(count, q) < tail
    ]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
