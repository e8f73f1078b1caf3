"""Timers, spans and the per-layer attribution of the traced run.

The benchmark times every call it makes into a layer of ``repro`` with
``time.perf_counter``.  In a traced run it also keeps those calls as
spans, next to the spans the program itself records with
``LiveSession(trace=...)``, and splits each write's window into
per-layer self time:

* spans of one thread nest; the innermost span owns each instant;
* threads are ranked: an instant covered by a higher-ranked thread's
  span belongs to that span (the writer thread outranks the delivery
  worker while it is running, and the worker outranks the writer while
  the writer only waits in ``drain()``);
* an instant no span covers is passed to a gap rule, which names the
  queue the write was waiting in, or leaves it unattributed.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[float, float, str]  # (start, end, layer)

#: Which ``repro`` layer owns each span name the program records.
PROGRAM_SPAN_LAYERS = {
    "write": "live.manager",
    "flush": "live.manager",
    "refresh": "engine.maintenance",
    "store-commit": "engine.maintenance",
    "enqueue": "serve.bus",
    "deliver": "serve.bus",
}


def program_span_layer(name: str) -> Optional[str]:
    if name.startswith("apply:"):
        return "engine.delta"
    return PROGRAM_SPAN_LAYERS.get(name)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Timings:
    """Named samples of durations (seconds) and counts."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)

    def add(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def time(self, name: str, fn: Callable, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples[name].append(time.perf_counter() - started)
        return result

    def ms(self, name: str, q: float = 0.5) -> float:
        return percentile(self.samples.get(name, ()), q) * 1e3


#: The probe time, in ms, that defines the reference speed the
#: end-to-end times are reported at: about the usual speed of the shared
#: 2-vCPU virtual machine (2.1 GHz Xeon, Python 3.11) the benchmark was
#: written on.
REFERENCE_PROBE_MS = 0.62


class SpeedProbe:
    """A fixed piece of pure-Python work, timed on the load thread between
    operations, that tracks how fast the machine runs right now.

    A shared virtual machine runs the same code up to 1.7 times faster or
    slower for stretches of seconds to minutes.  The probe's time moves
    with the benchmark's own: over one run, 2-s medians of the probe and
    of the write or deliver times correlated at 0.7-0.9.  It moves less
    than the notification build of ``bugs-dashboard``, so a slow stretch
    still shows there, about half as much as unnormalized.

    It looks up keys in a table and compares tuples, as the program does,
    allocates no tracked object (so it never sets off the cyclic garbage
    collector), holds the interpreter lock for under a millisecond, and
    is timed in thread CPU time, so another thread holding the lock does
    not count.
    """

    def __init__(self) -> None:
        self.table = {key: (key, str(key)) for key in range(1024)}
        self.keys = list(range(1024))
        self.samples: List[float] = []
        #: ``perf_counter`` when the last sample ended.
        self.last = -math.inf

    def sample(self) -> None:
        table, keys, target = self.table, self.keys, (17, "17")
        started = time.thread_time()
        for i in range(2000):
            if table[keys[(i * 2654435761) & 1023]] == target:
                pass
        self.samples.append(time.thread_time() - started)
        self.last = time.perf_counter()

    def ms(self) -> float:
        if not self.samples:
            self.sample()
        return median(self.samples) * 1e3

    def factor(self) -> float:
        """Multiply a time measured in this run by this to get it at the
        reference speed."""
        return REFERENCE_PROBE_MS / self.ms()


def flatten(spans: Iterable[Span]) -> List[Span]:
    """Disjoint segments of one thread's nested spans, each owned by the
    innermost span covering it.  A child that outlives its parent (clock
    skew across threads) is clipped to the parent."""
    ordered = sorted(spans, key=lambda span: (span[0], -span[1]))
    out: List[Span] = []
    stack: List[Tuple[float, str]] = []
    cursor = -math.inf

    def close_until(limit: float) -> None:
        nonlocal cursor
        while stack and stack[-1][0] <= limit:
            end, layer = stack.pop()
            if end > cursor:
                out.append((cursor, end, layer))
                cursor = end

    for start, end, layer in ordered:
        close_until(start)
        if stack and start > cursor:
            out.append((cursor, start, stack[-1][1]))
        cursor = max(cursor, start)
        if stack:
            end = min(end, stack[-1][0])
        if end > start:
            stack.append((end, layer))
    close_until(math.inf)
    return [segment for segment in out if segment[1] > segment[0]]


class Timeline:
    """Flattened spans of several threads, highest rank first."""

    def __init__(self, ranked_threads: Sequence[Iterable[Span]]):
        self.tracks = []
        for spans in ranked_threads:
            segments = flatten(spans)
            self.tracks.append((segments, [segment[0] for segment in segments]))

    def attribute(
        self,
        start: float,
        end: float,
        gap_layer: Optional[Callable[[float, float], Optional[str]]] = None,
    ) -> Dict[Optional[str], float]:
        """Seconds per layer inside ``[start, end]``.  A gap no span
        covers goes to ``gap_layer(low, high)``; without a rule, or when
        the rule returns ``None``, it stays unattributed."""
        owned: Dict[Optional[str], float] = defaultdict(float)
        covered: List[Tuple[float, float]] = []
        for segments, starts in self.tracks:
            index = max(0, bisect.bisect_right(starts, start) - 1)
            pieces: List[Tuple[float, float]] = []
            while index < len(segments) and segments[index][0] < end:
                seg_start, seg_end, layer = segments[index]
                index += 1
                low, high = max(seg_start, start), min(seg_end, end)
                if high <= low:
                    continue
                for piece_low, piece_high in _subtract(low, high, covered):
                    owned[layer] += piece_high - piece_low
                    pieces.append((piece_low, piece_high))
            covered = _merge(covered + pieces)
        for gap_low, gap_high in _subtract(start, end, covered):
            layer = gap_layer(gap_low, gap_high) if gap_layer else None
            owned[layer] += gap_high - gap_low
        return owned


def _merge(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for low, high in sorted(intervals):
        if merged and low <= merged[-1][1]:
            if high > merged[-1][1]:
                merged[-1] = (merged[-1][0], high)
        else:
            merged.append((low, high))
    return merged


def _subtract(
    low: float, high: float, covered: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    pieces = []
    cursor = low
    for cov_low, cov_high in covered:
        if cov_high <= cursor:
            continue
        if cov_low >= high:
            break
        if cov_low > cursor:
            pieces.append((cursor, cov_low))
        cursor = max(cursor, cov_high)
        if cursor >= high:
            break
    if cursor < high:
        pieces.append((cursor, high))
    return pieces


def program_spans(tracer, calibration: Tuple[float, float]) -> Dict[int, List[Span]]:
    """The program's recorded spans on the benchmark's clock, per thread.

    *calibration* is ``(perf_counter reading, recorded start)`` of one
    marker event, which maps the recorder's relative timestamps back to
    ``time.perf_counter``.
    """
    clock, recorded = calibration
    offset = clock - recorded
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for event in tracer.events():
        layer = program_span_layer(event["name"])
        if layer is None:
            continue
        start = event["start"] + offset
        by_thread[event["thread_id"]].append(
            (start, start + event["duration"], layer)
        )
    return by_thread


def calibrate(tracer) -> Tuple[float, float]:
    """Record a zero-length marker and return its two timestamps."""
    clock = time.perf_counter()
    tracer.add("perfbench-calibration", clock, 0.0)
    for event in reversed(tracer.events()):
        if event["name"] == "perfbench-calibration":
            return clock, event["start"]
    raise RuntimeError("trace recorder dropped the calibration marker")
