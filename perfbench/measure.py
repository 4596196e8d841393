"""Measurement primitives: reference speed, percentiles, spans, memory.

Nothing here knows the program; the workloads call into it.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterator

#: Reference-kernel time (ms) that every host-time metric is scaled to
#: (see :func:`at_reference_speed`).
REF_MS = 3.0

#: Samples on each side of an op that its latency is normalised against.
ROLLING_HALF_WINDOW = 5


class _Item:
    __slots__ = ("key", "value", "weight")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.weight = value * 0.5


def reference_kernel(n: int = 4000) -> float:
    """Fixed pure-Python work shaped like the simulator's: many small
    objects, attribute access, tuple-keyed dicts, a keyed sort and
    float arithmetic.  Of the kernels tried, its slow-downs tracked the
    ops' most closely on a shared two-core host (see README)."""
    items = [_Item((i * 7919) % 4099, float(i)) for i in range(n)]
    index = {(item.key, item.key & 7): item for item in items}
    items.sort(key=lambda item: item.key)
    total = 0.0
    for item in items:
        total += item.value * item.weight
    return total + len(index)


def reference_sample() -> float:
    """Time one reference-kernel call, in ms."""
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1e3


def at_reference_speed(raw: float, ref_ms: float, elasticity: float = 1.0) -> float:
    """A time measured while the kernel took ``ref_ms``, scaled to
    :data:`REF_MS`.  ``elasticity`` is how far the measured work follows
    the kernel's slow-downs: 1 scales fully, 0 not at all."""
    return raw * (REF_MS / ref_ms) ** elasticity


def rolling_median(values: list[float],
                   half: int = ROLLING_HALF_WINDOW) -> list[float]:
    """Median of each value's neighbourhood (``half`` on each side)."""
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


def p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, linearly interpolated."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (ru_maxrss is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for pid {pid}")


# -- spans -------------------------------------------------------------


@dataclass
class SpanRecord:
    name: str
    op: int
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    Each span records its name, start, end, parent span and op id;
    nothing is written until :meth:`dump`.  A disabled tracer hands out
    a no-op context, so the untraced pass pays nothing.
    """

    enabled: bool = True
    spans: list[SpanRecord] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, op: int) -> Iterator[int | None]:
        if not self.enabled:
            yield None
            return
        index = self.add(name, op, time.perf_counter(), 0.0)
        self._stack.append(index)
        try:
            yield index
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, op: int, start: float, end: float,
            parent: int | None = -1) -> int:
        """Record a span; ``parent=-1`` means the innermost open span.
        Spans measured elsewhere (the program's own telemetry, the
        daemon's timestamps) enter through here."""
        if parent == -1:
            parent = self._stack[-1] if self._stack else None
        self.spans.append(SpanRecord(name, op, start, end, parent))
        return len(self.spans) - 1

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's.  Spans come from
        one thread and nest, so children never overlap each other and
        their summed durations are the parent's covered time."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def per_op_ms(self, name: str) -> float:
        """Mean, over the ops that enter ``name``, of its per-op self time (ms)."""
        totals: dict[int, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span.name == name:
                totals[span.op] = totals.get(span.op, 0.0) + own
        return statistics.fmean(totals.values()) * 1e3 if totals else 0.0

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span, own in zip(self.spans, self.self_times()):
                handle.write(json.dumps({
                    "name": span.name, "op": span.op, "start": span.start,
                    "end": span.end, "parent": span.parent, "self_s": own,
                }) + "\n")
