"""Labeled metric instruments: counters, gauges, histograms.

The registry is the single source of truth for every count the system
produces: controller health counters, injected-fault counts, harness
job statistics.  An instrument is identified by ``(name, labels)``;
fetching the same identity twice returns the same object, so hot paths
can cache the instrument once and pay one attribute update per
observation.

Histograms keep exact ``count/sum/min/max`` plus a bounded sample buffer
for streaming percentiles: while under the cap every observation is
kept (percentiles are exact); past the cap the buffer is decimated
deterministically (every other sample dropped, the keep-stride doubles),
so memory stays bounded, estimates stay unbiased for stationary streams,
and — crucially for the harness parity guarantee — the state after any
observation sequence is a pure function of that sequence.

Snapshots are plain JSON-safe dicts; :meth:`MetricsRegistry.merge_snapshot`
folds a snapshot into a live registry (counters add, gauges last-writer-
wins by update time, histograms concatenate), which is how per-worker
telemetry files become one run-level view.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import ConfigError

SNAPSHOT_SCHEMA = 1

#: Default sample-buffer cap; 4096 floats per histogram worst case.
HISTOGRAM_SAMPLE_CAP = 4096

#: The percentiles every summary surface reports.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)

LabelKey = tuple[tuple[str, str], ...]


def label_key(labels: dict[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ConfigError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        """Zero the counter (start of a new run on a shared registry)."""
        self.value = 0.0


class Gauge:
    """Last-value-wins instantaneous measurement.

    ``updated_at`` carries the *simulated* time of the last set (when the
    caller provides one), which is what makes gauge merges deterministic
    across process boundaries: the sample with the latest sim time wins,
    never the one whose worker happened to finish last.
    """

    __slots__ = ("name", "labels", "value", "updated_at")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.updated_at = float("-inf")

    def set(self, value: float, t: float | None = None) -> None:
        self.value = float(value)
        if t is not None:
            self.updated_at = float(t)

    def reset(self) -> None:
        self.value = 0.0
        self.updated_at = float("-inf")


class Histogram:
    """Streaming distribution: exact moments, bounded-memory percentiles."""

    __slots__ = ("name", "labels", "count", "sum", "min", "max",
                 "_samples", "_stride", "_phase", "_cap")

    def __init__(self, name: str, labels: LabelKey = (),
                 cap: int = HISTOGRAM_SAMPLE_CAP):
        if cap < 2:
            raise ConfigError("histogram sample cap must be >= 2")
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._stride = 1      # keep every _stride-th observation
        self._phase = 0       # position within the current stride window
        self._cap = cap

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._samples.append(value)
            if len(self._samples) >= self._cap:
                # Deterministic decimation: halve the buffer, double the
                # keep-stride.  State depends only on the value sequence.
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def samples(self) -> tuple[float, ...]:
        """The retained (decimated) observations, in arrival order."""
        return tuple(self._samples)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile from the retained samples."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"percentile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def p50(self) -> float:
        return self.percentile(0.5)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def reset(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples = []
        self._stride = 1
        self._phase = 0

    def _absorb(self, count: int, total: float, vmin: float, vmax: float,
                samples: list[float]) -> None:
        """Merge another histogram's exported state into this one."""
        self.count += count
        self.sum += total
        if count:
            self.min = min(self.min, vmin)
            self.max = max(self.max, vmax)
        self._samples.extend(samples)
        while len(self._samples) >= self._cap:
            self._samples = self._samples[::2]
            self._stride *= 2


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by (name, labels).

    A name must stay one kind: registering ``x`` as a counter and later
    as a gauge is a programming error and raises immediately.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._kinds: dict[str, str] = {}

    def _claim(self, name: str, kind: str) -> None:
        seen = self._kinds.setdefault(name, kind)
        if seen != kind:
            raise ConfigError(
                f"metric {name!r} already registered as a {seen}, not a {kind}"
            )

    def counter(self, name: str, **labels: Any) -> Counter:
        self._claim(name, "counter")
        key = (name, label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        self._claim(name, "gauge")
        key = (name, label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        self._claim(name, "histogram")
        key = (name, label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1])
        return instrument

    # -- iteration (always sorted: every export is deterministic) ------

    def counters(self) -> Iterator[Counter]:
        for key in sorted(self._counters):
            yield self._counters[key]

    def gauges(self) -> Iterator[Gauge]:
        for key in sorted(self._gauges):
            yield self._gauges[key]

    def histograms(self) -> Iterator[Histogram]:
        for key in sorted(self._histograms):
            yield self._histograms[key]

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump of every instrument's current state."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self.counters()
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value,
                 "updated_at": (g.updated_at
                                if g.updated_at != float("-inf") else None)}
                for g in self.gauges()
            ],
            "histograms": [
                {"name": h.name, "labels": dict(h.labels), "count": h.count,
                 "sum": h.sum,
                 "min": h.min if h.count else None,
                 "max": h.max if h.count else None,
                 "samples": list(h._samples)}
                for h in self.histograms()
            ],
        }

    def merge_snapshot(self, data: dict[str, Any]) -> None:
        """Fold a snapshot (e.g. one worker's) into this registry."""
        schema = data.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ConfigError(
                f"unsupported telemetry snapshot schema {schema!r} "
                f"(expected {SNAPSHOT_SCHEMA})"
            )
        for rec in data["counters"]:
            self.counter(rec["name"], **rec["labels"]).inc(rec["value"])
        for rec in data["gauges"]:
            gauge = self.gauge(rec["name"], **rec["labels"])
            updated = rec.get("updated_at")
            incoming = float("-inf") if updated is None else float(updated)
            if incoming >= gauge.updated_at:
                gauge.value = rec["value"]
                gauge.updated_at = incoming
        for rec in data["histograms"]:
            hist = self.histogram(rec["name"], **rec["labels"])
            hist._absorb(
                int(rec["count"]), float(rec["sum"]),
                float(rec["min"]) if rec.get("min") is not None else float("inf"),
                float(rec["max"]) if rec.get("max") is not None else float("-inf"),
                [float(v) for v in rec["samples"]],
            )

    @classmethod
    def from_snapshot(cls, data: dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.merge_snapshot(data)
        return registry
