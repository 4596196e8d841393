"""Time-series trace recording for experiments.

A :class:`TraceRecorder` samples named channels (utilization, frequency,
power, division ratio, per-iteration energy, ...) at arbitrary simulated
times and exposes them as a :class:`Trace` of parallel numpy arrays for
analysis and plotting.  This is what backs the paper's Figs. 5, 7 and 8.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class Trace:
    """An immutable view of one channel: times and values as arrays."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.times.shape != self.values.shape:
            raise SimulationError("trace time/value length mismatch")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def final(self) -> float:
        """Last recorded value."""
        if len(self) == 0:
            raise SimulationError(f"trace {self.name!r} is empty")
        return float(self.values[-1])

    def mean(self) -> float:
        """Arithmetic mean of the recorded values."""
        if len(self) == 0:
            raise SimulationError(f"trace {self.name!r} is empty")
        return float(self.values.mean())

    def time_weighted_mean(self) -> float:
        """Mean weighted by the holding time of each sample.

        Each value is held from its timestamp to the next; the last sample
        is excluded (it has no holding interval).  Requires >= 2 samples.
        """
        if len(self) < 2:
            raise SimulationError(f"trace {self.name!r} needs >= 2 samples")
        dt = np.diff(self.times)
        if np.any(dt < 0.0):
            raise SimulationError("trace timestamps must be non-decreasing")
        total = dt.sum()
        if total == 0.0:
            return float(self.values[0])
        return float((self.values[:-1] * dt).sum() / total)

    def window(self, t0: float, t1: float) -> "Trace":
        """Sub-trace with t0 <= time <= t1."""
        mask = (self.times >= t0) & (self.times <= t1)
        return Trace(self.name, self.times[mask], self.values[mask])


class TraceRecorder:
    """Mutable multi-channel trace collector."""

    def __init__(self) -> None:
        self._times: dict[str, list[float]] = defaultdict(list)
        self._values: dict[str, list[float]] = defaultdict(list)

    def record(self, channel: str, t: float, value: float) -> None:
        """Append a sample; times within a channel must be non-decreasing."""
        times = self._times[channel]
        if times and t < times[-1] - 1e-12:
            raise SimulationError(
                f"non-monotonic time {t} after {times[-1]} on channel {channel!r}"
            )
        times.append(float(t))
        self._values[channel].append(float(value))

    def record_many(self, t: float, **channels: float) -> None:
        """Record several channels at the same timestamp."""
        for name, value in channels.items():
            self.record(name, t, value)

    def record_series(self, times: list[float], **channels: float) -> None:
        """Record each channel's one value at every time in ``times``.

        ``times`` must be non-decreasing floats; this is ``record_many``
        once per time, as one list extend per channel.
        """
        if not times:
            return
        for name, value in channels.items():
            known = self._times[name]
            if known and times[0] < known[-1] - 1e-12:
                raise SimulationError(
                    f"non-monotonic time {times[0]} after {known[-1]} "
                    f"on channel {name!r}"
                )
            known.extend(times)
            self._values[name].extend([float(value)] * len(times))

    @property
    def channels(self) -> list[str]:
        """All channel names seen so far, sorted."""
        return sorted(self._times)

    def __contains__(self, channel: str) -> bool:
        return channel in self._times

    def trace(self, channel: str) -> Trace:
        """Freeze one channel into a :class:`Trace`."""
        if channel not in self._times:
            raise SimulationError(f"unknown trace channel {channel!r}")
        return Trace(
            channel,
            np.asarray(self._times[channel], dtype=float),
            np.asarray(self._values[channel], dtype=float),
        )

    def as_dict(self) -> dict[str, Trace]:
        """Freeze every channel."""
        return {name: self.trace(name) for name in self.channels}
