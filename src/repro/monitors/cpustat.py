"""``/proc/stat`` facade over the simulated CPU.

The Linux `ondemand` governor computes utilization as
(busy jiffies / total jiffies) over its sampling window.  On the paper's
testbed this includes busy-wait spinning — which is why stock `ondemand`
cannot throttle the CPU while it synchronously waits for the GPU
(§VII-A).  Our :class:`CpuDevice` counts spin time as busy for the same
reason, and this monitor differentiates the counter just like the kernel's
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MonitorError
from repro.sim.cpu import CpuDevice


@dataclass(frozen=True, slots=True)
class CpuUtilizationSample:
    """One windowed CPU utilization reading plus the P-state it ran at."""

    t: float
    window_s: float
    u: float
    f: float


class CpuStat:
    """Windowed CPU utilization reader (jiffies-delta style)."""

    def __init__(self, cpu: CpuDevice):
        self._cpu = cpu
        self._last_t = cpu.elapsed_seconds
        self._last_busy = cpu.busy_seconds

    def query(self) -> CpuUtilizationSample:
        """Average utilization since the previous :meth:`query` call."""
        now = self._cpu.elapsed_seconds
        window = now - self._last_t
        if window <= 0.0:
            raise MonitorError("cpustat queried with an empty window")
        u = (self._cpu.busy_seconds - self._last_busy) / window
        self._last_t = now
        self._last_busy = self._cpu.busy_seconds
        return CpuUtilizationSample(
            t=now, window_s=window, u=min(1.0, u), f=self._cpu.f
        )

    def rebase(self, back_s: float, busy: bool) -> None:
        """Restart the window ``back_s`` seconds ago.

        Valid when the CPU was constantly busy (or constantly idle) over
        those seconds, so the counters at the new start are known exactly
        up to rounding: the next :meth:`query` reads from there.
        """
        self._last_t = self._cpu.elapsed_seconds - back_s
        self._last_busy = self._cpu.busy_seconds - (back_s if busy else 0.0)
