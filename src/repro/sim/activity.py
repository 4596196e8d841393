"""Work activities executed by simulated devices.

Devices execute a FIFO queue of *activities*.  Two kinds exist:

- :class:`KernelActivity` — a sequence of roofline phases, each with a
  compute demand (flops) and a memory-traffic demand (bytes).  Its duration
  depends on the device's current frequencies and is re-evaluated whenever
  they change (progress is tracked as the completed fraction of the current
  phase, which is exact because utilizations are constant within a phase at
  fixed frequencies).
- :class:`TransferActivity` — a fixed-rate DMA transfer over the PCIe bus.
  Its duration is set when the transfer starts and is insensitive to the
  device's frequency settings (PCIe is the bottleneck).

The executor composes iterations out of these primitives:
H2D transfer -> kernel -> D2H transfer on the GPU; kernel on the CPU.
Each device runs its FIFO through one :class:`ActivityQueue`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import SimulationError, WorkloadError
from repro.sim.perf import ExecutionEstimate

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class PhaseDemand:
    """Resource demand of one kernel phase.

    ``flops`` is the total compute work, ``bytes`` the total DRAM traffic,
    and ``stall_s`` the latency-bound wall-clock component of the phase
    (see :mod:`repro.sim.perf`).  Any may be zero.
    """

    flops: float
    bytes: float
    stall_s: float = 0.0

    def __post_init__(self) -> None:
        if self.flops < 0.0 or self.bytes < 0.0 or self.stall_s < 0.0:
            raise WorkloadError("phase demands must be non-negative")

    def scaled(self, factor: float) -> "PhaseDemand":
        """Return this demand multiplied by ``factor`` (work-unit scaling)."""
        if factor < 0.0:
            raise WorkloadError("scale factor must be non-negative")
        return PhaseDemand(
            self.flops * factor, self.bytes * factor, self.stall_s * factor
        )

    @property
    def intensity(self) -> float:
        """Arithmetic intensity in flop/byte (inf for pure-compute phases)."""
        if self.bytes == 0.0:
            return float("inf")
        return self.flops / self.bytes


class Activity:
    """Base class for device activities (see module docstring)."""

    __slots__ = ("label",)

    def __init__(self, label: str = ""):
        self.label = label

    @property
    def done(self) -> bool:
        raise NotImplementedError


class KernelActivity(Activity):
    """A kernel run: an ordered list of roofline phases.

    Progress is tracked per phase as a completed fraction in [0, 1].  The
    owning device converts fractions to times using its current rates.
    """

    __slots__ = ("phases", "phase_index", "phase_fraction")

    def __init__(self, phases: list[PhaseDemand] | tuple[PhaseDemand, ...], label: str = ""):
        super().__init__(label)
        phases = tuple(phases)
        if not phases:
            raise WorkloadError("a kernel needs at least one phase")
        self.phases: tuple[PhaseDemand, ...] = phases
        self.phase_index = 0
        self.phase_fraction = 0.0

    @property
    def done(self) -> bool:
        return self.phase_index >= len(self.phases)

    @property
    def current_phase(self) -> PhaseDemand:
        if self.done:
            raise SimulationError("kernel already complete")
        return self.phases[self.phase_index]

    def advance_fraction(self, df: float) -> None:
        """Consume ``df`` of the current phase; roll over on completion.

        ``df`` may complete the phase exactly; overshoot beyond a small
        epsilon is a simulator bug and raises.
        """
        if self.done:
            raise SimulationError("advancing a completed kernel")
        new_fraction = self.phase_fraction + df
        if new_fraction > 1.0 + 1e-9:
            raise SimulationError(
                f"phase overshoot: {self.phase_fraction} + {df} > 1"
            )
        if new_fraction >= 1.0 - 1e-12:
            self.phase_index += 1
            self.phase_fraction = 0.0
        else:
            self.phase_fraction = new_fraction

    @property
    def total_flops(self) -> float:
        return sum(p.flops for p in self.phases)

    @property
    def total_bytes(self) -> float:
        return sum(p.bytes for p in self.phases)


class TransferActivity(Activity):
    """A DMA transfer with a fixed remaining duration in seconds."""

    __slots__ = ("remaining_s", "bytes")

    def __init__(self, duration_s: float, bytes_: float = 0.0, label: str = ""):
        super().__init__(label)
        if duration_s < 0.0:
            raise SimulationError("transfer duration must be non-negative")
        self.remaining_s = float(duration_s)
        self.bytes = float(bytes_)

    @property
    def done(self) -> bool:
        return self.remaining_s <= 1e-12

    def advance_time(self, dt: float) -> None:
        if dt > self.remaining_s + 1e-9:
            raise SimulationError("transfer overshoot")
        self.remaining_s = max(0.0, self.remaining_s - dt)


class ActivityQueue:
    """FIFO of activities, and the one engine that runs it on a device.

    Each device (:class:`~repro.sim.gpu.GpuDevice`,
    :class:`~repro.sim.cpu.CpuDevice`) owns one queue and hands it
    ``phase_estimate``: the device's from-scratch roofline estimate of a
    kernel's current phase at its present rates.  The queue keeps what
    does not depend on the device: event time, head progress, the
    zero-time drain, and the epoch caches.

    Hot-path contract: the head and the head phase's estimate are
    constant between *epochs*.  :attr:`epoch` bumps on every state change
    that can move either: a push, a clear, a phase rollover or a head
    completion, and whatever the device reports through :meth:`bump` (a
    frequency change, a spin transition).  Both caches recompute lazily
    when it does, and a device keys its power cache on it too.  See
    ``docs/performance.md`` for the invariant and the paired-oracle test
    that pins it.
    """

    __slots__ = ("_queue", "_phase_estimate", "epoch", "_head", "_head_epoch",
                 "_est", "_est_epoch")

    def __init__(
        self, phase_estimate: Callable[[KernelActivity], ExecutionEstimate]
    ) -> None:
        self._queue: deque[Activity] = deque()
        self._phase_estimate = phase_estimate
        self.epoch = 0
        self._head: Activity | None = None
        self._head_epoch = -1
        self._est: ExecutionEstimate | None = None
        self._est_epoch = -1

    def bump(self) -> None:
        """Invalidate the epoch caches (a state change moved them)."""
        self.epoch += 1

    def push(self, activity: Activity) -> None:
        self._queue.append(activity)
        self.epoch += 1

    def clear(self) -> None:
        self._queue.clear()
        self.epoch += 1

    @property
    def head(self) -> Activity | None:
        """First unfinished activity, by a done-scan (uncached)."""
        while self._queue and self._queue[0].done:
            self._queue.popleft()
        return self._queue[0] if self._queue else None

    def current_head(self) -> Activity | None:
        """:attr:`head`, scanned once per epoch.

        Every head transition bumps the epoch, so the lazy done-scan only
        needs to run once per epoch instead of on every hot-path query.
        """
        if self._head_epoch != self.epoch:
            self._head = self.head
            self._head_epoch = self.epoch
        return self._head

    def cached_estimate(self, kernel: KernelActivity) -> ExecutionEstimate:
        """Roofline estimate for the head phase, constant within an epoch."""
        if self._est_epoch != self.epoch:
            self._est = self._phase_estimate(kernel)
            self._est_epoch = self.epoch
        return self._est

    def time_to_event(self) -> float | None:
        """Seconds until the head activity finishes, or None when idle."""
        head = self.current_head()
        if head is None:
            return None
        if isinstance(head, TransferActivity):
            return head.remaining_s
        return (1.0 - head.phase_fraction) * self.cached_estimate(head).seconds

    def advance(self, dt: float) -> bool:
        """Run the head for ``dt`` seconds; True when an activity ran.

        ``dt`` must be non-negative and must not run past the next event
        (the platform loop guarantees both by construction).  A zero
        ``dt`` runs nothing but still completes zero-duration heads.
        """
        if dt < 0.0:
            raise SimulationError("dt must be non-negative")
        if dt == 0.0:
            self._drain_zero_time_heads()
            return False
        head = self.current_head()
        if head is None:
            return False
        if isinstance(head, TransferActivity):
            seconds = None
            limit = head.remaining_s
        else:
            seconds = self.cached_estimate(head).seconds
            left = 1.0 - head.phase_fraction
            limit = left * seconds
        if dt > limit + 1e-9:
            raise SimulationError(f"advance({dt}) past next event at {limit}")
        if seconds is None:
            head.advance_time(min(dt, limit))
            if head.done:
                self.epoch += 1
        else:
            index = head.phase_index
            head.advance_fraction(left if seconds == 0.0 else min(dt / seconds, left))
            if head.done or head.phase_index != index:
                self.epoch += 1
        self._drain_zero_time_heads()
        return True

    def _drain_zero_time_heads(self) -> None:
        """Complete queued activities that take zero time at current rates."""
        while True:
            head = self.current_head()
            if head is None:
                return
            if isinstance(head, TransferActivity):
                if head.remaining_s > _EPS:
                    return
                head.advance_time(head.remaining_s)
            elif self.cached_estimate(head).seconds > _EPS:
                return
            else:
                head.advance_fraction(1.0 - head.phase_fraction)
            self.epoch += 1
