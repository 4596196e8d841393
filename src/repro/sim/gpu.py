"""Simulated frequency-scalable GPU device.

Models the observable/actuable surface of the paper's GeForce 8800 GTX:

- two independent frequency domains (cores, memory) with discrete ladders,
  set through :meth:`GpuDevice.set_frequencies` (``nvidia-settings``
  equivalent);
- hardware utilization counters per domain, exposed as monotonically
  increasing busy-time integrals that a monitor differentiates over its
  sampling window (``nvidia-smi`` equivalent);
- an energy integral over the card power model (what the paper's Meter2
  measures at the ATX supply).

Default clocks are the *lowest* levels, matching the paper's observation
that an idle GPU defaults to its lowest frequencies (Fig. 5 discussion).

Execution-time semantics follow :mod:`repro.sim.perf`: kernels advance at
rates proportional to domain frequencies, and a mid-phase frequency change
re-times only the remaining fraction of the phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FrequencyError, SimulationError
from repro.sim.activity import ActivityQueue, KernelActivity, TransferActivity
from repro.sim.frequency import FrequencyLadder
from repro.sim.perf import ExecutionEstimate, RooflineModel
from repro.sim.power import GpuPowerModel


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a simulated GPU card.

    ``peak_compute_rate`` is the flop/s delivered when every SM is busy at
    the peak core frequency; ``peak_bandwidth`` is bytes/s at the peak
    memory frequency.  Both scale linearly with their domain frequency.
    ``launch_overhead_s`` is charged once per kernel launch (driver +
    dispatch latency).
    """

    name: str
    core_ladder: FrequencyLadder
    mem_ladder: FrequencyLadder
    peak_compute_rate: float
    peak_bandwidth: float
    power: GpuPowerModel
    roofline: RooflineModel = field(default_factory=RooflineModel)
    launch_overhead_s: float = 1.0e-4

    def __post_init__(self) -> None:
        if self.peak_compute_rate <= 0.0 or self.peak_bandwidth <= 0.0:
            raise SimulationError("peak rates must be positive")
        if self.launch_overhead_s < 0.0:
            raise SimulationError("launch overhead must be non-negative")


class GpuDevice:
    """Stateful simulated GPU (see module docstring).

    Its FIFO runs on an :class:`~repro.sim.activity.ActivityQueue`, which
    keeps the head, the head phase's estimate and event time per epoch;
    the card adds its clocks, launch overhead, integrals and a power
    cache keyed on the queue's epoch (``docs/performance.md``).
    """

    def __init__(self, spec: GpuSpec):
        self.spec = spec
        self._f_core = spec.core_ladder.floor
        self._f_mem = spec.mem_ladder.floor
        self._queue = ActivityQueue(self._phase_estimate)
        # Hardware-counter-style integrals, all monotonically increasing.
        self.busy_core_seconds = 0.0
        self.busy_mem_seconds = 0.0
        self.busy_seconds = 0.0
        self.energy_j = 0.0
        self.elapsed_seconds = 0.0
        self.kernel_launches = 0
        self.freq_transitions = 0
        self._power_epoch = -1
        self._power_w = 0.0
        self._refresh_rates()

    def _refresh_rates(self) -> None:
        self._f_core_ratio = self._f_core / self.spec.core_ladder.peak
        self._f_mem_ratio = self._f_mem / self.spec.mem_ladder.peak
        self._compute_rate = self.spec.peak_compute_rate * self._f_core_ratio
        self._bandwidth = self.spec.peak_bandwidth * self._f_mem_ratio

    def invalidate_caches(self) -> None:
        """Public cache invalidation (reference path and tests)."""
        self._queue.bump()

    # -- frequency control (nvidia-settings surface) --------------------------

    @property
    def f_core(self) -> float:
        """Current core-domain frequency in Hz."""
        return self._f_core

    @property
    def f_mem(self) -> float:
        """Current memory-domain frequency in Hz."""
        return self._f_mem

    @property
    def core_level(self) -> int:
        """Index of the current core frequency in the ladder (0 = peak)."""
        return self.spec.core_ladder.index_of(self._f_core)

    @property
    def mem_level(self) -> int:
        """Index of the current memory frequency in the ladder (0 = peak)."""
        return self.spec.mem_ladder.index_of(self._f_mem)

    def set_frequencies(self, f_core: float, f_mem: float) -> None:
        """Set both domain frequencies (must be exact ladder levels).

        Takes effect immediately; in-flight kernel phases keep their
        completed fraction and re-time the remainder at the new rates.
        """
        if f_core not in self.spec.core_ladder:
            raise FrequencyError(f"core frequency {f_core} not in ladder")
        if f_mem not in self.spec.mem_ladder:
            raise FrequencyError(f"memory frequency {f_mem} not in ladder")
        if f_core != self._f_core or f_mem != self._f_mem:
            self.freq_transitions += 1
            self._queue.bump()
        self._f_core = f_core
        self._f_mem = f_mem
        self._refresh_rates()

    def set_levels(self, core_level: int, mem_level: int) -> None:
        """Set frequencies by ladder index (0 = peak)."""
        self.set_frequencies(
            self.spec.core_ladder[core_level], self.spec.mem_ladder[mem_level]
        )

    def set_peak(self) -> None:
        """Run both domains at their peak frequencies (best-performance)."""
        self.set_frequencies(self.spec.core_ladder.peak, self.spec.mem_ladder.peak)

    # -- rates ----------------------------------------------------------------

    @property
    def compute_rate(self) -> float:
        """Current compute rate in flop/s."""
        return self._compute_rate

    @property
    def bandwidth(self) -> float:
        """Current DRAM bandwidth in bytes/s."""
        return self._bandwidth

    # -- work submission -------------------------------------------------------

    def submit_kernel(self, kernel: KernelActivity) -> None:
        """Enqueue a kernel; a launch-overhead stall is charged first."""
        if self.spec.launch_overhead_s > 0.0:
            self._queue.push(
                TransferActivity(self.spec.launch_overhead_s, label="launch")
            )
        self._queue.push(kernel)
        self.kernel_launches += 1

    def submit_transfer(self, transfer: TransferActivity) -> None:
        """Enqueue a DMA transfer (duration fixed by the bus model)."""
        self._queue.push(transfer)

    @property
    def busy(self) -> bool:
        """True while any queued activity is unfinished."""
        return self._queue.current_head() is not None

    def cancel_all(self) -> None:
        """Drop all queued work (used by tests and failure injection)."""
        self._queue.clear()

    # -- simulation stepping ----------------------------------------------------

    def _phase_estimate(self, kernel: KernelActivity) -> ExecutionEstimate:
        phase = kernel.current_phase
        return self.spec.roofline.estimate(
            phase.flops, phase.bytes, self._compute_rate, self._bandwidth, phase.stall_s
        )

    def time_to_event(self) -> float | None:
        """Seconds until the head activity finishes, or None when idle."""
        return self._queue.time_to_event()

    def instantaneous_utilization(self) -> tuple[float, float]:
        """Current (u_core, u_mem); zero when idle or stalled in a transfer."""
        head = self._queue.current_head()
        if head is None or isinstance(head, TransferActivity):
            return 0.0, 0.0
        est = self._queue.cached_estimate(head)
        return est.u_core, est.u_mem

    def instantaneous_power(self) -> float:
        """Current card power in watts (cached per queue epoch)."""
        epoch = self._queue.epoch
        if self._power_epoch != epoch:
            u_core, u_mem = self.instantaneous_utilization()
            self._power_w = self.spec.power.power_unchecked(
                self._f_core_ratio, self._f_mem_ratio, u_core, u_mem
            )
            self._power_epoch = epoch
        return self._power_w

    def instantaneous_power_uncached(self) -> float:
        """Current card power recomputed from scratch (reference path).

        Bypasses every epoch cache and goes through the checked public
        power-model API; bit-identical to :meth:`instantaneous_power`
        whenever the caches are coherent (the paired-oracle property test
        holds the two paths against each other).
        """
        head = self._queue.head
        if head is None or isinstance(head, TransferActivity):
            u_core, u_mem = 0.0, 0.0
        else:
            est = self._phase_estimate(head)
            u_core, u_mem = est.u_core, est.u_mem
        return self.spec.power.power(
            self._f_core / self.spec.core_ladder.peak,
            self._f_mem / self.spec.mem_ladder.peak,
            u_core,
            u_mem,
        )

    def advance(self, dt: float) -> None:
        """Advance the device by ``dt`` seconds of simulated time.

        Utilization and energy integrals accumulate at the rates in force
        before the step, and the head activity progresses
        (:meth:`ActivityQueue.advance` checks ``dt``).
        """
        u_core, u_mem = self.instantaneous_utilization()
        power = self.instantaneous_power()
        if self._queue.advance(dt):
            self.busy_seconds += dt
        self.energy_j += power * dt
        self.busy_core_seconds += u_core * dt
        self.busy_mem_seconds += u_mem * dt
        self.elapsed_seconds += dt
