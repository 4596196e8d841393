"""Simulated DVFS-capable multi-core CPU.

Models the paper's AMD Phenom II X2: a small set of P-states
(2.8/2.1/1.3/0.8 GHz), package-level DVFS, and a /proc/stat-style busy-time
counter that the `ondemand` governor differentiates.

Two execution modes matter for the reproduction:

- **Working** — the CPU runs its share of the divided workload (an OpenMP
  region in the paper).  Compute rate scales linearly with frequency; the
  memory component uses fixed host-DRAM bandwidth.
- **Spinning** — the paper's benchmarks use *synchronized* GPU-CPU
  communication, so the host thread busy-waits at 100 % utilization while
  the GPU computes (§VII-A: "the CPU has a utilization of 100 % even when
  it is idling").  Spinning burns active power but makes no progress, and
  it is why stock `ondemand` cannot throttle the CPU in the paper's
  testbed.  Spin time and spin energy are tracked separately so the
  paper's Fig. 6c emulation (replace spin energy with lowest-P-state idle
  energy) can be computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FrequencyError, SimulationError
from repro.sim.activity import ActivityQueue, KernelActivity
from repro.sim.frequency import FrequencyLadder
from repro.sim.perf import ExecutionEstimate, RooflineModel
from repro.sim.power import CpuPowerModel


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a simulated CPU package.

    ``peak_compute_rate`` is the aggregate flop/s of all cores at the peak
    P-state; ``host_bandwidth`` is the (frequency-independent) DRAM
    bandwidth available to CPU kernels.
    """

    name: str
    ladder: FrequencyLadder
    cores: int
    peak_compute_rate: float
    host_bandwidth: float
    power: CpuPowerModel
    roofline: RooflineModel = field(default_factory=lambda: RooflineModel(2.0))

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise SimulationError("need at least one core")
        if self.peak_compute_rate <= 0.0 or self.host_bandwidth <= 0.0:
            raise SimulationError("rates must be positive")


class CpuDevice:
    """Stateful simulated CPU (see module docstring).

    Its FIFO runs on an :class:`~repro.sim.activity.ActivityQueue`, as
    :class:`~repro.sim.gpu.GpuDevice`'s does; the package adds its
    P-state, spin, integrals and a power cache keyed on the queue's epoch.
    """

    def __init__(self, spec: CpuSpec):
        self.spec = spec
        self._f = spec.ladder.peak
        self._queue = ActivityQueue(self._phase_estimate)
        self._spinning = False
        # /proc/stat-style integrals (monotonic).
        self.busy_seconds = 0.0          # working or spinning
        self.work_seconds = 0.0          # working only
        self.spin_seconds = 0.0
        self.energy_j = 0.0
        self.spin_energy_j = 0.0
        self.elapsed_seconds = 0.0
        self.freq_transitions = 0
        self._power_epoch = -1
        self._power_w = 0.0
        self._refresh_rates()

    def _refresh_rates(self) -> None:
        self._f_ratio = self._f / self.spec.ladder.peak
        self._compute_rate = self.spec.peak_compute_rate * self._f_ratio

    def invalidate_caches(self) -> None:
        """Public cache invalidation (reference path and tests)."""
        self._queue.bump()

    # -- P-state control (cpufreq surface) -------------------------------------

    @property
    def f(self) -> float:
        """Current package frequency in Hz."""
        return self._f

    @property
    def level(self) -> int:
        """Current P-state index (0 = peak)."""
        return self.spec.ladder.index_of(self._f)

    def set_frequency(self, f: float) -> None:
        """Set the package frequency (must be an exact P-state)."""
        if f not in self.spec.ladder:
            raise FrequencyError(f"{f} Hz is not a P-state of {self.spec.name}")
        if f != self._f:
            self.freq_transitions += 1
            self._queue.bump()
        self._f = f
        self._refresh_rates()

    def set_peak(self) -> None:
        self.set_frequency(self.spec.ladder.peak)

    # -- rates ------------------------------------------------------------------

    @property
    def f_ratio(self) -> float:
        return self._f_ratio

    @property
    def compute_rate(self) -> float:
        """Aggregate compute rate in flop/s at the current P-state."""
        return self._compute_rate

    # -- work submission ----------------------------------------------------------

    def submit_kernel(self, kernel: KernelActivity) -> None:
        """Enqueue a CPU kernel (the OpenMP share of an iteration)."""
        self._queue.push(kernel)

    @property
    def has_work(self) -> bool:
        """True while queued kernels are unfinished (spin does not count)."""
        return self._queue.current_head() is not None

    @property
    def busy(self) -> bool:
        """True while working or spinning (what /proc/stat reports)."""
        return self._queue.current_head() is not None or self._spinning

    def spin(self) -> None:
        """Enter busy-wait (synchronized GPU communication)."""
        if not self._spinning:
            self._spinning = True
            self._queue.bump()

    def stop_spin(self) -> None:
        """Leave busy-wait."""
        if self._spinning:
            self._spinning = False
            self._queue.bump()

    @property
    def spinning(self) -> bool:
        return self._spinning

    def cancel_all(self) -> None:
        self._spinning = False
        self._queue.clear()

    # -- simulation stepping --------------------------------------------------

    def _phase_estimate(self, kernel: KernelActivity) -> ExecutionEstimate:
        phase = kernel.current_phase
        return self.spec.roofline.estimate(
            phase.flops,
            phase.bytes,
            self._compute_rate,
            self.spec.host_bandwidth,
            phase.stall_s,
        )

    def time_to_event(self) -> float | None:
        """Seconds to the next internal event; None when idle or spinning."""
        return self._queue.time_to_event()

    def instantaneous_utilization(self) -> float:
        """Package utilization as /proc/stat would report it."""
        return 1.0 if self.busy else 0.0

    def instantaneous_power(self) -> float:
        """Current package power in watts (cached per queue epoch)."""
        epoch = self._queue.epoch
        if self._power_epoch != epoch:
            self._power_w = self.spec.power.power_unchecked(
                self._f_ratio, self.instantaneous_utilization()
            )
            self._power_epoch = epoch
        return self._power_w

    def instantaneous_power_uncached(self) -> float:
        """Current package power recomputed from scratch (reference path).

        Bypasses the epoch cache and goes through the checked public
        power-model API; bit-identical to :meth:`instantaneous_power`
        whenever the caches are coherent.
        """
        return self.spec.power.power(
            self._f / self.spec.ladder.peak, self.instantaneous_utilization()
        )

    def advance(self, dt: float) -> None:
        """Advance the device by ``dt`` seconds of simulated time
        (:meth:`ActivityQueue.advance` checks ``dt``)."""
        power = self.instantaneous_power()
        if self._queue.advance(dt):
            self.busy_seconds += dt
            self.work_seconds += dt
        elif self._spinning:
            self.busy_seconds += dt
            self.spin_seconds += dt
            self.spin_energy_j += power * dt
        self.energy_j += power * dt
        self.elapsed_seconds += dt

    # -- Fig. 6c emulation helper -------------------------------------------------

    def emulated_energy_with_idle_spin(self) -> float:
        """Total energy if every spin period had idled at the lowest P-state.

        Implements the paper's §VII-A emulation: "we replace the CPU energy
        with the average CPU energy at the lowest frequency level" whenever
        the CPU is only waiting for the GPU.
        """
        floor_ratio = self.spec.ladder.floor / self.spec.ladder.peak
        idle_floor_w = self.spec.power.idle_power(floor_ratio)
        return self.energy_j - self.spin_energy_j + self.spin_seconds * idle_floor_w
