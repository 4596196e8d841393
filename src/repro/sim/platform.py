"""The assembled heterogeneous testbed: CPU + GPU cards + bus + meters + clock.

:class:`HeteroSystem` is the co-simulation driver.  It owns the simulated
clock, the CPU, one or more GPU cards, the PCIe bus and the wall meters
(Meter1 on the CPU box, one Meter2-style supply per card), and exposes a
single stepping primitive, :meth:`step`, which advances everything to the
next event (a controller tick, a device phase boundary, or a caller-imposed
horizon) without ever skipping one.  Power is piecewise constant between
events, so meter integrals are exact.

Card 0 is ``TestbedConfig.gpu`` (``system.gpu``, ``system.meter_gpu``);
``TestbedConfig.extra_gpus`` adds cards, each with its own supply and
meter (§VI's "one pthread for one GPU").

:func:`make_testbed` builds the default calibrated instance mirroring the
paper's Dell Optiplex 580 + GeForce 8800 GTX testbed (see
:mod:`repro.sim.calibration` for the constants and their provenance).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.bus import PcieBus
from repro.sim.cpu import CpuDevice, CpuSpec
from repro.sim.engine import SimClock
from repro.sim.gpu import GpuDevice, GpuSpec
from repro.sim.meter import PowerMeter

_MAX_STEPS_PER_RUN = 50_000_000


@dataclass(frozen=True)
class TestbedConfig:
    """Bundles the specs needed to assemble a :class:`HeteroSystem`."""

    gpu: GpuSpec
    cpu: CpuSpec
    bus: PcieBus
    meter1_overhead_w: float = 45.0   # motherboard + disk + DRAM on the box meter
    meter1_efficiency: float = 0.80   # desktop PSU efficiency (2010 era)
    meter2_overhead_w: float = 5.0    # standalone ATX supply idle draw
    meter2_efficiency: float = 0.78   # that supply's conversion efficiency
    meter_sample_period_s: float = 1.0
    # Bound on each meter's sample log; None keeps every window (historical
    # behavior).  When set, a full log is decimated 2:1 (see PowerMeter).
    sample_log_cap: int | None = None
    # GPU cards after the first; each gets a Meter2-style supply and meter.
    extra_gpus: tuple[GpuSpec, ...] = ()


class HeteroSystem:
    """Co-simulated GPU-CPU platform (see module docstring)."""

    def __init__(self, config: TestbedConfig):
        self.config = config
        self.clock = SimClock()
        self.gpus = tuple(GpuDevice(spec)
                          for spec in (config.gpu, *config.extra_gpus))
        self.gpu = self.gpus[0]
        self.cpu = CpuDevice(config.cpu)
        self.bus = config.bus
        # Meter1: wall power of the desktop box (CPU side), paper Fig. 4.
        self.meter_cpu = PowerMeter(
            "meter1-cpu-box",
            self.cpu.instantaneous_power,
            overhead_w=config.meter1_overhead_w,
            efficiency=config.meter1_efficiency,
            sample_period_s=config.meter_sample_period_s,
            sample_log_cap=config.sample_log_cap,
        )
        # Meter2: wall power of each GPU card's dedicated ATX supply.
        self.meter_gpus = tuple(
            PowerMeter(
                f"meter2-gpu{i or ''}-card",
                gpu.instantaneous_power,
                overhead_w=config.meter2_overhead_w,
                efficiency=config.meter2_efficiency,
                sample_period_s=config.meter_sample_period_s,
                sample_log_cap=config.sample_log_cap,
            )
            for i, gpu in enumerate(self.gpus)
        )
        self.meter_gpu = self.meter_gpus[0]
        self._cards = tuple(zip(self.gpus, self.meter_gpus))
        # (busy, f, on_change) while a controller has parked a CPU tick.
        self._cpu_watch: tuple[bool, float, Callable[[], None]] | None = None

    # -- measurement -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def gpu_energy_j(self) -> float:
        """Wall energy of every card's supply, in joules."""
        return sum(meter.energy_j for meter in self.meter_gpus)

    @property
    def total_energy_j(self) -> float:
        """Whole-system wall energy (every meter), in joules."""
        return self.meter_cpu.energy_j + self.gpu_energy_j

    def system_power(self) -> float:
        """Instantaneous whole-system wall power, in watts."""
        return self.meter_cpu.instantaneous_power() + sum(
            meter.instantaneous_power() for meter in self.meter_gpus)

    def idle_system_power(self) -> float:
        """Wall power with every device idle at its *current* frequencies."""
        c = self.config
        cpu_idle = self.cpu.spec.power.idle_power(self.cpu.f_ratio)
        return (cpu_idle + c.meter1_overhead_w) / c.meter1_efficiency + sum(
            (gpu.spec.power.idle_power(gpu.f_core / gpu.spec.core_ladder.peak,
                                       gpu.f_mem / gpu.spec.mem_ladder.peak)
             + c.meter2_overhead_w) / c.meter2_efficiency
            for gpu in self.gpus
        )

    def any_gpu_busy(self) -> bool:
        """True while any card has queued work."""
        return any(gpu.busy for gpu in self.gpus)

    def reset_meters(self) -> None:
        """Zero every meter (start of a measured experiment)."""
        for meter in (self.meter_cpu, *self.meter_gpus):
            meter.reset()

    def finalize_meters(self) -> None:
        """Flush every meter's trailing partial sample window (end of run)."""
        for meter in (self.meter_cpu, *self.meter_gpus):
            meter.finalize()

    # -- CPU watch ------------------------------------------------------------------

    def watch_cpu(self, on_change: Callable[[], None]) -> None:
        """Call ``on_change`` once the CPU's (busy, frequency) state moves.

        The check runs at the start of every step (both step paths), not
        inside one: a completion inside ``cpu.advance`` happens at a time
        the clock has not reached yet, so the first step that starts in
        a new state is the first moment a sampler at ``now`` could see it.
        One watch at a time; it is cleared before ``on_change`` runs.
        """
        self._cpu_watch = (self.cpu.busy, self.cpu.f, on_change)

    def unwatch_cpu(self) -> None:
        """Drop the CPU watch, if any, without calling it."""
        self._cpu_watch = None

    def _check_cpu_watch(self) -> None:
        busy, f, on_change = self._cpu_watch
        if self.cpu.busy != busy or self.cpu.f != f:
            self._cpu_watch = None
            on_change()

    # -- stepping -----------------------------------------------------------------

    def _next_dt(self, horizon: float | None) -> float:
        candidates: list[float] = []
        deadline = self.clock.next_deadline()
        if deadline is not None:
            candidates.append(max(0.0, deadline - self.clock.now))
        for device in (*self.gpus, self.cpu):
            tte = device.time_to_event()
            if tte is not None:
                candidates.append(tte)
        if horizon is not None:
            if horizon < 0.0:
                raise SimulationError("horizon must be non-negative")
            candidates.append(horizon)
        if not candidates:
            raise SimulationError(
                "nothing to simulate: no device work, no scheduled tasks, no horizon"
            )
        return min(candidates)

    def step(self, horizon: float | None = None) -> float:
        """Advance to the next event (bounded by ``horizon`` seconds ahead).

        Returns the dt actually advanced.  Order per step: integrate the
        meters at the *current* powers, advance the devices, then advance
        the clock (firing any due controller callbacks, which may change
        frequencies or submit work for subsequent steps).

        This is the hot path: the next-event search runs inline over
        locals with no candidate-list allocation, and device powers come
        from the epoch caches.  :meth:`_step_reference` is the kept
        uncached oracle; the paired property test pins the two to
        bit-identical trajectories.
        """
        if self._cpu_watch is not None:
            self._check_cpu_watch()
        clock = self.clock
        cpu = self.cpu
        dt: float | None = None
        deadline = clock.next_deadline()
        if deadline is not None:
            dt = deadline - clock.now
            if dt < 0.0:
                dt = 0.0
        for gpu in self.gpus:
            tte = gpu.time_to_event()
            if tte is not None and (dt is None or tte < dt):
                dt = tte
        tte = cpu.time_to_event()
        if tte is not None and (dt is None or tte < dt):
            dt = tte
        if horizon is not None:
            if horizon < 0.0:
                raise SimulationError("horizon must be non-negative")
            if dt is None or horizon < dt:
                dt = horizon
        if dt is None:
            raise SimulationError(
                "nothing to simulate: no device work, no scheduled tasks, no horizon"
            )
        # Feed the meters from the devices' epoch-cached powers with the
        # exact expression accumulate() would use.
        meter = self.meter_cpu
        meter.accumulate_from(
            (cpu.instantaneous_power() + meter.overhead_w) / meter.efficiency, dt
        )
        for gpu, meter in self._cards:
            meter.accumulate_from(
                (gpu.instantaneous_power() + meter.overhead_w) / meter.efficiency,
                dt,
            )
            gpu.advance(dt)
        cpu.advance(dt)
        clock.advance_by(dt)
        return dt

    def _step_reference(self, horizon: float | None = None) -> float:
        """Pre-optimization step loop, kept as the correctness oracle.

        Invalidates every epoch cache up front and feeds the meters from
        the devices' from-scratch checked power path, so nothing here
        depends on cache coherence.  Must stay bit-identical to
        :meth:`step` — the paired-oracle property test replays whole runs
        through both and compares every integral exactly.
        """
        for gpu in self.gpus:
            gpu.invalidate_caches()
        self.cpu.invalidate_caches()
        if self._cpu_watch is not None:
            self._check_cpu_watch()
        dt = self._next_dt(horizon)
        self.meter_cpu.accumulate_from(
            (self.cpu.instantaneous_power_uncached() + self.meter_cpu.overhead_w)
            / self.meter_cpu.efficiency,
            dt,
        )
        for gpu, meter in self._cards:
            meter.accumulate_from(
                (gpu.instantaneous_power_uncached() + meter.overhead_w)
                / meter.efficiency,
                dt,
            )
            gpu.advance(dt)
        self.cpu.advance(dt)
        self.clock.advance_by(dt)
        return dt

    def run_for(self, duration: float) -> None:
        """Advance exactly ``duration`` seconds, stepping through all events."""
        if duration < 0.0:
            raise SimulationError("duration must be non-negative")
        end = self.clock.now + duration
        steps = 0
        while self.clock.now < end - 1e-12:
            self.step(horizon=end - self.clock.now)
            steps += 1
            if steps > _MAX_STEPS_PER_RUN:
                raise SimulationError("step explosion: too many events in run_for")

    def run_until_devices_idle(self, timeout_s: float = 1.0e6) -> None:
        """Step until no device has queued work (spin does not block).

        Raises if the work does not drain within ``timeout_s`` of simulated
        time — that indicates a deadlocked experiment setup.
        """
        end = self.clock.now + timeout_s
        steps = 0
        while self.any_gpu_busy() or self.cpu.has_work:
            if self.clock.now >= end:
                raise SimulationError("devices still busy at timeout")
            self.step(horizon=end - self.clock.now)
            steps += 1
            if steps > _MAX_STEPS_PER_RUN:
                raise SimulationError("step explosion in run_until_devices_idle")


def make_testbed(config: TestbedConfig | None = None) -> HeteroSystem:
    """Build the default calibrated testbed (paper's hardware analogue)."""
    if config is None:
        from repro.sim.calibration import default_testbed_config

        config = default_testbed_config()
    return HeteroSystem(config)
