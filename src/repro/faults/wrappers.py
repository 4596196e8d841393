"""Fault-injecting wrappers for monitors, the GPU actuator and the meters.

Each wrapper mirrors the :class:`~repro.monitors.noise.NoisyNvidiaSmi`
pattern: it wraps the clean component, consults the shared
:class:`~repro.faults.injector.FaultInjector` at every decision point,
and otherwise passes through untouched.  With a zero-rate plan every
wrapper is bit-transparent.

Fault semantics, matched to how the real tools fail:

- **query timeout** — the read never completes, so the underlying
  counter window is *not* consumed; the next successful read covers the
  union of both windows (exactly like re-running a stalled
  ``nvidia-smi``);
- **dropped sample** — the read completed but the data was lost in
  transit, so the window *is* consumed;
- **frozen counters** — the hardware counters did not advance over the
  window, so the reading comes back as zero utilization at full
  plausibility (the classic frozen-counter signature);
- **rejected write** — ``nvidia-settings`` returns an error
  (:class:`~repro.errors.ActuationError`);
- **ignored write** — the tool reports success but the clocks never
  change (only post-write verification can catch this);
- **off-by-one write** — the clocks land one ladder level below the
  request;
- **thermal-throttle episode** — the device pins both domains to their
  floor frequencies and ignores writes for the episode's duration;
- **meter sample loss** — a 1 Hz WattsUp log entry disappears (the
  exact energy integral is unaffected — sample loss corrupts the *log*,
  not physics).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ActuationError, MonitorError
from repro.faults.injector import FaultInjector
from repro.monitors.cpustat import CpuStat, CpuUtilizationSample
from repro.monitors.nvsmi import GpuUtilizationSample, NvidiaSmi
from repro.sim.gpu import GpuDevice
from repro.sim.meter import PowerMeter


class FaultyNvidiaSmi:
    """``nvidia-smi`` facade with injected timeouts, drops and freezes."""

    def __init__(self, inner: NvidiaSmi, injector: FaultInjector):
        self._inner = inner
        self._injector = injector

    def query(self) -> GpuUtilizationSample:
        if self._injector.fire("gpu_monitor_timeout"):
            raise MonitorError("injected: nvidia-smi query timed out")
        sample = self._inner.query()
        if self._injector.fire("gpu_monitor_drop"):
            raise MonitorError("injected: GPU utilization sample dropped")
        if self._injector.fire("gpu_monitor_freeze"):
            return GpuUtilizationSample(
                t=sample.t,
                window_s=sample.window_s,
                u_core=0.0,
                u_mem=0.0,
                f_core=sample.f_core,
                f_mem=sample.f_mem,
            )
        return sample

    def peek_clocks(self) -> tuple[float, float]:
        return self._inner.peek_clocks()


class FaultyCpuStat:
    """``/proc/stat`` facade with injected timeouts, drops and freezes."""

    def __init__(self, inner: CpuStat, injector: FaultInjector):
        self._inner = inner
        self._injector = injector

    def query(self) -> CpuUtilizationSample:
        if self._injector.fire("cpu_monitor_timeout"):
            raise MonitorError("injected: /proc/stat read timed out")
        sample = self._inner.query()
        if self._injector.fire("cpu_monitor_drop"):
            raise MonitorError("injected: CPU utilization sample dropped")
        if self._injector.fire("cpu_monitor_freeze"):
            return CpuUtilizationSample(
                t=sample.t, window_s=sample.window_s, u=0.0, f=sample.f
            )
        return sample

    def rebase(self, back_s: float, busy: bool) -> None:
        """Window bookkeeping, not a read: no fault applies."""
        self._inner.rebase(back_s, busy)


class FaultyGpuActuator:
    """``nvidia-settings`` surface with rejected/ignored/skewed writes.

    Also owns the transient thermal-throttle state: while an episode is
    active both domains are pinned at their floor frequencies and every
    write is silently ignored (the controller's post-write verification
    is what detects this).
    """

    def __init__(self, gpu: GpuDevice, injector: FaultInjector):
        self._gpu = gpu
        self._injector = injector
        self._stall_until = -1.0
        injector.attach_actuator(self)

    # -- thermal-throttle episodes ---------------------------------------------

    @property
    def stalled(self) -> bool:
        """True while a throttle episode pins the clocks."""
        return self._injector.now < self._stall_until

    def begin_stall(self, duration_s: float) -> None:
        """Start a throttle episode: pin both domains to their floors."""
        self._stall_until = self._injector.now + duration_s
        spec = self._gpu.spec
        self._gpu.set_frequencies(spec.core_ladder.floor, spec.mem_ladder.floor)

    # -- nvidia-settings surface -----------------------------------------------

    def set_frequencies(self, f_core: float, f_mem: float) -> None:
        if self.stalled:
            return  # pinned: the write is swallowed by the throttled device
        injector = self._injector
        if injector.fire("device_stall"):
            self.begin_stall(injector.plan.device_stall_duration_s)
            return
        if injector.fire("actuator_reject"):
            raise ActuationError("injected: frequency write rejected")
        if injector.fire("actuator_ignore"):
            return
        if injector.fire("actuator_offby"):
            spec = self._gpu.spec
            core = min(spec.core_ladder.index_of(f_core) + 1, len(spec.core_ladder) - 1)
            mem = min(spec.mem_ladder.index_of(f_mem) + 1, len(spec.mem_ladder) - 1)
            self._gpu.set_frequencies(spec.core_ladder[core], spec.mem_ladder[mem])
            return
        self._gpu.set_frequencies(f_core, f_mem)


class LossyPowerMeter(PowerMeter):
    """WattsUp-style meter whose 1 Hz sample log drops entries.

    The continuous energy integral is the simulation's ground truth and
    is never touched; only the discrete ``samples`` log loses entries,
    mirroring the real instrument's serial-link hiccups.
    """

    def __init__(
        self,
        name: str,
        sources: list[Callable[[], float]],
        injector: FaultInjector,
        overhead_w: float = 0.0,
        efficiency: float = 1.0,
        sample_period_s: float = 1.0,
    ):
        super().__init__(
            name,
            sources,
            overhead_w=overhead_w,
            efficiency=efficiency,
            sample_period_s=sample_period_s,
        )
        self._injector = injector
        self.dropped_samples = 0

    def accumulate(self, dt: float) -> None:
        before = len(self.samples)
        super().accumulate(dt)
        kept = []
        for sample in self.samples[before:]:
            if self._injector.fire("meter_sample_loss"):
                self.dropped_samples += 1
            else:
                kept.append(sample)
        self.samples[before:] = kept
