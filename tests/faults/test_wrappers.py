"""Tests for the fault-injecting monitor / actuator wrappers."""

import pytest

from repro.errors import ActuationError, MonitorError
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.wrappers import (
    FaultyCpuStat,
    FaultyGpuActuator,
    FaultyNvidiaSmi,
)
from repro.monitors.cpustat import CpuStat
from repro.monitors.nvsmi import NvidiaSmi
from repro.sim.cpu import CpuDevice
from repro.sim.gpu import GpuDevice
from repro.sim.calibration import geforce_8800_gtx_spec, phenom_ii_x2_spec


class ScriptedInjector:
    """Injector double firing a fixed per-kind verdict sequence.

    Rate-driven draws are seeded but not addressable per call site; tests
    of wrapper *semantics* need exact fault timing, so this double keeps
    the real bookkeeping (counts) while scripting the verdicts.
    """

    def __init__(self, **script):
        self._script = {k: list(v) for k, v in script.items()}
        self.counts = {}
        self.plan = FaultPlan(device_stall_duration_s=4.0)
        self._now = 0.0

    def fire(self, kind):
        seq = self._script.get(kind)
        hit = bool(seq.pop(0)) if seq else False
        if hit:
            self.counts[kind] = self.counts.get(kind, 0) + 1
        return hit

    def attach_actuator(self, actuator):
        pass

    @property
    def now(self):
        return self._now

    def advance(self, dt):
        self._now += dt


@pytest.fixture
def gpu():
    return GpuDevice(geforce_8800_gtx_spec())


@pytest.fixture
def cpu():
    return CpuDevice(phenom_ii_x2_spec())


class TestFaultyNvidiaSmi:
    def test_zero_rate_plan_is_transparent(self, gpu):
        clean = NvidiaSmi(gpu)
        faulty = FaultyNvidiaSmi(NvidiaSmi(gpu), FaultInjector(FaultPlan()))
        gpu.advance(1.0)
        a, b = clean.query(), faulty.query()
        assert (a.t, a.window_s, a.u_core, a.u_mem) == (b.t, b.window_s, b.u_core, b.u_mem)

    def test_timeout_does_not_consume_window(self, gpu):
        smi = FaultyNvidiaSmi(
            NvidiaSmi(gpu), ScriptedInjector(gpu_monitor_timeout=[True, False])
        )
        gpu.advance(1.0)
        with pytest.raises(MonitorError):
            smi.query()
        gpu.advance(1.0)
        # The stalled read never happened: next success spans both windows.
        assert smi.query().window_s == pytest.approx(2.0)

    def test_drop_consumes_window(self, gpu):
        smi = FaultyNvidiaSmi(
            NvidiaSmi(gpu), ScriptedInjector(gpu_monitor_drop=[True, False])
        )
        gpu.advance(1.0)
        with pytest.raises(MonitorError):
            smi.query()
        gpu.advance(1.0)
        # The read completed before the sample was lost: window restarted.
        assert smi.query().window_s == pytest.approx(1.0)

    def test_freeze_returns_zero_utilization(self, gpu):
        gpu.set_peak()
        smi = FaultyNvidiaSmi(
            NvidiaSmi(gpu), ScriptedInjector(gpu_monitor_freeze=[True])
        )
        gpu.advance(1.0)
        sample = smi.query()
        assert sample.u_core == 0.0 and sample.u_mem == 0.0
        assert sample.f_core == gpu.f_core  # clocks still report truthfully

    def test_peek_clocks_passthrough(self, gpu):
        smi = FaultyNvidiaSmi(NvidiaSmi(gpu), FaultInjector(FaultPlan()))
        assert smi.peek_clocks() == (gpu.f_core, gpu.f_mem)


class TestFaultyCpuStat:
    def test_timeout_then_clean_read(self, cpu):
        stat = FaultyCpuStat(
            CpuStat(cpu), ScriptedInjector(cpu_monitor_timeout=[True, False])
        )
        cpu.advance(0.5)
        with pytest.raises(MonitorError):
            stat.query()
        cpu.advance(0.5)
        assert stat.query().window_s == pytest.approx(1.0)

    def test_freeze_returns_zero_utilization(self, cpu):
        cpu.spin()
        stat = FaultyCpuStat(CpuStat(cpu), ScriptedInjector(cpu_monitor_freeze=[True]))
        cpu.advance(1.0)
        assert stat.query().u == 0.0


class TestFaultyGpuActuator:
    def peak(self, gpu):
        spec = gpu.spec
        return spec.core_ladder.peak, spec.mem_ladder.peak

    def test_clean_write_passes_through(self, gpu):
        act = FaultyGpuActuator(gpu, FaultInjector(FaultPlan()))
        act.set_frequencies(*self.peak(gpu))
        assert gpu.f_core == gpu.spec.core_ladder.peak

    def test_rejected_write_raises_and_leaves_clocks(self, gpu):
        act = FaultyGpuActuator(gpu, ScriptedInjector(actuator_reject=[True]))
        before = (gpu.f_core, gpu.f_mem)
        with pytest.raises(ActuationError):
            act.set_frequencies(*self.peak(gpu))
        assert (gpu.f_core, gpu.f_mem) == before

    def test_ignored_write_is_silent_and_does_nothing(self, gpu):
        act = FaultyGpuActuator(gpu, ScriptedInjector(actuator_ignore=[True]))
        before = (gpu.f_core, gpu.f_mem)
        act.set_frequencies(*self.peak(gpu))  # no exception
        assert (gpu.f_core, gpu.f_mem) == before

    def test_offby_lands_one_level_low(self, gpu):
        act = FaultyGpuActuator(gpu, ScriptedInjector(actuator_offby=[True]))
        act.set_frequencies(*self.peak(gpu))
        assert gpu.core_level == 1
        assert gpu.mem_level == 1

    def test_offby_clamps_at_floor(self, gpu):
        act = FaultyGpuActuator(gpu, ScriptedInjector(actuator_offby=[True]))
        spec = gpu.spec
        act.set_frequencies(spec.core_ladder.floor, spec.mem_ladder.floor)
        assert gpu.f_core == spec.core_ladder.floor

    def test_stall_pins_floor_and_swallows_writes_until_expiry(self, gpu):
        gpu.set_peak()
        injector = ScriptedInjector(device_stall=[True, False, False])
        act = FaultyGpuActuator(gpu, injector)
        act.set_frequencies(*self.peak(gpu))  # draw hits: stall begins
        assert act.stalled
        assert gpu.f_core == gpu.spec.core_ladder.floor
        act.set_frequencies(*self.peak(gpu))  # swallowed while pinned
        assert gpu.f_core == gpu.spec.core_ladder.floor
        injector.advance(4.0)  # plan's device_stall_duration_s
        assert not act.stalled
        act.set_frequencies(*self.peak(gpu))  # recovered: write lands
        assert gpu.f_core == gpu.spec.core_ladder.peak
