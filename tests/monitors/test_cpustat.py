"""Tests for the /proc/stat facade."""

import pytest

from repro.errors import SimulationError
from repro.monitors.cpustat import CpuStat
from repro.sim.activity import KernelActivity, PhaseDemand
from repro.sim.cpu import CpuDevice


class TestWindowedSampling:
    def test_idle_reads_zero(self, cpu_spec):
        cpu = CpuDevice(cpu_spec)
        stat = CpuStat(cpu)
        cpu.advance(1.0)
        assert stat.query().u == 0.0

    def test_spin_reads_full_utilization(self, cpu_spec):
        """The paper's §VII-A observation in monitor form."""
        cpu = CpuDevice(cpu_spec)
        stat = CpuStat(cpu)
        cpu.spin()
        cpu.advance(1.0)
        assert stat.query().u == 1.0

    @pytest.mark.parametrize("busy", [True, False])
    def test_rebase_restarts_the_window(self, cpu_spec, busy):
        cpu = CpuDevice(cpu_spec)
        stat = CpuStat(cpu)
        if busy:
            cpu.spin()
        cpu.advance(3.0)
        stat.rebase(0.5, busy)  # window now opens at t = 2.5
        cpu.stop_spin()
        cpu.advance(0.5)
        sample = stat.query()
        assert sample.window_s == pytest.approx(1.0)
        assert sample.u == pytest.approx(0.5 if busy else 0.0)

    def test_working_reads_full_utilization(self, cpu_spec):
        cpu = CpuDevice(cpu_spec)
        stat = CpuStat(cpu)
        cpu.submit_kernel(KernelActivity([PhaseDemand(cpu_spec.peak_compute_rate, 0.0)]))
        cpu.advance(0.5)
        assert stat.query().u == 1.0

    def test_mixed_window_fractional(self, cpu_spec):
        cpu = CpuDevice(cpu_spec)
        stat = CpuStat(cpu)
        cpu.spin()
        cpu.advance(1.0)
        cpu.stop_spin()
        cpu.advance(3.0)
        assert stat.query().u == pytest.approx(0.25)

    def test_sample_carries_pstate(self, cpu_spec):
        cpu = CpuDevice(cpu_spec)
        cpu.set_frequency(cpu_spec.ladder[2])
        stat = CpuStat(cpu)
        cpu.advance(1.0)
        assert stat.query().f == cpu_spec.ladder[2]

    def test_empty_window_raises(self, cpu_spec):
        with pytest.raises(SimulationError):
            CpuStat(CpuDevice(cpu_spec)).query()


class TestEdgeCases:
    def test_empty_window_raises_monitor_error(self, cpu_spec):
        """The zero-window crash is a MonitorError the controller can catch."""
        from repro.errors import MonitorError

        with pytest.raises(MonitorError):
            CpuStat(CpuDevice(cpu_spec)).query()

    def test_utilization_never_exceeds_one(self, cpu_spec):
        cpu = CpuDevice(cpu_spec)
        stat = CpuStat(cpu)
        cpu.spin()
        cpu.submit_kernel(
            KernelActivity([PhaseDemand(cpu_spec.peak_compute_rate, 0.0)])
        )
        cpu.advance(1.0)
        assert stat.query().u <= 1.0

    def test_f_reports_pstate_at_query_time(self, cpu_spec):
        """A mid-window P-state change shows the *current* frequency."""
        cpu = CpuDevice(cpu_spec)
        stat = CpuStat(cpu)
        cpu.advance(0.5)
        cpu.set_frequency(cpu_spec.ladder[3])
        cpu.advance(0.5)
        assert stat.query().f == cpu_spec.ladder[3]
