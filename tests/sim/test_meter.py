"""Tests for the WattsUp-style power meter."""

import pytest

from repro.errors import ConfigError, MeterError
from repro.sim.meter import PowerMeter


def constant(p):
    return lambda: p


class TestIntegration:
    def test_energy_integral(self):
        meter = PowerMeter("m", constant(100.0))
        meter.accumulate(10.0)
        assert meter.energy_j == pytest.approx(1000.0)
        assert meter.elapsed_s == 10.0

    def test_overhead_and_efficiency(self):
        meter = PowerMeter("m", constant(100.0), overhead_w=10.0, efficiency=0.5)
        assert meter.instantaneous_power() == pytest.approx(220.0)

    def test_piecewise_constant_exact(self):
        power = [50.0]
        meter = PowerMeter("m", lambda: power[0])
        meter.accumulate(2.0)
        power[0] = 150.0
        meter.accumulate(2.0)
        assert meter.energy_j == pytest.approx(400.0)

    def test_average_power(self):
        meter = PowerMeter("m", constant(80.0))
        meter.accumulate(5.0)
        assert meter.average_power() == pytest.approx(80.0)

    def test_average_power_without_time_raises(self):
        with pytest.raises(MeterError):
            PowerMeter("m", constant(1.0)).average_power()

    def test_zero_dt_noop(self):
        meter = PowerMeter("m", constant(1.0))
        meter.accumulate(0.0)
        assert meter.energy_j == 0.0

    def test_negative_dt_raises(self):
        with pytest.raises(MeterError):
            PowerMeter("m", constant(1.0)).accumulate(-1.0)


class TestSampleLog:
    def test_one_sample_per_period(self):
        meter = PowerMeter("m", constant(42.0), sample_period_s=1.0)
        meter.accumulate(3.0)
        assert meter.samples == pytest.approx([42.0, 42.0, 42.0])

    def test_samples_average_within_window(self):
        power = [100.0]
        meter = PowerMeter("m", lambda: power[0], sample_period_s=1.0)
        meter.accumulate(0.5)
        power[0] = 0.0
        meter.accumulate(0.5)
        assert meter.samples == pytest.approx([50.0])

    def test_partial_window_not_emitted(self):
        meter = PowerMeter("m", constant(1.0), sample_period_s=1.0)
        meter.accumulate(0.7)
        assert meter.samples == []

    def test_long_dt_spans_many_windows(self):
        meter = PowerMeter("m", constant(5.0), sample_period_s=0.25)
        meter.accumulate(1.0)
        assert len(meter.samples) == 4


class TestFinalize:
    def test_flushes_trailing_partial_window(self):
        meter = PowerMeter("m", constant(10.0), sample_period_s=1.0)
        meter.accumulate(2.7)
        assert len(meter.samples) == 2
        meter.finalize()
        assert meter.samples == pytest.approx([10.0, 10.0, 10.0])

    def test_partial_window_average_is_exact(self):
        power = [100.0]
        meter = PowerMeter("m", lambda: power[0], sample_period_s=1.0)
        meter.accumulate(1.2)  # closes one window, opens 0.2 s at 100 W
        power[0] = 0.0
        meter.accumulate(0.2)  # 0.4 s open: half at 100 W, half at 0 W
        meter.finalize()
        assert meter.samples == pytest.approx([100.0, 50.0])

    def test_idempotent_and_safe_on_fresh_meter(self):
        meter = PowerMeter("m", constant(1.0))
        meter.finalize()
        assert meter.samples == []
        meter.accumulate(1.5)
        meter.finalize()
        meter.finalize()
        assert len(meter.samples) == 2

    def test_exact_whole_windows_leave_nothing_to_flush(self):
        meter = PowerMeter("m", constant(7.0), sample_period_s=0.5)
        meter.accumulate(2.0)
        meter.finalize()
        assert meter.samples == pytest.approx([7.0] * 4)

    def test_energy_integral_unaffected(self):
        meter = PowerMeter("m", constant(30.0))
        meter.accumulate(2.5)
        before = meter.energy_j
        meter.finalize()
        assert meter.energy_j == before
        assert meter.elapsed_s == 2.5


class TestFastForwardEquivalence:
    """The O(1) multi-window advance must match a per-window loop."""

    def test_many_windows_single_call_matches_loop(self):
        fast = PowerMeter("fast", constant(12.5), sample_period_s=0.25)
        slow = PowerMeter("slow", constant(12.5), sample_period_s=0.25)
        fast.accumulate(103.37)
        step = 0.01
        for _ in range(int(round(103.37 / step))):
            slow.accumulate(step)
        slow.finalize()
        fast.finalize()
        assert fast.energy_j == pytest.approx(slow.energy_j)
        assert len(fast.samples) == len(slow.samples)
        assert fast.samples == pytest.approx(slow.samples)

    def test_window_boundary_epsilon(self):
        # A dt that lands within 1e-12 of the boundary closes the window
        # instead of leaving a sliver open (matches the old loop).
        meter = PowerMeter("m", constant(3.0), sample_period_s=0.1)
        for _ in range(10):
            meter.accumulate(0.1)
        assert len(meter.samples) == 10
        meter.finalize()
        assert len(meter.samples) == 10


class TestSampleLogCap:
    def test_cap_bounds_log_and_doubles_stride(self):
        meter = PowerMeter("m", constant(5.0), sample_period_s=1.0,
                           sample_log_cap=8)
        meter.accumulate(100.0)
        assert len(meter.samples) <= 8
        assert meter.sample_stride > 1
        assert meter.samples == pytest.approx([5.0] * len(meter.samples))

    def test_uncapped_by_default(self):
        meter = PowerMeter("m", constant(5.0), sample_period_s=1.0)
        meter.accumulate(100.0)
        assert len(meter.samples) == 100
        assert meter.sample_stride == 1

    def test_decimation_keeps_every_other_sample(self):
        ramp = [0.0]
        meter = PowerMeter("m", lambda: ramp[0], sample_period_s=1.0,
                           sample_log_cap=4)
        for i in range(8):
            ramp[0] = float(i)
            meter.accumulate(1.0)
        # 8 windows 0..7, decimated once (stride 2): indexes 0, 2, 4, 6.
        assert meter.sample_stride == 2
        assert meter.samples == pytest.approx([0.0, 2.0, 4.0, 6.0])

    def test_rejects_cap_below_two(self):
        with pytest.raises(ConfigError):
            PowerMeter("m", constant(1.0), sample_log_cap=1)

    def test_reset_restores_stride(self):
        meter = PowerMeter("m", constant(1.0), sample_log_cap=2)
        meter.accumulate(10.0)
        assert meter.sample_stride > 1
        meter.reset()
        assert meter.sample_stride == 1
        assert meter.samples == []


class TestLifecycle:
    def test_reset(self):
        meter = PowerMeter("m", constant(1.0))
        meter.accumulate(5.0)
        meter.reset()
        assert meter.energy_j == 0.0
        assert meter.elapsed_s == 0.0
        assert meter.samples == []

    def test_rejects_empty_sources(self):
        with pytest.raises(ConfigError):
            PowerMeter("m", [])
        with pytest.raises(ConfigError):
            PowerMeter("m", None)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigError):
            PowerMeter("m", constant(1.0), efficiency=0.0)
        with pytest.raises(ConfigError):
            PowerMeter("m", constant(1.0), efficiency=1.5)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ConfigError):
            PowerMeter("m", constant(1.0), overhead_w=-1.0)

    def test_rejects_bad_sample_period(self):
        with pytest.raises(ConfigError):
            PowerMeter("m", constant(1.0), sample_period_s=0.0)
