"""Property-based tests for the clock and energy conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimClock
from repro.sim.meter import PowerMeter
from repro.sim.platform import make_testbed
from repro.sim.activity import KernelActivity, PhaseDemand


class TestClockProperties:
    @given(
        periods=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5),
        horizon=st.floats(1.0, 50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_firing_counts_match_periods(self, periods, horizon):
        clock = SimClock()
        counters = [0] * len(periods)

        def make_cb(i):
            def cb(t):
                counters[i] += 1
            return cb

        for i, p in enumerate(periods):
            clock.every(p, make_cb(i))
        clock.advance_to(horizon)
        for count, period in zip(counters, periods):
            # Accumulated float deadlines may straddle an exact multiple
            # of the horizon by one firing either way.
            assert abs(count - horizon / period) <= 1.0

    @given(steps=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30))
    def test_time_is_sum_of_advances(self, steps):
        clock = SimClock()
        for dt in steps:
            clock.advance_by(dt)
        assert clock.now == pytest.approx(sum(steps), rel=1e-9, abs=1e-9)


class TestEnergyConservation:
    @given(chunks=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_meter_energy_independent_of_step_granularity(self, chunks):
        """Splitting the same interval into arbitrary chunks integrates
        to the same energy (power is constant while idle)."""
        a = PowerMeter("a", lambda: 123.0)
        b = PowerMeter("b", lambda: 123.0)
        total = sum(chunks)
        a.accumulate(total)
        for dt in chunks:
            b.accumulate(dt)
        assert a.energy_j == pytest.approx(b.energy_j)

    @given(seconds=st.floats(0.5, 5.0), u=st.floats(0.1, 0.8))
    @settings(max_examples=15, deadline=None)
    def test_device_energy_equals_power_time_decomposition(self, seconds, u):
        """GPU energy over a single-phase kernel equals busy power x busy
        time + idle power x idle time."""
        system = make_testbed()
        gpu = system.gpu
        gpu.set_peak()
        spec = gpu.spec
        stall = spec.roofline.stall_for_utilizations(u, u / 2.0)
        kernel = KernelActivity([
            PhaseDemand(
                flops=u * seconds * spec.peak_compute_rate,
                bytes=(u / 2.0) * seconds * spec.peak_bandwidth,
                stall_s=stall * seconds,
            )
        ])
        gpu.submit_kernel(kernel)
        system.run_until_devices_idle()
        idle_tail = 1.5
        system.run_for(idle_tail)
        busy_power = spec.power.power(1.0, 1.0, u, u / 2.0)
        idle_power = spec.power.idle_power(1.0, 1.0)
        launch = spec.launch_overhead_s
        expected = (
            busy_power * seconds
            + idle_power * (idle_tail + launch)
        )
        assert gpu.energy_j == pytest.approx(expected, rel=1e-6)
