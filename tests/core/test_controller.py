"""Tests for the assembled two-tier controller."""

import numpy as np
import pytest

from repro.core.controller import GreenGpuController, TierMode
from repro.errors import SimulationError
from repro.sim.trace import TraceRecorder


class TestTierMode:
    def test_holistic_enables_both(self):
        assert TierMode.HOLISTIC.division_enabled
        assert TierMode.HOLISTIC.scaling_enabled

    def test_division_only(self):
        assert TierMode.DIVISION_ONLY.division_enabled
        assert not TierMode.DIVISION_ONLY.scaling_enabled

    def test_scaling_only(self):
        assert not TierMode.SCALING_ONLY.division_enabled
        assert TierMode.SCALING_ONLY.scaling_enabled

    def test_none_disables_both(self):
        assert not TierMode.NONE.division_enabled
        assert not TierMode.NONE.scaling_enabled


class TestLifecycle:
    def test_attach_builds_components(self, testbed, fast_config):
        ctrl = GreenGpuController(TierMode.HOLISTIC, fast_config)
        ctrl.attach(testbed)
        assert ctrl.scaler is not None
        assert ctrl.governor is not None
        assert ctrl.divider is not None
        ctrl.detach()

    def test_none_mode_builds_nothing(self, testbed, fast_config):
        ctrl = GreenGpuController(TierMode.NONE, fast_config)
        ctrl.attach(testbed)
        assert ctrl.scaler is None and ctrl.divider is None

    def test_double_attach_raises(self, testbed, fast_config):
        ctrl = GreenGpuController(TierMode.NONE, fast_config)
        ctrl.attach(testbed)
        with pytest.raises(SimulationError):
            ctrl.attach(testbed)

    def test_detach_cancels_ticks(self, testbed, fast_config):
        ctrl = GreenGpuController(TierMode.SCALING_ONLY, fast_config)
        ctrl.attach(testbed)
        scaler = ctrl.scaler  # detach() drops the reference; keep ours
        ctrl.detach()
        decisions_before = scaler.decisions
        testbed.run_for(10 * fast_config.scaling_interval_s)
        assert scaler.decisions == decisions_before

    def test_detach_resets_learned_state(self, testbed, fast_config):
        """detach -> attach must not leak weights/ratio into the new run."""
        ctrl = GreenGpuController(
            TierMode.HOLISTIC, fast_config, initial_ratio=0.30
        )
        ctrl.attach(testbed)
        ctrl.on_iteration_end(tc=10.0, tg=1.0)   # learn: ratio moves off 0.30
        testbed.run_for(3 * fast_config.scaling_interval_s)  # scaler steps
        assert ctrl.ratio != pytest.approx(0.30)
        ctrl.detach()
        assert ctrl.scaler is None
        assert ctrl.governor is None
        assert ctrl.divider is None

        from repro.sim.platform import make_testbed

        fresh = make_testbed()
        ctrl.attach(fresh)
        assert ctrl.ratio == pytest.approx(0.30)       # divider re-seeded
        assert ctrl.scaler.decisions == 0              # fresh WMA state
        ctrl.detach()


class TestScalingLoop:
    def test_idle_system_throttles_gpu_to_floor(self, testbed, fast_config):
        testbed.gpu.set_peak()
        ctrl = GreenGpuController(TierMode.SCALING_ONLY, fast_config)
        ctrl.attach(testbed)
        testbed.run_for(10 * fast_config.scaling_interval_s)
        assert testbed.gpu.f_core == testbed.gpu.spec.core_ladder.floor
        assert testbed.gpu.f_mem == testbed.gpu.spec.mem_ladder.floor

    def test_idle_cpu_walks_down(self, testbed, fast_config):
        ctrl = GreenGpuController(TierMode.SCALING_ONLY, fast_config)
        ctrl.attach(testbed)
        testbed.run_for(20 * fast_config.ondemand_interval_s)
        assert testbed.cpu.f == testbed.cpu.spec.ladder.floor

    def test_spinning_cpu_stays_at_peak(self, testbed, fast_config):
        ctrl = GreenGpuController(TierMode.SCALING_ONLY, fast_config)
        ctrl.attach(testbed)
        testbed.cpu.spin()
        testbed.run_for(20 * fast_config.ondemand_interval_s)
        assert testbed.cpu.f == testbed.cpu.spec.ladder.peak

    def test_recorder_collects_channels(self, testbed, fast_config):
        rec = TraceRecorder()
        ctrl = GreenGpuController(TierMode.SCALING_ONLY, fast_config, recorder=rec)
        ctrl.attach(testbed)
        testbed.run_for(3 * fast_config.scaling_interval_s)
        for channel in ("gpu_u_core", "gpu_f_core", "gpu_f_mem", "cpu_f"):
            assert channel in rec


class TestDivisionBoundary:
    def test_ratio_updates_on_iteration_end(self, testbed, fast_config):
        ctrl = GreenGpuController(
            TierMode.DIVISION_ONLY, fast_config, initial_ratio=0.30
        )
        ctrl.attach(testbed)
        r = ctrl.on_iteration_end(tc=10.0, tg=1.0)
        assert r == pytest.approx(0.25)
        assert ctrl.ratio == pytest.approx(0.25)

    def test_ratio_fixed_without_division_tier(self, testbed, fast_config):
        ctrl = GreenGpuController(
            TierMode.SCALING_ONLY, fast_config, initial_ratio=0.40
        )
        ctrl.attach(testbed)
        assert ctrl.on_iteration_end(10.0, 1.0) == 0.40

    def test_default_ratio_is_all_gpu(self, fast_config):
        ctrl = GreenGpuController(TierMode.NONE, fast_config)
        assert ctrl.ratio == 0.0


def _grid_ticks(period: float, now: float) -> int:
    """Ticks a never-parked task of ``period`` fires by ``now``."""
    n, deadline = 0, period
    while deadline <= now:
        n += 1
        deadline += period
    return n


class TestOndemandParking:
    """A tick whose decision provably holds leaves the clock; the skipped
    grid ticks are accounted exactly when the CPU state moves."""

    def _run_spin_then_idle(self, testbed, ctrl, fast_config):
        interval = fast_config.ondemand_interval_s
        ctrl.attach(testbed)
        testbed.cpu.spin()
        testbed.run_for(20.5 * interval)
        testbed.cpu.stop_spin()
        testbed.run_for(20 * interval)

    def test_parked_trace_equals_ticking_trace(self, fast_config):
        from repro.sim.platform import make_testbed

        traces = []
        for park in (True, False):
            rec = TraceRecorder()
            ctrl = GreenGpuController(TierMode.SCALING_ONLY, fast_config,
                                      recorder=rec)
            if not park:
                ctrl._maybe_park = lambda: None
            testbed = make_testbed()
            self._run_spin_then_idle(testbed, ctrl, fast_config)
            ctrl.detach()
            traces.append((rec.trace("cpu_u"), rec.trace("cpu_f")))
        (u_park, f_park), (u_tick, f_tick) = traces
        assert np.array_equal(f_park.times, f_tick.times)
        assert np.array_equal(f_park.values, f_tick.values)
        assert np.array_equal(u_park.times, u_tick.times)
        np.testing.assert_allclose(u_park.values, u_tick.values,
                                   rtol=0.0, atol=1e-9)
        # The idle tail walked down to the floor and parked there.
        assert f_park.values[-1] == f_park.values.min()

    def test_skipped_ticks_complete_the_grid(self, testbed, fast_config):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        testbed.clock.set_telemetry(tel)
        ctrl = GreenGpuController(TierMode.SCALING_ONLY, fast_config,
                                  telemetry=tel)
        self._run_spin_then_idle(testbed, ctrl, fast_config)
        governor = ctrl.governor  # detach() drops the reference
        ctrl.detach()
        dispatched = tel.registry.counter("clock_dispatch_total",
                                          task="ondemand").value
        skipped = tel.registry.counter("ondemand_ticks_skipped_total").value
        grid = _grid_ticks(fast_config.ondemand_interval_s, testbed.now)
        assert skipped > dispatched > 0
        assert dispatched + skipped == grid == governor.ticks

    def test_faulty_cpu_monitor_never_parks(self, testbed, fast_config):
        from repro.faults.injector import FaultInjector, FaultPlan
        from repro.telemetry import Telemetry

        tel = Telemetry()
        testbed.clock.set_telemetry(tel)
        ctrl = GreenGpuController(
            TierMode.SCALING_ONLY, fast_config, telemetry=tel,
            faults=FaultInjector(FaultPlan(seed=1, monitor_drop_rate=0.01)),
        )
        self._run_spin_then_idle(testbed, ctrl, fast_config)
        ctrl.detach()
        dispatched = tel.registry.counter("clock_dispatch_total",
                                          task="ondemand").value
        assert dispatched == _grid_ticks(fast_config.ondemand_interval_s,
                                         testbed.now)
        assert tel.registry.counter("ondemand_ticks_skipped_total").value == 0
