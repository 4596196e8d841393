"""Tests for the hardened controller: the degradation ladder end to end.

Fault *semantics* are deterministic here: scripted monitor/actuator stubs
are swapped into the attached controller, so each test controls exactly
which tick faults.  The seeded-randomness integration lives in
``tests/properties/test_prop_faults.py``.
"""

import numpy as np
import pytest

from repro.core.config import GreenGpuConfig
from repro.core.controller import GreenGpuController, HardeningPolicy, TierMode
from repro.core.policies import FrequencyScalingOnlyPolicy, GreenGpuPolicy
from repro.errors import MonitorError, SimulationError
from repro.faults.injector import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.runtime.executor import run_workload
from repro.sim.trace import TraceRecorder

from tests.conftest import fast_workload


class ScriptedGpuMonitor:
    """nvidia-smi stand-in that fails per a scripted verdict list."""

    def __init__(self, inner, fails):
        self._inner = inner
        self._fails = list(fails)
        self.always_fail = False

    def query(self):
        fail = self.always_fail or (self._fails.pop(0) if self._fails else False)
        if fail:
            raise MonitorError("scripted monitor fault")
        return self._inner.query()

    def peek_clocks(self):
        return self._inner.peek_clocks()


class IgnoringActuator:
    """nvidia-settings stand-in that silently ignores the first N writes."""

    def __init__(self, gpu, ignore_first):
        self._gpu = gpu
        self.ignores_left = ignore_first
        self.calls = 0

    def set_frequencies(self, f_core, f_mem):
        self.calls += 1
        if self.ignores_left > 0:
            self.ignores_left -= 1
            return
        self._gpu.set_frequencies(f_core, f_mem)


def attach_scaling_only(testbed, fast_config, **kwargs):
    ctrl = GreenGpuController(TierMode.SCALING_ONLY, fast_config, **kwargs)
    ctrl.attach(testbed)
    return ctrl


class TestHardeningPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(SimulationError):
            HardeningPolicy(stale_window_ticks=-1)
        with pytest.raises(SimulationError):
            HardeningPolicy(watchdog_threshold=0)


class TestMonitorFallback:
    def test_single_fault_falls_back_to_last_sample(self, testbed, fast_config):
        ctrl = attach_scaling_only(testbed, fast_config)
        testbed.run_for(fast_config.scaling_interval_s)  # one clean tick
        ctrl._cards[0].nvsmi = ScriptedGpuMonitor(ctrl._cards[0].nvsmi, fails=[True])
        testbed.run_for(fast_config.scaling_interval_s)
        assert ctrl.health.monitor_faults == 1
        assert ctrl.health.fallbacks == 1
        assert ctrl.health.skipped_ticks == 0
        assert ctrl.scaler.decisions == 2  # the faulty tick still decided
        assert not ctrl.degraded

    def test_no_sample_ever_means_skip(self, testbed, fast_config):
        ctrl = attach_scaling_only(testbed, fast_config)
        ctrl._cards[0].nvsmi = ScriptedGpuMonitor(ctrl._cards[0].nvsmi, fails=[True, True])
        testbed.run_for(2 * fast_config.scaling_interval_s)
        assert ctrl.health.skipped_ticks == 2
        assert ctrl.health.fallbacks == 0
        assert ctrl.scaler.decisions == 0

    def test_stale_window_expires_into_skip(self, testbed, fast_config):
        ctrl = attach_scaling_only(testbed, fast_config)  # stale window = 3 ticks
        testbed.run_for(fast_config.scaling_interval_s)  # clean tick at t=T
        monitor = ScriptedGpuMonitor(ctrl._cards[0].nvsmi, fails=[])
        monitor.always_fail = True
        ctrl._cards[0].nvsmi = monitor
        testbed.run_for(4 * fast_config.scaling_interval_s)
        # Ages at the 4 faulty ticks: 1T, 2T, 3T (fallbacks), 4T (skip).
        assert ctrl.health.fallbacks == 3
        assert ctrl.health.skipped_ticks == 1

    def test_events_are_recorded_on_the_trace(self, testbed, fast_config):
        rec = TraceRecorder()
        ctrl = attach_scaling_only(testbed, fast_config, recorder=rec)
        testbed.run_for(fast_config.scaling_interval_s)
        ctrl._cards[0].nvsmi = ScriptedGpuMonitor(ctrl._cards[0].nvsmi, fails=[True])
        testbed.run_for(fast_config.scaling_interval_s)
        assert len(rec.trace("ctrl_fallback")) == 1


class TestWatchdog:
    def make_dead_monitor_ctrl(self, testbed, fast_config):
        ctrl = attach_scaling_only(testbed, fast_config)
        monitor = ScriptedGpuMonitor(ctrl._cards[0].nvsmi, fails=[])
        monitor.always_fail = True
        ctrl._cards[0].nvsmi = monitor
        return ctrl, monitor

    def test_degrades_after_threshold_and_goes_to_peak(self, testbed, fast_config):
        ctrl, _ = self.make_dead_monitor_ctrl(testbed, fast_config)
        threshold = ctrl.hardening.watchdog_threshold
        testbed.run_for((threshold - 1) * fast_config.scaling_interval_s)
        assert not ctrl.degraded
        testbed.run_for(fast_config.scaling_interval_s)
        assert ctrl.degraded
        assert ctrl.health.degraded_entries == 1
        assert testbed.gpu.f_core == testbed.gpu.spec.core_ladder.peak
        assert testbed.gpu.f_mem == testbed.gpu.spec.mem_ladder.peak

    def test_recovers_on_first_clean_tick(self, testbed, fast_config):
        ctrl, monitor = self.make_dead_monitor_ctrl(testbed, fast_config)
        threshold = ctrl.hardening.watchdog_threshold
        testbed.run_for((threshold + 1) * fast_config.scaling_interval_s)
        assert ctrl.degraded
        monitor.always_fail = False  # the monitor comes back
        testbed.run_for(2 * fast_config.scaling_interval_s)  # >= 1 clean tick
        assert not ctrl.degraded
        assert ctrl.health.recoveries == 1

    def test_degraded_state_is_visible_on_the_trace(self, testbed, fast_config):
        rec = TraceRecorder()
        ctrl = attach_scaling_only(testbed, fast_config, recorder=rec)
        monitor = ScriptedGpuMonitor(ctrl._cards[0].nvsmi, fails=[])
        monitor.always_fail = True
        ctrl._cards[0].nvsmi = monitor
        testbed.run_for(6 * fast_config.scaling_interval_s)
        monitor.always_fail = False
        testbed.run_for(2 * fast_config.scaling_interval_s)
        degraded = rec.trace("ctrl_degraded")
        assert list(degraded.values) == [1.0, 0.0]  # entered, then recovered


class TestActuationRetry:
    def test_retry_lands_an_ignored_write(self, testbed, fast_config):
        testbed.gpu.set_peak()  # idle WMA decision (floor) forces a write
        ctrl = attach_scaling_only(testbed, fast_config)
        ctrl._cards[0].actuator = IgnoringActuator(testbed.gpu, ignore_first=1)
        testbed.run_for(fast_config.scaling_interval_s)
        assert ctrl.health.retries == 1
        assert ctrl.health.actuation_faults == 0
        assert testbed.gpu.f_core == testbed.gpu.spec.core_ladder.floor
        assert not ctrl.degraded

    def test_exhausted_retries_count_an_actuation_fault(self, testbed, fast_config):
        testbed.gpu.set_peak()
        ctrl = attach_scaling_only(testbed, fast_config)
        actuator = IgnoringActuator(testbed.gpu, ignore_first=10**9)
        ctrl._cards[0].actuator = actuator
        testbed.run_for(fast_config.scaling_interval_s)
        max_attempts = ctrl.hardening.retry.max_attempts
        assert actuator.calls == max_attempts
        assert ctrl.health.retries == max_attempts - 1
        assert ctrl.health.actuation_faults == 1

    def test_persistent_write_failure_trips_the_watchdog(self, testbed, fast_config):
        testbed.gpu.set_peak()
        ctrl = attach_scaling_only(testbed, fast_config)
        ctrl._cards[0].actuator = IgnoringActuator(testbed.gpu, ignore_first=10**9)
        threshold = ctrl.hardening.watchdog_threshold
        testbed.run_for((threshold + 1) * fast_config.scaling_interval_s)
        assert ctrl.degraded


class TestFrozenDivision:
    def degrade(self, ctrl, testbed, fast_config):
        monitor = ScriptedGpuMonitor(ctrl._cards[0].nvsmi, fails=[])
        monitor.always_fail = True
        ctrl._cards[0].nvsmi = monitor
        threshold = ctrl.hardening.watchdog_threshold
        testbed.run_for((threshold + 1) * fast_config.scaling_interval_s)
        assert ctrl.degraded
        return monitor

    def test_division_is_frozen_while_degraded(self, testbed, fast_config):
        ctrl = GreenGpuController(
            TierMode.HOLISTIC, fast_config, initial_ratio=0.30
        )
        ctrl.attach(testbed)
        monitor = self.degrade(ctrl, testbed, fast_config)
        assert ctrl.on_iteration_end(tc=10.0, tg=1.0) == pytest.approx(0.30)
        assert ctrl.health.frozen_divisions == 1
        monitor.always_fail = False
        testbed.run_for(2 * fast_config.scaling_interval_s)
        assert not ctrl.degraded
        assert ctrl.on_iteration_end(tc=10.0, tg=1.0) != pytest.approx(0.30)


class TestZeroFaultTransparency:
    """With an all-zero-rate plan, hardening must be bit-invisible.

    These runs mirror the fig5 (scaling-only) and fig7 (holistic) trace
    shapes at the fast test scale.
    """

    def assert_identical(self, plain, faulted):
        assert faulted.total_s == plain.total_s
        assert faulted.total_energy_j == plain.total_energy_j
        assert faulted.final_ratio == plain.final_ratio
        assert sorted(faulted.traces) == sorted(plain.traces)
        for channel, trace in plain.traces.items():
            other = faulted.traces[channel]
            assert np.array_equal(other.times, trace.times), channel
            assert np.array_equal(other.values, trace.values), channel
        assert faulted.health.total_events == 0

    @pytest.mark.parametrize(
        ("policy_factory", "workload_name"),
        [(FrequencyScalingOnlyPolicy, "streamcluster"), (GreenGpuPolicy, "kmeans")],
        ids=["fig5-scaling-only", "fig7-holistic"],
    )
    def test_zero_fault_plan_is_bit_identical(
        self, policy_factory, workload_name, fast_config, fast_options
    ):
        def run(plan):
            policy = policy_factory(config=fast_config).with_faults(plan)
            return run_workload(
                fast_workload(workload_name), policy,
                n_iterations=4, options=fast_options,
            )

        self.assert_identical(run(None), run(FaultPlan()))
