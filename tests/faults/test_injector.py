"""Tests for the seeded fault plan / injector."""

import pytest

from repro.core.observer import ControlObserver
from repro.errors import ConfigError
from repro.faults.injector import (
    FAULT_KIND_RATES,
    FAULT_PROFILES,
    FaultInjector,
    FaultPlan,
    fault_profile,
)
from repro.sim.engine import SimClock
from repro.sim.trace import TraceRecorder


class TestFaultPlan:
    def test_default_plan_is_inert(self):
        assert not FaultPlan().any_faults

    def test_any_faults_detects_rates_and_episodes(self):
        assert FaultPlan(monitor_timeout_rate=0.1).any_faults
        assert FaultPlan(stall_episodes=((1.0, 2.0),)).any_faults

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ConfigError):
            FaultPlan(monitor_timeout_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(actuator_reject_rate=-0.1)

    def test_rejects_bad_episode(self):
        with pytest.raises(ConfigError):
            FaultPlan(stall_episodes=((-1.0, 2.0),))
        with pytest.raises(ConfigError):
            FaultPlan(stall_episodes=((1.0, 0.0),))

    def test_rejects_bad_stall_duration(self):
        with pytest.raises(ConfigError):
            FaultPlan(device_stall_duration_s=0.0)

    def test_every_kind_maps_to_a_real_rate_field(self):
        plan = FaultPlan()
        for kind in FAULT_KIND_RATES:
            assert plan.rate_for(kind) == 0.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            FaultPlan().rate_for("meteor_strike")


class TestProfiles:
    @pytest.mark.parametrize("name", sorted(FAULT_PROFILES))
    def test_profiles_build_and_carry_seed(self, name):
        plan = fault_profile(name, seed=42)
        assert plan.seed == 42
        assert plan.any_faults

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigError):
            fault_profile("catastrophic")


class TestInjector:
    def test_zero_rate_never_fires(self):
        inj = FaultInjector(FaultPlan())
        assert not any(inj.fire("gpu_monitor_timeout") for _ in range(100))
        assert inj.total_injected == 0

    def test_rate_one_always_fires_and_counts(self):
        inj = FaultInjector(FaultPlan(monitor_timeout_rate=1.0))
        assert all(inj.fire("gpu_monitor_timeout") for _ in range(10))
        assert inj.counts["gpu_monitor_timeout"] == 10
        assert inj.total_injected == 10

    def test_deterministic_for_a_seed(self):
        def stream(seed):
            inj = FaultInjector(FaultPlan(seed=seed, monitor_timeout_rate=0.3))
            return [inj.fire("gpu_monitor_timeout") for _ in range(200)]

        assert stream(7) == stream(7)
        assert stream(7) != stream(8)

    def test_recorder_gets_every_injected_fault(self):
        recorder = TraceRecorder()
        clock = SimClock()
        inj = FaultInjector(FaultPlan(seed=1, actuator_reject_rate=0.5))
        inj.bind(clock=clock, observer=ControlObserver(recorder=recorder))
        hits = 0
        for _ in range(50):
            clock.advance_by(1.0)
            if inj.fire("actuator_reject"):
                hits += 1
        assert hits > 0
        assert len(recorder.trace("fault_actuator_reject")) == hits

    def test_now_defaults_to_zero_without_clock(self):
        assert FaultInjector(FaultPlan()).now == 0.0

    def test_trace_episodes_scheduled_on_bind(self):
        class FakeActuator:
            def __init__(self):
                self.stalls = []

            def begin_stall(self, duration):
                self.stalls.append(duration)

        clock = SimClock()
        inj = FaultInjector(FaultPlan(stall_episodes=((2.0, 1.5), (5.0, 0.5))))
        actuator = FakeActuator()
        inj.attach_actuator(actuator)
        inj.bind(clock=clock)
        clock.advance_by(10.0)
        assert actuator.stalls == [1.5, 0.5]
        assert inj.counts["device_stall"] == 2

    def test_past_episodes_skipped(self):
        clock = SimClock()
        clock.advance_by(5.0)
        inj = FaultInjector(FaultPlan(stall_episodes=((2.0, 1.0),)))
        inj.bind(clock=clock)  # must not raise "cannot schedule in the past"
        clock.advance_by(10.0)
        assert inj.total_injected == 0
