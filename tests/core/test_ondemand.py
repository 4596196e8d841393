"""Tests for the ondemand governor reimplementation."""

import pytest

from repro.core.ondemand import OndemandGovernor
from repro.errors import ConfigError
from repro.sim.frequency import FrequencyLadder
from repro.units import ghz


@pytest.fixture
def ladder():
    return FrequencyLadder([ghz(v) for v in (2.8, 2.1, 1.3, 0.8)])


@pytest.fixture
def governor(ladder):
    return OndemandGovernor(ladder)


class TestDecisionRule:
    def test_high_utilization_jumps_to_peak(self, governor, ladder):
        """Paper: 'increases the CPU frequency to the highest available'."""
        d = governor.step(0.95, ladder.floor)
        assert d.f_target == ladder.peak
        assert d.changed

    def test_low_utilization_steps_down_one_level(self, governor, ladder):
        """Paper: 'sets the CPU to run at the next lowest frequency'."""
        d = governor.step(0.1, ladder.peak)
        assert d.f_target == ghz(2.1)

    def test_low_at_floor_stays(self, governor, ladder):
        d = governor.step(0.1, ladder.floor)
        assert d.f_target == ladder.floor
        assert not d.changed

    def test_band_holds_current(self, governor, ladder):
        d = governor.step(0.5, ghz(1.3))
        assert d.f_target == ghz(1.3)
        assert not d.changed

    def test_threshold_boundaries_hold(self, governor, ladder):
        # Exactly at the thresholds is inside the hold band.
        assert not governor.step(0.80, ladder.peak).changed
        assert not governor.step(0.30, ghz(1.3)).changed

    def test_spin_defeats_throttling(self, governor, ladder):
        """The paper's §VII-A observation: a spinning CPU reads 100 %
        utilization, so ondemand never throttles it."""
        f = ladder.peak
        for _ in range(50):
            f = governor.step(1.0, f).f_target
        assert f == ladder.peak

    def test_idle_cpu_walks_down_to_floor(self, governor, ladder):
        f = ladder.peak
        for _ in range(len(ladder)):
            f = governor.step(0.0, f).f_target
        assert f == ladder.floor


class TestHoldsPredicate:
    def test_busy_holds_only_at_peak(self, governor, ladder):
        assert governor.holds(1.0, ladder.peak)
        assert not governor.holds(1.0, ladder.floor)

    def test_idle_holds_only_at_floor(self, governor, ladder):
        assert governor.holds(0.0, ladder.floor)
        assert not governor.holds(0.0, ladder.peak)

    def test_predicate_is_pure(self, governor, ladder):
        governor.holds(1.0, ladder.floor)
        assert governor.ticks == 0
        assert governor.transitions == 0


class TestBookkeeping:
    def test_tick_and_transition_counters(self, governor, ladder):
        governor.step(0.5, ladder.peak)   # hold
        governor.step(0.0, ladder.peak)   # step down
        assert governor.ticks == 2
        assert governor.transitions == 1

    def test_rejects_bad_utilization(self, governor, ladder):
        with pytest.raises(ConfigError):
            governor.step(1.5, ladder.peak)

    def test_rejects_bad_thresholds(self, ladder):
        with pytest.raises(ConfigError):
            OndemandGovernor(ladder, up_threshold=0.0)
        with pytest.raises(ConfigError):
            OndemandGovernor(ladder, up_threshold=0.5, down_threshold=0.6)
