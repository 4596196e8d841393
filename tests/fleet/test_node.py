"""Node tests: watt->ladder translation, cap enforcement, power profile."""

import pytest

from repro.errors import ConfigError
from repro.extensions.hardware_table import (
    floor_wall_power_w,
    hardware_entry,
    peak_wall_power_w,
    wall_power_bound_w,
)
from repro.fleet.node import FleetNode, NodePowerProfile, ceiling_for_cap
from repro.fleet.scenario import FleetScenario


@pytest.fixture(scope="module")
def config():
    return hardware_entry("paper-8800gtx").make_config()


def tiny_scenario(**overrides):
    defaults = dict(name="tiny", n_nodes=4, nodes_per_rack=2,
                    duration_s=36.0, coordination_interval_s=12.0,
                    day_length_s=36.0, seed=5)
    defaults.update(overrides)
    return FleetScenario(**defaults)


class TestCeilingForCap:
    def test_generous_cap_leaves_peak_clocks(self, config):
        assert ceiling_for_cap(config, peak_wall_power_w(config)) == (0, 0)

    def test_infeasible_cap_falls_back_to_floors(self, config):
        n_core = len(config.gpu.core_ladder)
        n_mem = len(config.gpu.mem_ladder)
        assert ceiling_for_cap(config, 1.0) == (n_core - 1, n_mem - 1)

    def test_monotone_in_cap(self, config):
        """A tighter cap never yields a less restrictive ceiling."""
        floor_w = floor_wall_power_w(config)
        peak_w = peak_wall_power_w(config)
        caps = [floor_w + (peak_w - floor_w) * k / 20.0 for k in range(21)]
        pairs = [ceiling_for_cap(config, cap) for cap in caps]
        for tighter, looser in zip(pairs, pairs[1:]):
            assert tighter[0] >= looser[0]
            assert tighter[1] >= looser[1]

    def test_bound_honoured(self, config):
        """The chosen ceiling's worst-case draw fits the cap whenever any
        enforceable ceiling exists."""
        floor_w = floor_wall_power_w(config)
        peak_w = peak_wall_power_w(config)
        for k in range(21):
            cap = floor_w + (peak_w - floor_w) * k / 20.0
            pair = ceiling_for_cap(config, cap)
            assert wall_power_bound_w(config, *pair) <= cap + 1e-6


    def test_node_ceilings_match_ceiling_for_cap(self):
        """A node computes its diagonal bounds once; every cap still maps
        to the ceiling :func:`ceiling_for_cap` picks, on each hardware
        class in the scenario, exact bounds and their neighbours included."""
        scenario = tiny_scenario(n_nodes=8)
        for node_id in range(scenario.n_nodes):
            node = FleetNode(node_id, scenario)
            n_core = len(node.config.gpu.core_ladder)
            n_mem = len(node.config.gpu.mem_ladder)
            bounds = [wall_power_bound_w(node.config, min(k, n_core - 1),
                                         min(k, n_mem - 1))
                      for k in range(max(n_core, n_mem))]
            caps = [1.0, 1e9] + [b + d for b in bounds
                                 for d in (-1e-3, 0.0, 1e-6, 2e-6, 1e-3)]
            for cap in caps:
                assert node.apply_cap(cap) == ceiling_for_cap(node.config, cap)
                assert node.controller.level_ceiling == ceiling_for_cap(
                    node.config, cap)
            node.finish()


class TestNodePowerProfile:
    def test_from_config_bounds(self, config):
        profile = NodePowerProfile.from_config(config)
        assert profile.floor_w == pytest.approx(floor_wall_power_w(config))
        assert profile.peak_w == pytest.approx(peak_wall_power_w(config))
        assert 0.0 < profile.floor_speed < 1.0
        assert profile.efficiency > 0.0

    def test_speed_interpolates_and_clamps(self, config):
        profile = NodePowerProfile.from_config(config)
        assert profile.speed_at(profile.floor_w) == pytest.approx(
            profile.floor_speed)
        assert profile.speed_at(profile.peak_w) == pytest.approx(1.0)
        assert profile.speed_at(0.0) == pytest.approx(profile.floor_speed)
        assert profile.speed_at(1e9) == pytest.approx(1.0)
        mid = 0.5 * (profile.floor_w + profile.peak_w)
        assert (profile.floor_speed < profile.speed_at(mid) < 1.0)


class TestFleetNode:
    def test_rejects_non_positive_cap(self):
        node = FleetNode(0, tiny_scenario())
        with pytest.raises(ConfigError):
            node.apply_cap(0.0)
        node.controller.detach()

    def test_uncapped_run_has_no_violations(self):
        scenario = tiny_scenario()
        node = FleetNode(1, scenario)
        peak = peak_wall_power_w(node.config)
        result = node.run([peak] * scenario.n_windows)
        assert result.violation_ticks == 0
        assert result.windows == scenario.n_windows
        assert result.energy_j > 0.0
        assert result.busy_end_s >= scenario.duration_s
        assert result.submitted_work_s > 0.0

    def test_tight_cap_enforced_without_violations(self):
        """A cap just above the floor bound pins the ceiling near the
        ladder floors, and the measured window power honours it."""
        scenario = tiny_scenario()
        node = FleetNode(1, scenario)
        floor = floor_wall_power_w(node.config)
        cap = floor + 1.0
        ceiling = node.apply_cap(cap)
        assert ceiling != (0, 0)
        result = node.run([cap] * scenario.n_windows)
        assert result.violation_ticks == 0

    def test_tight_cap_slows_the_node(self):
        """Same node, same offered work: the capped run drains later and
        spends less energy per unit time while the cap is in force."""
        scenario = tiny_scenario()
        free = FleetNode(2, scenario)
        capped = FleetNode(2, scenario)
        peak = peak_wall_power_w(free.config)
        floor = floor_wall_power_w(free.config)
        free_result = free.run([peak] * scenario.n_windows)
        capped_result = capped.run([floor + 1.0] * scenario.n_windows)
        assert capped_result.busy_end_s > free_result.busy_end_s
        assert capped_result.submitted_work_s == pytest.approx(
            free_result.submitted_work_s)

    def test_peak_ceiling_matches_unceilinged_controller(self):
        """Ceiling (0, 0) is the controller's whole decision space — a
        node capped at its peak bound runs bit-identically to one whose
        controller never heard of ceilings."""
        scenario = tiny_scenario()
        plain = FleetNode(3, scenario)
        capped = FleetNode(3, scenario)
        peak = peak_wall_power_w(plain.config)
        windows = scenario.n_windows
        for window in range(windows):
            load = scenario.load(3, window)
            capped.apply_cap(peak)
            for node in (plain, capped):
                node.submit_window(load, scenario.coordination_interval_s)
                node.run_window(scenario.coordination_interval_s)
        plain_result, capped_result = plain.finish(), capped.finish()
        assert capped_result.energy_j == plain_result.energy_j
        assert capped_result.busy_end_s == plain_result.busy_end_s
