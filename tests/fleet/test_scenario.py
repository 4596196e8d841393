"""Scenario tests: validation, determinism, shard-independence, round-trip."""

import pytest

from repro.errors import ConfigError
from repro.fleet.scenario import (
    SCENARIOS,
    FleetScenario,
    make_scenario,
)


class TestValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigError):
            FleetScenario(name="x", n_nodes=0)

    def test_rejects_interval_past_duration(self):
        with pytest.raises(ConfigError):
            FleetScenario(name="x", n_nodes=4, duration_s=10.0,
                          coordination_interval_s=11.0)

    def test_rejects_unknown_hardware(self):
        with pytest.raises(ConfigError, match="unknown hardware entry"):
            FleetScenario(name="x", n_nodes=4,
                          hardware_mix=(("vaporware-9000", 1.0),))

    def test_rejects_unsorted_budget_changes(self):
        with pytest.raises(ConfigError, match="ascending"):
            FleetScenario(name="x", n_nodes=4,
                          budget_changes=((100.0, 0.4), (50.0, 0.6)))

    def test_rejects_unknown_fault_profile(self):
        with pytest.raises(ConfigError, match="fault profile"):
            FleetScenario(name="x", n_nodes=4, fault_profile="apocalyptic")

    def test_rejects_budget_frac_out_of_range(self):
        with pytest.raises(ConfigError):
            FleetScenario(name="x", n_nodes=4, budget_frac=1.5)


class TestTopology:
    def test_rack_layout(self):
        scn = FleetScenario(name="x", n_nodes=45, nodes_per_rack=20)
        assert scn.n_racks == 3
        assert scn.rack_of(0) == 0
        assert scn.rack_of(19) == 0
        assert scn.rack_of(20) == 1
        assert scn.rack_of(44) == 2

    def test_window_count_covers_duration(self):
        scn = FleetScenario(name="x", n_nodes=4, duration_s=100.0,
                            coordination_interval_s=12.0)
        assert scn.n_windows == 9  # ceil(100 / 12)
        scn = FleetScenario(name="x", n_nodes=4, duration_s=96.0,
                            coordination_interval_s=12.0)
        assert scn.n_windows == 8  # exact division, no phantom window


class TestBudgetSchedule:
    def test_rolling_caps_step(self):
        scn = make_scenario("rolling-caps", n_nodes=8, budget_frac=0.6)
        third = scn.duration_s / 3.0
        assert scn.budget_frac_at(0.0) == pytest.approx(0.6)
        assert scn.budget_frac_at(third) == pytest.approx(0.3)
        assert scn.budget_frac_at(2.0 * third) == pytest.approx(0.54)
        assert scn.budget_frac_at(scn.duration_s) == pytest.approx(0.54)


class TestDeterminism:
    def test_draws_are_stable_and_shard_independent(self):
        """Per-node draws key on the node id, never on iteration order."""
        scn = FleetScenario(name="x", n_nodes=50, seed=7)
        forward = [(scn.node_hardware(i), scn.node_mix(i), scn.node_phase(i))
                   for i in range(50)]
        backward = [(scn.node_hardware(i), scn.node_mix(i), scn.node_phase(i))
                    for i in reversed(range(50))]
        assert forward == list(reversed(backward))

    def test_seed_changes_the_fleet(self):
        a = FleetScenario(name="x", n_nodes=64, seed=1)
        b = FleetScenario(name="x", n_nodes=64, seed=2)
        assert ([a.node_hardware(i) for i in range(64)]
                != [b.node_hardware(i) for i in range(64)])

    def test_hardware_mix_draws_every_class(self):
        scn = FleetScenario(name="x", n_nodes=400, seed=0)
        drawn = {scn.node_hardware(i) for i in range(400)}
        assert drawn == {key for key, _ in scn.hardware_mix}

    def test_load_bounded_and_wavy(self):
        scn = FleetScenario(name="x", n_nodes=10, seed=3)
        loads = [scn.load(4, w) for w in range(scn.n_windows)]
        assert all(0.0 <= load <= 1.0 for load in loads)
        assert max(loads) - min(loads) > 0.2  # actually a wave, not flat


class TestFaultBursts:
    def test_burst_racks_subset_and_deterministic(self):
        scn = make_scenario("fault-bursts", n_nodes=200, seed=3)
        racks = scn.burst_racks()
        assert racks == scn.burst_racks()
        assert all(0 <= rack < scn.n_racks for rack in racks)
        assert 0 < len(racks) < scn.n_racks

    def test_burst_nodes_get_stall_episodes(self):
        scn = make_scenario("fault-bursts", n_nodes=200, seed=3)
        burst = [i for i in range(scn.n_nodes) if scn.node_in_burst(i)]
        calm = [i for i in range(scn.n_nodes) if not scn.node_in_burst(i)]
        assert burst and calm
        plan = scn.fault_plan_for(burst[0])
        assert plan is not None
        assert plan.stall_episodes == scn.fault_burst_windows
        assert scn.fault_plan_for(calm[0]) is None

    def test_sibling_nodes_draw_distinct_fault_seeds(self):
        scn = make_scenario("fault-bursts", n_nodes=200, seed=3)
        burst = [i for i in range(scn.n_nodes) if scn.node_in_burst(i)]
        seeds = {scn.fault_plan_for(i).seed for i in burst}
        assert len(seeds) == len(burst)


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_round_trip(self, name):
        scn = make_scenario(name, n_nodes=30, seed=11)
        clone = FleetScenario.from_dict(scn.to_dict())
        assert clone == scn

    def test_round_trip_survives_json(self):
        import json

        scn = make_scenario("rolling-caps", n_nodes=30, seed=11)
        clone = FleetScenario.from_dict(json.loads(json.dumps(scn.to_dict())))
        assert clone == scn

    @pytest.mark.parametrize("change, field", [
        ({"hardware_mix": None}, "hardware_mix"),        # missing
        ({"hardware_mix": 5}, "hardware_mix"),
        ({"hardware_mix": [["a"]]}, "hardware_mix"),
        ({"budget_changes": [[1, "x"]]}, "budget_changes"),
        ({"colour": "blue"}, "colour"),
        ({"n_nodes": "3"}, "n_nodes"),
        ({"fault_burst_windows": [1, 2]}, "fault_burst_windows"),
        (None, "list"),                                   # a list body
    ])
    def test_malformed_payload_names_the_field(self, change, field):
        payload = make_scenario("diurnal", n_nodes=4).to_dict()
        if change is None:
            payload = list(payload.items())
        else:
            payload.update(change)
            payload = {k: v for k, v in payload.items() if v is not None}
        with pytest.raises(ConfigError, match=field):
            FleetScenario.from_dict(payload)

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            make_scenario("nocturnal", n_nodes=4)
