"""Multi-GPU co-simulation: GreenGPU on a testbed with N cards.

Every run here goes through the one platform, controller and executor:
``TestbedConfig.extra_gpus`` adds the cards, the controller runs one WMA
scaler per card plus one divider over every card, and the executor
submits and times each card's share.  Runs that need the final per-card
shares hold their controller and drive :class:`HeteroExecutor` directly,
because :func:`simulate` detaches (and so resets) the controller it
builds.
"""

import dataclasses

import pytest

from repro.core.config import GreenGpuConfig
from repro.core.controller import GreenGpuController, TierMode
from repro.core.policies import GreenGpuPolicy
from repro.errors import ConfigError, SimulationError
from repro.faults.injector import FaultInjector, FaultPlan
from repro.runtime.executor import ExecutorOptions, HeteroExecutor, simulate
from repro.sim.calibration import default_testbed_config, geforce_8800_gtx_spec
from repro.sim.platform import HeteroSystem
from repro.telemetry import Telemetry
from repro.telemetry.audit import AuditTrail
from tests.conftest import FAST_SCALE, fast_workload


def _cfg():
    return GreenGpuConfig(
        scaling_interval_s=3.0 * FAST_SCALE, ondemand_interval_s=0.1 * FAST_SCALE
    )


def _system(n_gpus=2, gpu_specs=None):
    if gpu_specs is None:
        gpu_specs = [geforce_8800_gtx_spec() for _ in range(n_gpus)]
    return HeteroSystem(dataclasses.replace(
        default_testbed_config(), gpu=gpu_specs[0], extra_gpus=tuple(gpu_specs[1:])
    ))


def _run(n_gpus, n_iterations=8, gpu_specs=None):
    """GreenGPU on a caller-built system; returns (system, shares, iterations)."""
    system = _system(n_gpus, gpu_specs)
    policy = GreenGpuPolicy(config=_cfg())
    policy.apply_initial_state(system)
    controller = policy.make_controller()
    controller.attach(system)
    options = ExecutorOptions(repartition_overhead_s=0.5 * FAST_SCALE)
    iterations = HeteroExecutor(
        system, fast_workload("kmeans"), controller, options
    ).run(n_iterations)
    shares = controller.shares
    controller.detach()
    return system, shares, iterations


def _simulate(n_gpus, n_iterations=8):
    return simulate(
        fast_workload("kmeans"), GreenGpuPolicy(config=_cfg()),
        n_iterations=n_iterations, system=_system(n_gpus),
        options=ExecutorOptions(repartition_overhead_s=0.5 * FAST_SCALE),
    )


class TestPlatform:
    def test_requires_one_gpu(self):
        """Card 0 is the config's required ``gpu``; extra cards are optional."""
        base = default_testbed_config()
        with pytest.raises(TypeError):
            type(base)(cpu=base.cpu, bus=base.bus)
        system = HeteroSystem(base)
        assert system.gpus == (system.gpu,)
        assert system.meter_gpus == (system.meter_gpu,)

    def test_default_is_dual_gpu(self):
        """The helper's default (and the bench's) is a two-card testbed."""
        system = _system()
        assert len(system.gpus) == 2
        assert system.gpus[0] is system.gpu

    def test_one_meter_per_card(self):
        system = _system(3)
        assert len(system.meter_gpus) == 3
        assert len({meter.name for meter in system.meter_gpus}) == 3

    def test_energy_sums_all_meters(self):
        system = _system()
        system.step(horizon=2.0)
        expected = system.meter_cpu.energy_j + sum(
            m.energy_j for m in system.meter_gpus
        )
        assert system.total_energy_j == pytest.approx(expected)


class TestDualGpuRun:
    @pytest.fixture(scope="class")
    def run(self):
        return _run(n_gpus=2, n_iterations=10)

    def test_identical_cards_share_equally(self, run):
        """Two identical GPUs must end with (near) equal shares."""
        _, (_, g0, g1), _ = run
        assert g0 == pytest.approx(g1, abs=0.051)

    def test_cpu_share_shrinks_from_uniform(self, run):
        """The slow CPU gives up work to the cards."""
        _, shares, _ = run
        assert shares[0] < 0.30

    def test_shares_sum_to_one(self, run):
        _, shares, _ = run
        assert sum(shares) == pytest.approx(1.0)

    def test_iteration_times_decrease_with_balance(self, run):
        _, _, iterations = run
        assert iterations[-1].wall_s < iterations[0].wall_s

    def test_two_gpus_faster_than_one(self):
        one = _simulate(n_gpus=1)
        two = _simulate(n_gpus=2)
        assert two.total_s < one.total_s

    def test_result_metadata(self):
        system = _system(2)
        result = simulate(
            fast_workload("kmeans"), GreenGpuPolicy(config=_cfg()),
            n_iterations=2, system=system,
        )
        assert result.workload == "kmeans"
        assert len(result.iterations) == 2
        # Both cards' supplies are metered into the GPU-side energy.
        assert result.gpu_energy_j == system.gpu_energy_j
        assert result.gpu_energy_j > system.meter_gpu.energy_j


class TestHeterogeneousCards:
    def test_slower_card_gets_less_work(self):
        fast_card = geforce_8800_gtx_spec()
        slow_card = dataclasses.replace(
            fast_card,
            name="half-speed card",
            peak_compute_rate=fast_card.peak_compute_rate / 2.0,
            peak_bandwidth=fast_card.peak_bandwidth / 2.0,
        )
        _, (_, g_fast, g_slow), _ = _run(
            n_gpus=2, n_iterations=14, gpu_specs=[fast_card, slow_card]
        )
        assert g_fast > g_slow


class TestControllerIntegration:
    def test_per_card_scalers_independent(self):
        system = _system()
        controller = GreenGpuController(config=_cfg())
        controller.attach(system)
        assert len(controller.scalers) == 2
        assert controller.scalers[0] is not controller.scalers[1]
        controller.detach()

    def test_scaling_throttles_idle_cards(self):
        system = _system()
        for gpu in system.gpus:
            gpu.set_peak()
        cfg = _cfg()
        controller = GreenGpuController(config=cfg)
        controller.attach(system)
        # No work: run the clock alone for several scaling intervals.
        system.run_for(10 * cfg.scaling_interval_s)
        for gpu in system.gpus:
            assert gpu.f_core == gpu.spec.core_ladder.floor
        controller.detach()

    def test_run_validates_iterations(self):
        with pytest.raises(SimulationError):
            _simulate(n_gpus=2, n_iterations=0)

    def test_audit_rejects_multi_card_system(self):
        """The audit schema is one scaler's; per-card audit is not recorded."""
        controller = GreenGpuController(config=_cfg(), audit=AuditTrail())
        with pytest.raises(ConfigError):
            controller.attach(_system())
        assert not controller.attached

    def test_ceiling_caps_every_card(self):
        system = _system()
        for gpu in system.gpus:
            gpu.set_peak()
        controller = GreenGpuController(config=_cfg())
        controller.attach(system)
        controller.set_level_ceiling(2, 2)
        for gpu in system.gpus:
            assert gpu.f_core == gpu.spec.core_ladder[2]
            assert gpu.f_mem == gpu.spec.mem_ladder[2]
        controller.detach()

    def test_stall_episode_pins_every_card(self):
        """A trace-driven stall episode pins each card's clocks, with one
        ``device_stall`` record per card.  The paper's 3 s scaling period
        keeps the WMA loop from moving any clock before the check."""
        system = _system()
        for gpu in system.gpus:
            gpu.set_peak()
        faults = FaultInjector(FaultPlan(stall_episodes=((1.0, 5.0),)))
        controller = GreenGpuController(TierMode.SCALING_ONLY, GreenGpuConfig(),
                                        faults=faults)
        controller.attach(system)
        system.run_for(2.0)
        for gpu in system.gpus:
            assert gpu.f_core == gpu.spec.core_ladder.floor
            assert gpu.f_mem == gpu.spec.mem_ladder.floor
        assert faults.counts == {"device_stall": 2}
        controller.detach()


class TestOndemandParking:
    def test_two_card_run_parks_the_ondemand_tick(self, monkeypatch):
        """The tier-2 CPU loop parks on a multi-card run as on one card,
        so the run's steps stay near the one-card run's (456), far from
        one per ondemand interval (over 5,000)."""
        from repro.experiments.common import (
            scaled_config,
            scaled_options,
            scaled_workload,
        )

        steps = 0
        step = HeteroSystem.step

        def counting_step(self, horizon=None):
            nonlocal steps
            steps += 1
            return step(self, horizon)

        monkeypatch.setattr(HeteroSystem, "step", counting_step)
        telemetry = Telemetry()
        simulate(
            scaled_workload("kmeans", 0.25),
            GreenGpuPolicy(config=scaled_config(0.25)),
            n_iterations=4, system=_system(), options=scaled_options(0.25),
            telemetry=telemetry,
        )
        skipped = telemetry.registry.counter(
            "ondemand_ticks_skipped_total", workload="kmeans", policy="greengpu"
        ).value
        assert skipped > 0
        assert steps <= 1200
