"""Tests for the assembled heterogeneous testbed."""

import pytest

from repro.errors import SimulationError
from repro.sim.activity import KernelActivity, PhaseDemand
from repro.sim.platform import make_testbed


def _gpu_kernel(system, seconds, u_core=0.6, u_mem=0.25):
    spec = system.gpu.spec
    stall = spec.roofline.stall_for_utilizations(u_core, u_mem)
    return KernelActivity(
        [
            PhaseDemand(
                flops=u_core * seconds * spec.peak_compute_rate,
                bytes=u_mem * seconds * spec.peak_bandwidth,
                stall_s=stall * seconds,
            )
        ]
    )


class TestAssembly:
    def test_default_testbed_components(self, testbed):
        assert testbed.gpu.spec.name == "GeForce 8800 GTX"
        assert testbed.cpu.spec.name == "AMD Phenom II X2"
        assert len(testbed.gpu.spec.core_ladder) == 6
        assert len(testbed.gpu.spec.mem_ladder) == 6
        assert len(testbed.cpu.spec.ladder) == 4

    def test_two_meter_boundaries(self, testbed):
        assert testbed.meter_cpu.name.startswith("meter1")
        assert testbed.meter_gpu.name.startswith("meter2")

    def test_system_power_sums_meters(self, testbed):
        assert testbed.system_power() == pytest.approx(
            testbed.meter_cpu.instantaneous_power()
            + testbed.meter_gpu.instantaneous_power()
        )

    def test_idle_power_below_busy_power(self, testbed):
        testbed.gpu.set_peak()
        idle = testbed.idle_system_power()
        testbed.cpu.spin()
        assert testbed.system_power() > idle


class TestStepping:
    def test_step_advances_to_device_event(self, testbed):
        testbed.gpu.set_peak()
        testbed.gpu.submit_kernel(_gpu_kernel(testbed, 5.0))
        dt = testbed.step()
        assert dt > 0.0

    def test_step_without_anything_raises(self, testbed):
        with pytest.raises(SimulationError):
            testbed.step()

    def test_step_with_horizon_only(self, testbed):
        dt = testbed.step(horizon=2.0)
        assert dt == 2.0
        assert testbed.now == 2.0

    def test_run_for_exact_duration(self, testbed):
        testbed.run_for(7.3)
        assert testbed.now == pytest.approx(7.3)
        assert testbed.gpu.elapsed_seconds == pytest.approx(7.3)
        assert testbed.cpu.elapsed_seconds == pytest.approx(7.3)

    def test_run_until_devices_idle(self, testbed):
        testbed.gpu.set_peak()
        testbed.gpu.submit_kernel(_gpu_kernel(testbed, 3.0))
        testbed.run_until_devices_idle()
        assert not testbed.gpu.busy

    def test_run_until_idle_timeout(self, testbed):
        testbed.gpu.set_levels(5, 5)
        testbed.gpu.submit_kernel(_gpu_kernel(testbed, 100.0))
        with pytest.raises(SimulationError):
            testbed.run_until_devices_idle(timeout_s=1.0)

    def test_spin_does_not_block_idle_detection(self, testbed):
        testbed.cpu.spin()
        testbed.gpu.set_peak()
        testbed.gpu.submit_kernel(_gpu_kernel(testbed, 1.0))
        testbed.run_until_devices_idle()  # must terminate despite spin
        assert testbed.cpu.spinning

    def test_clock_tasks_fire_during_steps(self, testbed):
        ticks = []
        testbed.clock.every(0.5, ticks.append)
        testbed.run_for(2.0)
        assert len(ticks) == 4


class TestEnergyConsistency:
    def test_meter_energy_tracks_device_energy(self, testbed):
        """Meter2 wall energy = (device + overhead) / efficiency."""
        testbed.gpu.set_peak()
        testbed.gpu.submit_kernel(_gpu_kernel(testbed, 4.0))
        testbed.run_until_devices_idle()
        cfg = testbed.config
        expected = (
            testbed.gpu.energy_j + cfg.meter2_overhead_w * testbed.now
        ) / cfg.meter2_efficiency
        assert testbed.meter_gpu.energy_j == pytest.approx(expected, rel=1e-9)

    def test_total_energy_is_meter_sum(self, testbed):
        testbed.run_for(3.0)
        assert testbed.total_energy_j == pytest.approx(
            testbed.meter_cpu.energy_j + testbed.meter_gpu.energy_j
        )

    def test_reset_meters(self, testbed):
        testbed.run_for(1.0)
        testbed.reset_meters()
        assert testbed.total_energy_j == 0.0


def _two_card_testbed():
    import dataclasses

    from repro.sim.calibration import default_testbed_config, geforce_8800_gtx_spec
    from repro.sim.platform import HeteroSystem

    return HeteroSystem(dataclasses.replace(
        default_testbed_config(), extra_gpus=(geforce_8800_gtx_spec(),)
    ))


class TestEveryCard:
    """Whole-system measurement and waiting cover every GPU card."""

    def test_card_zero_is_the_one_card_surface(self):
        system = _two_card_testbed()
        assert system.gpus[0] is system.gpu
        assert system.meter_gpus[0] is system.meter_gpu
        assert system.meter_gpu.name == "meter2-gpu-card"
        assert system.meter_gpus[1].name == "meter2-gpu1-card"

    def test_total_energy_sums_every_meter(self):
        system = _two_card_testbed()
        system.gpus[1].set_peak()
        system.gpus[1].submit_kernel(_gpu_kernel(system, 2.0))
        system.run_for(3.0)
        card0, card1 = system.meter_gpus
        assert card1.energy_j > card0.energy_j > 0.0
        assert system.gpu_energy_j == card0.energy_j + card1.energy_j
        assert system.total_energy_j == (
            system.meter_cpu.energy_j + card0.energy_j + card1.energy_j
        )

    def test_system_power_sums_every_meter(self):
        system = _two_card_testbed()
        system.gpus[1].set_peak()
        system.gpus[1].submit_kernel(_gpu_kernel(system, 2.0))
        system.step(horizon=0.5)
        expected = system.meter_cpu.instantaneous_power() + sum(
            meter.instantaneous_power() for meter in system.meter_gpus
        )
        assert system.system_power() == pytest.approx(expected, rel=1e-12)
        one_card = make_testbed()
        assert system.system_power() > one_card.system_power()

    def test_idle_power_counts_every_card(self):
        system = _two_card_testbed()
        one_card = make_testbed()
        card1 = system.gpus[1]
        card1_idle = card1.spec.power.idle_power(
            card1.f_core / card1.spec.core_ladder.peak,
            card1.f_mem / card1.spec.mem_ladder.peak,
        )
        cfg = system.config
        assert system.idle_system_power() == pytest.approx(
            one_card.idle_system_power()
            + (card1_idle + cfg.meter2_overhead_w) / cfg.meter2_efficiency,
            rel=1e-12,
        )
        # Idle, the whole system sits at its idle power.
        assert system.system_power() == pytest.approx(
            system.idle_system_power(), rel=1e-12
        )

    def test_reset_and_finalize_cover_every_meter(self):
        system = _two_card_testbed()
        system.run_for(2.5)
        system.finalize_meters()
        for meter in system.meter_gpus:
            assert len(meter.samples) == 3  # two full windows + the partial
        system.reset_meters()
        assert system.total_energy_j == 0.0
        for meter in (system.meter_cpu, *system.meter_gpus):
            assert meter.energy_j == 0.0

    def test_run_until_devices_idle_waits_for_every_card(self):
        system = _two_card_testbed()
        system.gpus[1].set_peak()
        system.gpus[1].submit_kernel(_gpu_kernel(system, 3.0))
        system.run_until_devices_idle()
        assert not system.any_gpu_busy()
        assert system.now == pytest.approx(3.0, rel=0.05)
