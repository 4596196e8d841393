"""Tests for kernel/transfer activities, the activity engine, and the
contract both devices get from it."""

from dataclasses import replace

import pytest

from repro.errors import SimulationError, WorkloadError
from repro.sim.activity import (
    ActivityQueue,
    KernelActivity,
    PhaseDemand,
    TransferActivity,
)
from repro.sim.calibration import geforce_8800_gtx_spec, phenom_ii_x2_spec
from repro.sim.cpu import CpuDevice
from repro.sim.gpu import GpuDevice
from repro.sim.perf import RooflineModel


class TestPhaseDemand:
    def test_scaled(self):
        d = PhaseDemand(flops=10.0, bytes=4.0, stall_s=2.0)
        s = d.scaled(0.5)
        assert (s.flops, s.bytes, s.stall_s) == (5.0, 2.0, 1.0)

    def test_scaled_rejects_negative(self):
        with pytest.raises(WorkloadError):
            PhaseDemand(1.0, 1.0).scaled(-1.0)

    def test_rejects_negative_demand(self):
        with pytest.raises(WorkloadError):
            PhaseDemand(-1.0, 0.0)
        with pytest.raises(WorkloadError):
            PhaseDemand(0.0, 0.0, stall_s=-1.0)

    def test_intensity(self):
        assert PhaseDemand(10.0, 4.0).intensity == 2.5
        assert PhaseDemand(10.0, 0.0).intensity == float("inf")


class TestKernelActivity:
    def test_requires_phases(self):
        with pytest.raises(WorkloadError):
            KernelActivity([])

    def test_phase_progression(self):
        k = KernelActivity([PhaseDemand(1.0, 0.0), PhaseDemand(2.0, 0.0)])
        assert not k.done
        assert k.current_phase.flops == 1.0
        k.advance_fraction(1.0)
        assert k.current_phase.flops == 2.0
        k.advance_fraction(0.5)
        assert k.phase_fraction == pytest.approx(0.5)
        k.advance_fraction(0.5)
        assert k.done

    def test_partial_advances_accumulate(self):
        k = KernelActivity([PhaseDemand(1.0, 0.0)])
        for _ in range(4):
            k.advance_fraction(0.25)
        assert k.done

    def test_overshoot_raises(self):
        k = KernelActivity([PhaseDemand(1.0, 0.0)])
        with pytest.raises(SimulationError):
            k.advance_fraction(1.5)

    def test_advance_after_done_raises(self):
        k = KernelActivity([PhaseDemand(1.0, 0.0)])
        k.advance_fraction(1.0)
        with pytest.raises(SimulationError):
            k.advance_fraction(0.1)

    def test_current_phase_after_done_raises(self):
        k = KernelActivity([PhaseDemand(1.0, 0.0)])
        k.advance_fraction(1.0)
        with pytest.raises(SimulationError):
            _ = k.current_phase

    def test_totals(self):
        k = KernelActivity([PhaseDemand(1.0, 2.0), PhaseDemand(3.0, 4.0)])
        assert k.total_flops == 4.0
        assert k.total_bytes == 6.0


class TestTransferActivity:
    def test_advance_to_completion(self):
        t = TransferActivity(1.0, bytes_=100.0)
        t.advance_time(0.4)
        assert not t.done
        t.advance_time(0.6)
        assert t.done

    def test_overshoot_raises(self):
        t = TransferActivity(1.0)
        with pytest.raises(SimulationError):
            t.advance_time(2.0)

    def test_zero_duration_is_done(self):
        assert TransferActivity(0.0).done

    def test_rejects_negative_duration(self):
        with pytest.raises(SimulationError):
            TransferActivity(-1.0)


def _queue() -> ActivityQueue:
    """An engine that runs kernels at 1 flop/s and 1 byte/s."""
    roofline = RooflineModel()

    def estimate(kernel):
        phase = kernel.current_phase
        return roofline.estimate(phase.flops, phase.bytes, 1.0, 1.0, phase.stall_s)

    return ActivityQueue(estimate)


class TestActivityQueue:
    def test_fifo_order(self):
        q = _queue()
        a = TransferActivity(1.0, label="a")
        b = TransferActivity(1.0, label="b")
        q.push(a)
        q.push(b)
        assert q.head is a
        a.advance_time(1.0)
        assert q.head is b

    def test_head_skips_done(self):
        q = _queue()
        done = TransferActivity(0.0)
        live = TransferActivity(1.0)
        q.push(done)
        q.push(live)
        assert q.head is live
        assert q.current_head() is live

    def test_empty_queue(self):
        q = _queue()
        assert q.head is None
        assert q.current_head() is None
        assert q.time_to_event() is None

    def test_clear(self):
        q = _queue()
        q.push(TransferActivity(1.0))
        q.clear()
        assert q.head is None
        assert q.current_head() is None

    def test_phase_rollover_bumps_the_epoch(self):
        q = _queue()
        k = KernelActivity([PhaseDemand(2.0, 0.0), PhaseDemand(0.0, 5.0)])
        q.push(k)
        assert q.time_to_event() == 2.0
        epoch = q.epoch
        q.advance(2.0)
        assert q.epoch > epoch
        assert k.phase_index == 1
        assert q.time_to_event() == 5.0

    def test_zero_dt_drains_zero_time_heads(self):
        q = _queue()
        zero = KernelActivity([PhaseDemand(0.0, 0.0)])
        live = TransferActivity(1.0)
        q.push(zero)
        q.push(live)
        assert q.time_to_event() == 0.0
        assert not q.advance(0.0)
        assert zero.done and q.current_head() is live


def _device(kind: str):
    if kind == "gpu":
        # No launch overhead: a submitted kernel is the head at once.
        return GpuDevice(replace(geforce_8800_gtx_spec(), launch_overhead_s=0.0))
    return CpuDevice(phenom_ii_x2_spec())


def _rates(device) -> tuple[float, float]:
    if isinstance(device, GpuDevice):
        return device.compute_rate, device.bandwidth
    return device.compute_rate, device.spec.host_bandwidth


def _multi_phase_kernel(device) -> KernelActivity:
    """Three phases of different shape, each about a second long."""
    rate, bandwidth = _rates(device)
    return KernelActivity([
        PhaseDemand(0.9 * rate, 0.1 * bandwidth, 0.05),
        PhaseDemand(0.1 * rate, 0.8 * bandwidth),
        PhaseDemand(0.5 * rate, 0.5 * bandwidth, 0.2),
    ])


@pytest.mark.parametrize("kind", ["gpu", "cpu"])
class TestDeviceContract:
    """What both devices get from running their FIFO on one engine."""

    def test_zero_demand_kernel_completes_at_zero_dt(self, kind):
        device = _device(kind)
        kernel = KernelActivity([PhaseDemand(0.0, 0.0, 0.0)])
        device.submit_kernel(kernel)
        assert device.time_to_event() == 0.0
        device.advance(0.0)
        assert kernel.done
        assert device.time_to_event() is None
        assert device.elapsed_seconds == 0.0

    def test_negative_dt_raises(self, kind):
        device = _device(kind)
        with pytest.raises(SimulationError):
            device.advance(-0.1)

    def test_dt_past_next_event_raises(self, kind):
        device = _device(kind)
        device.submit_kernel(_multi_phase_kernel(device))
        with pytest.raises(SimulationError):
            device.advance(device.time_to_event() + 1.0)

    def test_idle_device_has_no_event(self, kind):
        assert _device(kind).time_to_event() is None

    def test_cached_power_tracks_every_rollover(self, kind):
        device = _device(kind)
        kernel = _multi_phase_kernel(device)
        device.submit_kernel(kernel)
        assert device.instantaneous_power() == device.instantaneous_power_uncached()
        for phase in (1, 2, 3):
            device.advance(device.time_to_event() / 2.0)
            assert device.instantaneous_power() == device.instantaneous_power_uncached()
            device.advance(device.time_to_event())
            assert kernel.phase_index == phase
            assert device.instantaneous_power() == device.instantaneous_power_uncached()
        assert kernel.done
        assert device.time_to_event() is None

    def test_cancel_all_empties_the_queue(self, kind):
        device = _device(kind)
        device.submit_kernel(_multi_phase_kernel(device))
        device.submit_kernel(_multi_phase_kernel(device))
        device.cancel_all()
        assert device.time_to_event() is None
        assert not device.busy
        assert device.instantaneous_power() == device.instantaneous_power_uncached()
