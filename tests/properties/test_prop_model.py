"""Model invariants that do not rest on engine agreement.

The paired-oracle suites prove the engines agree with each other; these
properties check the model itself on scalar runs:

- each wall meter's energy integral equals the integral of its 1 Hz
  sample log, and the CPU and GPU meters sum to the reported total;
- no meter sample draws less than its device idling at the ladder floor;
- parking the ondemand tick is invisible to every decision: a run equals
  the same run whose tick never parks, in trace shape, frequency and
  division decisions, and energies to rounding.
"""

import contextlib
import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import GreenGpuController
from repro.experiments.common import scaled_config, scaled_options, scaled_workload
from repro.runtime.executor import run_workload
from repro.sim.platform import HeteroSystem, make_testbed

WORKLOADS = ["kmeans", "hotspot", "nbody", "streamcluster", "bfs"]
POLICIES = ["greengpu", "scaling-only", "division-only", "best-performance"]
#: Decision channels that must not move by a single bit.
DECISIONS = ("cpu_f", "gpu_f_core", "gpu_f_mem", "division_r")
REL = 1e-9


@contextlib.contextmanager
def never_parking():
    """Every ondemand grid tick runs as a real tick (the pre-parking rule)."""
    original = GreenGpuController._maybe_park
    GreenGpuController._maybe_park = lambda self: None
    try:
        yield
    finally:
        GreenGpuController._maybe_park = original


def _run(workload, policy, n_iterations, sync_spin, time_scale=0.05,
         system=None):
    from repro.cli import POLICY_FACTORIES

    options = dataclasses.replace(scaled_options(time_scale),
                                  sync_spin=sync_spin)
    return run_workload(
        scaled_workload(workload, time_scale),
        POLICY_FACTORIES[policy](scaled_config(time_scale)),
        n_iterations=n_iterations, options=options, system=system,
    )


def _log_integral(meter) -> float:
    """Energy of a stride-1 sample log: full windows plus the tail."""
    samples = meter.samples
    period = meter.sample_period_s
    tail = meter.elapsed_s - (len(samples) - 1) * period
    return math.fsum(samples[:-1]) * period + samples[-1] * tail


RUN = dict(
    workload=st.sampled_from(WORKLOADS),
    policy=st.sampled_from(POLICIES),
    n_iterations=st.integers(1, 4),
    sync_spin=st.booleans(),
)


class TestMeterInvariants:
    @given(**RUN)
    @settings(max_examples=12, deadline=None)
    def test_energy_is_the_sample_log_integral(self, workload, policy,
                                               n_iterations, sync_spin):
        system = make_testbed()
        result = _run(workload, policy, n_iterations, sync_spin,
                      system=system)
        for meter in (system.meter_cpu, system.meter_gpu):
            assert meter.sample_log_cap is None and meter.sample_stride == 1
            assert math.isclose(_log_integral(meter), meter.energy_j,
                                rel_tol=REL), meter.name
        assert result.cpu_energy_j + result.gpu_energy_j == \
            result.total_energy_j
        assert result.cpu_energy_j == system.meter_cpu.energy_j
        assert result.gpu_energy_j == system.meter_gpu.energy_j

    @given(**RUN)
    @settings(max_examples=12, deadline=None)
    def test_no_sample_below_the_idle_floor(self, workload, policy,
                                            n_iterations, sync_spin):
        system = make_testbed()
        _run(workload, policy, n_iterations, sync_spin, system=system)
        config = system.config
        cpu, gpu = system.cpu.spec, system.gpu.spec
        cpu_floor = (
            cpu.power.idle_power(cpu.ladder.floor / cpu.ladder.peak)
            + config.meter1_overhead_w
        ) / config.meter1_efficiency
        gpu_floor = (
            gpu.power.idle_power(gpu.core_ladder.floor / gpu.core_ladder.peak,
                                 gpu.mem_ladder.floor / gpu.mem_ladder.peak)
            + config.meter2_overhead_w
        ) / config.meter2_efficiency
        # Window averages are energy / time: allow their rounding only.
        assert min(system.meter_cpu.samples) >= cpu_floor * (1.0 - 1e-12)
        assert min(system.meter_gpu.samples) >= gpu_floor * (1.0 - 1e-12)


class TestParkingEquivalence:
    @given(**RUN)
    @settings(max_examples=16, deadline=None)
    def test_parked_run_equals_ticking_run(self, workload, policy,
                                           n_iterations, sync_spin):
        parked = _run(workload, policy, n_iterations, sync_spin)
        with never_parking():
            ticking = _run(workload, policy, n_iterations, sync_spin)
        assert sorted(parked.traces) == sorted(ticking.traces)
        for channel, trace in ticking.traces.items():
            other = parked.traces[channel]
            assert len(other) == len(trace), channel
            np.testing.assert_allclose(other.times, trace.times, rtol=REL,
                                       atol=0.0, err_msg=channel)
            if channel in DECISIONS:
                assert np.array_equal(other.values, trace.values), channel
            else:
                np.testing.assert_allclose(other.values, trace.values,
                                           rtol=REL, atol=1e-9,
                                           err_msg=channel)
        assert parked.final_ratio == ticking.final_ratio
        assert parked.health == ticking.health
        for name in ("total_energy_j", "gpu_energy_j", "cpu_energy_j",
                     "total_s"):
            assert math.isclose(getattr(parked, name),
                                getattr(ticking, name), rel_tol=REL), name
        assert len(parked.iterations) == len(ticking.iterations)
        for a, b in zip(parked.iterations, ticking.iterations):
            assert a.r == b.r
            assert math.isclose(a.energy_j, b.energy_j, rel_tol=REL)


class TestParkingSavesSteps:
    def test_greengpu_kmeans_takes_a_quarter_of_the_steps(self):
        steps = [0]
        original = HeteroSystem.step

        def counting(self, horizon=None):
            steps[0] += 1
            return original(self, horizon)

        HeteroSystem.step = counting
        try:
            _run("kmeans", "greengpu", 4, True, time_scale=0.25)
            parked, steps[0] = steps[0], 0
            with never_parking():
                _run("kmeans", "greengpu", 4, True, time_scale=0.25)
            ticking = steps[0]
        finally:
            HeteroSystem.step = original
        assert parked * 4 <= ticking, (parked, ticking)
