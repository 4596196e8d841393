"""Paired-oracle property tests: the fast step path vs its kept reference.

``HeteroSystem.step`` is an optimized rewrite of ``_step_reference``
(epoch-cached device powers, single-pass dt selection, O(1) meter
fast-forward).  The optimization contract is *bit identity*: both paths
must produce exactly the same dt sequence, meter integrals, and run
results on every scenario — not merely approximately equal ones.  These
tests replay identical scenarios through both steppers and compare
floats with ``==``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import result_to_dict
from repro.runtime.executor import run_workload
from repro.sim.activity import KernelActivity, PhaseDemand
from repro.sim.platform import HeteroSystem, make_testbed

#: Tier-1 runs 12 whole runs and 40 step sequences.  Any profile loaded
#: with ``--hypothesis-profile`` (the nightly ``ci-long`` job) sets both
#: counts instead: a hard-coded ``max_examples`` would override it.
_PROFILED = settings.get_current_profile_name() != "default"
RUN_EXAMPLES = settings.default.max_examples if _PROFILED else 12
STEP_EXAMPLES = settings.default.max_examples if _PROFILED else 40


def reference_stepping():
    """Context manager: route all HeteroSystem stepping through the oracle."""
    import contextlib

    @contextlib.contextmanager
    def _ctx():
        original = HeteroSystem.step
        HeteroSystem.step = HeteroSystem._step_reference
        try:
            yield
        finally:
            HeteroSystem.step = original

    return _ctx()


def _policy(name, time_scale, faults, fault_seed):
    from repro.cli import POLICY_FACTORIES
    from repro.experiments.common import scaled_config
    from repro.faults.injector import fault_profile

    policy = POLICY_FACTORIES[name](scaled_config(time_scale))
    if faults != "none":
        policy = policy.with_faults(fault_profile(faults, seed=fault_seed))
    return policy


def _run(workload_name, policy_name, n_iterations, time_scale, faults,
         fault_seed):
    from repro.experiments.common import scaled_options, scaled_workload

    return run_workload(
        scaled_workload(workload_name, time_scale),
        _policy(policy_name, time_scale, faults, fault_seed),
        n_iterations=n_iterations,
        options=scaled_options(time_scale),
    )


class TestWholeRunBitIdentity:
    @given(
        workload=st.sampled_from(["kmeans", "hotspot", "nbody", "streamcluster"]),
        policy=st.sampled_from(
            ["greengpu", "scaling-only", "division-only", "best-performance"]
        ),
        faults=st.sampled_from(["none", "light", "moderate"]),
        fault_seed=st.integers(0, 3),
    )
    @settings(max_examples=RUN_EXAMPLES, deadline=None)
    def test_fast_and_reference_runs_identical(self, workload, policy, faults,
                                               fault_seed):
        fast = _run(workload, policy, 1, 0.05, faults, fault_seed)
        with reference_stepping():
            oracle = _run(workload, policy, 1, 0.05, faults, fault_seed)
        # result_to_dict captures the full surface — energies, times,
        # division/frequency traces, health counters — as plain floats;
        # dict equality is therefore bitwise comparison of all of them.
        assert result_to_dict(fast) == result_to_dict(oracle)

    def test_multi_iteration_greengpu_identical(self):
        fast = _run("kmeans", "greengpu", 3, 0.05, "none", 0)
        with reference_stepping():
            oracle = _run("kmeans", "greengpu", 3, 0.05, "none", 0)
        assert result_to_dict(fast) == result_to_dict(oracle)


def _two_card_testbed():
    """Default testbed plus a second card with a different spec."""
    import dataclasses

    from repro.sim.calibration import default_testbed_config

    config = default_testbed_config()
    card1 = dataclasses.replace(
        config.gpu, name="half-speed card",
        peak_compute_rate=config.gpu.peak_compute_rate / 2.0,
        peak_bandwidth=config.gpu.peak_bandwidth * 0.75,
    )
    return HeteroSystem(dataclasses.replace(config, extra_gpus=(card1,)))


def _submit_scenario(system, kernels, cpu_frequency_level, gpu_levels):
    """Load one deterministic scenario onto a fresh testbed."""
    gpu, cpu = system.gpu, system.cpu
    gpu.set_frequencies(
        gpu.spec.core_ladder[gpu_levels[0]], gpu.spec.mem_ladder[gpu_levels[1]]
    )
    cpu.set_frequency(cpu.spec.ladder[cpu_frequency_level])
    for flops_scale, bytes_scale, stall_s in kernels:
        spec = gpu.spec
        gpu.submit_kernel(KernelActivity([
            PhaseDemand(
                flops=flops_scale * spec.peak_compute_rate,
                bytes=bytes_scale * spec.peak_bandwidth,
                stall_s=stall_s,
            )
        ]))
        cpu.submit_kernel(KernelActivity([
            PhaseDemand(
                flops=flops_scale * 0.5 * cpu.spec.peak_compute_rate,
                bytes=0.0,
                stall_s=stall_s * 0.5,
            )
        ]))


class TestStepTrajectoryBitIdentity:
    @given(
        kernels=st.lists(
            st.tuples(
                st.floats(0.05, 2.0),
                st.floats(0.05, 2.0),
                st.floats(0.0, 0.3),
            ),
            min_size=1, max_size=4,
        ),
        cpu_level=st.integers(0, 2),
        core_level=st.integers(0, 2),
        mem_level=st.integers(0, 2),
        tick_period=st.floats(0.05, 0.4),
        # None: the one-card testbed; else a second, different card's levels.
        card1_levels=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    @settings(max_examples=STEP_EXAMPLES, deadline=None)
    def test_dt_sequence_and_integrals_match(self, kernels, cpu_level,
                                             core_level, mem_level,
                                             tick_period, card1_levels):
        two_cards = card1_levels is not None
        fast = _two_card_testbed() if two_cards else make_testbed()
        oracle = _two_card_testbed() if two_cards else make_testbed()
        for system in (fast, oracle):
            _submit_scenario(system, kernels, cpu_level,
                             (core_level, mem_level))
            if two_cards:
                card = system.gpus[1]
                card.set_levels(*card1_levels)
                for flops_scale, bytes_scale, stall_s in reversed(kernels):
                    card.submit_kernel(KernelActivity([PhaseDemand(
                        flops=0.7 * flops_scale * card.spec.peak_compute_rate,
                        bytes=1.3 * bytes_scale * card.spec.peak_bandwidth,
                        stall_s=stall_s,
                    )]))
            system.clock.every(tick_period, lambda t: None)

        for _ in range(800):
            if not (fast.any_gpu_busy() or fast.cpu.has_work):
                break
            dt_fast = fast.step(horizon=10.0)
            dt_ref = oracle._step_reference(horizon=10.0)
            assert dt_fast == dt_ref  # bitwise, not approx
        fast.finalize_meters()
        oracle.finalize_meters()

        assert fast.meter_cpu.energy_j == oracle.meter_cpu.energy_j
        assert fast.meter_cpu.elapsed_s == oracle.meter_cpu.elapsed_s
        assert fast.meter_cpu.samples == oracle.meter_cpu.samples
        for a, b in zip(fast.meter_gpus, oracle.meter_gpus, strict=True):
            assert a.energy_j == b.energy_j
            assert a.samples == b.samples
        for a, b in zip(fast.gpus, oracle.gpus, strict=True):
            assert a.energy_j == b.energy_j
        assert fast.cpu.energy_j == oracle.cpu.energy_j
        assert fast.total_energy_j == oracle.total_energy_j
        assert fast.now == oracle.now

    def test_mid_run_frequency_changes_match(self):
        fast = make_testbed()
        oracle = make_testbed()

        def retune(system):
            gpu = system.gpu

            def cb(t):
                level = int(t * 10) % len(gpu.spec.core_ladder)
                gpu.set_frequencies(
                    gpu.spec.core_ladder[level], gpu.f_mem
                )

            return cb

        for system in (fast, oracle):
            _submit_scenario(system, [(1.0, 0.5, 0.1), (0.4, 1.2, 0.0)], 1,
                             (0, 0))
            system.clock.every(0.13, retune(system))

        while fast.gpu.busy or fast.cpu.has_work:
            assert fast.step(horizon=5.0) == oracle._step_reference(horizon=5.0)
        assert fast.meter_cpu.energy_j == oracle.meter_cpu.energy_j
        assert fast.meter_gpu.energy_j == oracle.meter_gpu.energy_j


class TestInstantaneousPowerCache:
    def test_cached_power_matches_uncached_after_mutations(self):
        system = make_testbed()
        gpu, cpu = system.gpu, system.cpu
        assert gpu.instantaneous_power() == gpu.instantaneous_power_uncached()
        assert cpu.instantaneous_power() == cpu.instantaneous_power_uncached()
        gpu.set_frequencies(gpu.spec.core_ladder[1], gpu.spec.mem_ladder[1])
        cpu.set_frequency(cpu.spec.ladder[1])
        assert gpu.instantaneous_power() == gpu.instantaneous_power_uncached()
        assert cpu.instantaneous_power() == cpu.instantaneous_power_uncached()
        gpu.submit_kernel(KernelActivity([
            PhaseDemand(flops=gpu.spec.peak_compute_rate, bytes=0.0,
                        stall_s=0.0)
        ]))
        assert gpu.instantaneous_power() == gpu.instantaneous_power_uncached()
        while gpu.busy:
            gpu.advance(gpu.time_to_event())
            assert gpu.instantaneous_power() == gpu.instantaneous_power_uncached()

    def test_spin_state_invalidates_cpu_cache(self):
        system = make_testbed()
        cpu = system.cpu
        idle = cpu.instantaneous_power()
        cpu.spin()
        spinning = cpu.instantaneous_power()
        assert spinning > idle
        assert spinning == cpu.instantaneous_power_uncached()
        cpu.stop_spin()
        assert cpu.instantaneous_power() == idle
