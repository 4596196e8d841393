"""Paired-oracle property tests: batch lane *i* ≡ scalar run *i*.

The lockstep batch engine (:mod:`repro.sim.batch`) is an optimized
re-expression of the scalar fast path, and its contract mirrors the
``step`` / ``_step_reference`` pairing: for every eligible request the
lane result must equal the scalar ``run_workload`` result **bit for
bit** — energies, times, division/frequency traces, iteration metrics,
health counters — not merely approximately.  ``result_to_dict`` equality
is the whole-surface bitwise comparison.

Lanes never carry controller ticks: GreenGPU and scaling-only runs take
the scalar engine, and ``run_batch`` rejects them.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import result_to_dict
from repro.core.policies import StaticPolicy
from repro.errors import SimulationError
from repro.runtime.executor import run_workload
from repro.sim.batch import BatchRunRequest, batch_eligible, run_batch

WORKLOADS = ["kmeans", "hotspot", "nbody", "streamcluster"]
POLICIES = ["division-only", "best-performance", "rodinia-default", "static"]


def _policy(name, time_scale, static_ratio, level):
    if name == "static":
        return StaticPolicy(level, level, ratio=static_ratio)
    from repro.cli import POLICY_FACTORIES
    from repro.experiments.common import scaled_config

    return POLICY_FACTORIES[name](scaled_config(time_scale))


def _request(workload, policy, static_ratio, level, n_iterations,
             time_scale, sync_spin=True):
    from repro.experiments.common import scaled_options, scaled_workload

    options = scaled_options(time_scale)
    if not sync_spin:
        options = dataclasses.replace(options, sync_spin=False)
    return BatchRunRequest(
        workload=scaled_workload(workload, time_scale),
        policy=_policy(policy, time_scale, static_ratio, level),
        n_iterations=n_iterations,
        options=options,
    )


def _scalar(request: BatchRunRequest):
    return run_workload(
        request.workload, request.policy,
        n_iterations=request.n_iterations, options=request.options,
    )


#: Tier-1 runs the oracle as a 10-example smoke test.  Any profile loaded
#: with ``--hypothesis-profile`` (the nightly ``ci-long`` job) sets the
#: count instead: a hard-coded ``max_examples`` would override it.
ORACLE_EXAMPLES = (
    10 if settings.get_current_profile_name() == "default"
    else settings.default.max_examples
)

#: One lane's free parameters.  Ratios are raw floats (not a grid) so the
#: divider/partition math is exercised off the usual 0.05 lattice.
LANE = st.tuples(
    st.sampled_from(WORKLOADS),
    st.sampled_from(POLICIES),
    st.floats(0.0, 0.95),
    st.integers(0, 2),
    st.integers(1, 3),
)


class TestLaneEquivalence:
    @given(
        lanes=st.lists(LANE, min_size=1, max_size=4),
        time_scale=st.sampled_from([0.05, 0.1]),
        sync_spin=st.booleans(),
    )
    @settings(max_examples=ORACLE_EXAMPLES, deadline=None)
    def test_batch_lane_matches_scalar_run(self, lanes, time_scale,
                                           sync_spin):
        requests = [
            _request(*lane, time_scale, sync_spin=sync_spin)
            for lane in lanes
        ]
        batch = run_batch(requests)
        assert len(batch) == len(requests)
        for request, result in zip(requests, batch):
            assert result.engine == "batch"
            # `engine` is execution provenance only — it must not leak
            # into the serialized surface, or batching would be visible
            # to the cache and the journal.
            assert result_to_dict(result) == result_to_dict(_scalar(request))


class TestLaneEquivalenceDeterministic:
    def test_mixed_heterogeneous_batch_multi_iteration(self):
        """One batch mixing workloads, policies, iteration counts, and
        sync-spin modes — lanes must not bleed into each other."""
        requests = [
            _request("kmeans", "division-only", 0.0, 0, 4, 0.05),
            _request("hotspot", "static", 0.55, 1, 2, 0.05),
            _request("nbody", "division-only", 0.0, 0, 3, 0.05),
            _request("streamcluster", "rodinia-default", 0.0, 0, 1, 0.05),
            _request("kmeans", "division-only", 0.0, 0, 2, 0.05,
                     sync_spin=False),
        ]
        for request, result in zip(requests, run_batch(requests)):
            assert result_to_dict(result) == result_to_dict(_scalar(request))

    def test_cpu_only_and_gpu_only_divisions(self):
        """r=1.0 empties the GPU queue; r=0.0 empties the CPU queue.
        Both degenerate head layouts must match the scalar engine."""
        requests = [
            _request("kmeans", "static", 0.0, 0, 2, 0.05),
            _request("kmeans", "static", 1.0, 0, 2, 0.05),
        ]
        for request, result in zip(requests, run_batch(requests)):
            assert result_to_dict(result) == result_to_dict(_scalar(request))

    def test_full_static_division_sweep(self):
        """A 21-lane ``sweep_divisions``-shaped batch: wide cohorts of
        lanes complete heads on the same tick, at the same and at
        different queue positions."""
        requests = [
            _request("kmeans", "static", k / 20, 0, 2, 0.05)
            for k in range(21)
        ]
        for request, result in zip(requests, run_batch(requests)):
            assert result_to_dict(result) == result_to_dict(_scalar(request))

    def test_ineligible_workload_rejected(self):
        class _Opaque:
            name = "opaque"
            default_iterations = 1

        assert not batch_eligible(_Opaque())
        request = _request("kmeans", "static", 0.3, 0, 1, 0.05)
        bad = BatchRunRequest(workload=_Opaque(), policy=request.policy,
                              n_iterations=1, options=request.options)
        with pytest.raises(SimulationError):
            run_batch([bad])

    def test_faulted_policy_rejected(self):
        from repro.faults.injector import fault_profile

        request = _request("kmeans", "greengpu", 0.0, 0, 1, 0.05)
        faulted = BatchRunRequest(
            workload=request.workload,
            policy=request.policy.with_faults(fault_profile("light", seed=1)),
            n_iterations=1,
            options=request.options,
        )
        with pytest.raises(SimulationError):
            run_batch([faulted])

    @pytest.mark.parametrize("policy", ["greengpu", "scaling-only"])
    def test_tick_policy_rejected(self, policy):
        request = _request("kmeans", policy, 0.0, 0, 1, 0.05)
        with pytest.raises(SimulationError):
            run_batch([request])

    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            run_batch([])
