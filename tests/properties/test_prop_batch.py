"""Paired-oracle property tests: batch lane *i* ≡ scalar run *i*.

The lockstep batch engine (:mod:`repro.sim.batch`) is an optimized
re-expression of the scalar fast path, and its contract mirrors the
``step`` / ``_step_reference`` pairing: for every eligible request the
lane result must equal the scalar ``run_workload`` result **bit for
bit** — energies, times, division/frequency traces, iteration metrics,
health counters — not merely approximately.  ``result_to_dict`` equality
is the whole-surface bitwise comparison.

Lanes never carry a GreenGPU tier: GreenGPU, scaling-only and
division-only runs take the scalar engine, and ``run_batch`` rejects
them.

Lanes tick only their first iteration and replay the rest from its tape;
the replay and deadline classes below pin that path to the same oracle.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import result_to_dict
from repro.core.policies import StaticPolicy
from repro.errors import SimulationError
from repro.runtime.executor import run_workload
from repro.sim.batch import BatchRunRequest, batch_eligible, run_batch

WORKLOADS = ["kmeans", "hotspot", "nbody", "streamcluster"]
POLICIES = ["best-performance", "rodinia-default", "static"]


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
#: partition math is exercised off the usual 0.05 lattice.
LANE = st.tuples(
    st.sampled_from(WORKLOADS),
    st.sampled_from(POLICIES),
    st.floats(0.0, 0.95),
    st.integers(0, 2),
    # Up to six iterations, so most lanes replay iterations 1..n-1 from
    # their iteration-0 tape rather than ticking them.
    st.integers(1, 6),
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
            _request("kmeans", "static", 0.2, 2, 4, 0.05),
            _request("hotspot", "static", 0.55, 1, 2, 0.05),
            _request("nbody", "best-performance", 0.0, 0, 3, 0.05),
            _request("streamcluster", "rodinia-default", 0.0, 0, 1, 0.05),
            _request("kmeans", "static", 0.45, 0, 2, 0.05,
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

    def test_divider_policy_rejected(self):
        request = _request("kmeans", "division-only", 0.0, 0, 1, 0.05)
        with pytest.raises(SimulationError):
            run_batch([request])

    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            run_batch([])


class TestReplayEquivalence:
    """Pinned lanes replay iterations 1..n-1 from iteration 0's tape."""

    @pytest.mark.parametrize("sync_spin", [True, False])
    @pytest.mark.parametrize("workload", ["kmeans", "streamcluster"])
    def test_sixteen_iteration_division_sweep(self, workload, sync_spin):
        """``sweep_divisions``-shaped: 21 ratios, 16 iterations each, so
        every lane replays fifteen iterations, cohorts of lanes reach
        their first barrier on different ticks, and r = 0 / r = 1 lanes
        have one device idle throughout."""
        requests = [
            _request(workload, "static", k / 20, 0, 16, 0.05,
                     sync_spin=sync_spin)
            for k in range(21)
        ]
        for request, result in zip(requests, run_batch(requests)):
            assert result_to_dict(result) == result_to_dict(_scalar(request))

    def test_replayed_lanes_beside_ticking_lanes(self):
        """Lanes of 2, 7 and 16 iterations retire at their first barrier
        while one-iteration lanes, which tick and never tape, are still
        running or finish beside them in the same batch."""
        requests = [
            _request(workload, "static", ratio, level, n, 0.05)
            for workload, ratio, level, n in [
                ("kmeans", 0.3, 0, 1), ("hotspot", 0.55, 1, 2),
                ("nbody", 0.0, 2, 7), ("streamcluster", 1.0, 0, 16),
                ("kmeans", 0.8, 1, 16), ("hotspot", 0.15, 0, 7),
                ("streamcluster", 0.4, 2, 1), ("nbody", 0.6, 1, 1),
            ]
        ] + [
            _request("streamcluster", "best-performance", 0.0, 0, 2, 0.05),
        ]
        for request, result in zip(requests, run_batch(requests)):
            assert result_to_dict(result) == result_to_dict(_scalar(request))


def _outcome(run):
    """``("ok", result dict)`` or ``("error", message)``."""
    try:
        return "ok", result_to_dict(run())
    except SimulationError as exc:
        return "error", str(exc)


class TestDeadlineParity:
    """The replay rule hands a lane back to the tick loop whenever the
    iteration deadline could bind, so a timeout at the edge of an
    iteration's wall time raises (or not) exactly as the scalar run."""

    @staticmethod
    def _timeouts(wall):
        return [
            wall * (1.0 - 1e-9),
            wall * (1.0 - 1e-12),
            math.nextafter(wall, 0.0),
            wall,
            math.nextafter(wall, math.inf),
            wall * (1.0 + 1e-12),
        ]

    @pytest.mark.parametrize("workload,ratio", [
        ("kmeans", 0.3), ("hotspot", 0.55), ("nbody", 0.0),
    ])
    def test_timeout_at_iteration_wall_time(self, workload, ratio):
        probe = _request(workload, "static", ratio, 0, 16, 0.05)
        wall = _scalar(probe).iterations[0].wall_s
        neighbours = [
            _request("kmeans", "static", 0.7, 1, 5, 0.05),
            _request("nbody", "static", 0.25, 0, 1, 0.05),
        ]
        seen = set()
        for timeout in self._timeouts(wall):
            options = dataclasses.replace(probe.options,
                                          iteration_timeout_s=timeout)
            lane = dataclasses.replace(probe, options=options)
            scalar = _outcome(lambda: _scalar(lane))
            batch = _outcome(lambda: run_batch([*neighbours, lane])[-1])
            assert batch == scalar, timeout
            seen.add(scalar[0])
        # The grid straddles the edge: some timeouts raise, some do not.
        assert seen == {"ok", "error"}

    def test_lane_handed_back_after_replayed_iterations(self, monkeypatch):
        """kmeans at r = 0.3 has later iterations ~1.7e-13 s longer than
        iteration 0; a timeout of exactly iteration 0's wall time lets
        the tape replay until the first such iteration, which then runs
        on the tick loop — and still matches the scalar run."""
        from repro.sim import batch

        handed_back = []
        replay = batch._BatchEngine._replay

        def spy(engine, idx):
            back = replay(engine, idx)
            handed_back.extend(engine.iter_i[back].tolist())
            return back

        monkeypatch.setattr(batch._BatchEngine, "_replay", spy)
        probe = _request("kmeans", "static", 0.3, 0, 16, 0.05)
        wall = _scalar(probe).iterations[0].wall_s
        options = dataclasses.replace(probe.options, iteration_timeout_s=wall)
        lane = dataclasses.replace(probe, options=options)
        assert _outcome(lambda: run_batch([lane])[0]) == \
            _outcome(lambda: _scalar(lane))
        assert handed_back and min(handed_back) > 1
