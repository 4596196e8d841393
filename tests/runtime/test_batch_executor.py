"""Dispatch tests for the batched execution layer.

Every :class:`RunResult` now carries an ``engine`` provenance field; the
table test below drives one request of each dispatch-relevant shape
through :class:`BatchExecutor` and asserts which path it actually took.
The field is deliberately excluded from ``result_to_dict`` so provenance
never leaks into the cache or the journal — also asserted here.
"""

import pytest

from repro.analysis.serialize import result_to_dict
from repro.cache import ResultCache
from repro.core.policies import GreenGpuPolicy, StaticPolicy
from repro.errors import SimulationError
from repro.faults.injector import fault_profile
from repro.runtime.batch_executor import (
    FLEET_SCALAR_REASON,
    BatchExecutor,
    RunRequest,
    classify,
)
from repro.runtime.executor import ExecutorOptions, run_workload
from repro.sim.platform import make_testbed
from repro.sim.trace import TraceRecorder
from repro.telemetry import AuditTrail, Telemetry
from tests.conftest import FAST_SCALE, fast_workload


def _options() -> ExecutorOptions:
    return ExecutorOptions(repartition_overhead_s=0.5 * FAST_SCALE)


def _request(**overrides) -> RunRequest:
    base = dict(
        workload=fast_workload("kmeans"),
        policy=StaticPolicy(0, 0, ratio=0.3),
        n_iterations=1,
        options=_options(),
    )
    base.update(overrides)
    return RunRequest(**base)


class _OpaqueWorkload:
    name = "opaque"
    default_iterations = 1


class TestClassify:
    def test_eligible_request_classifies_none(self):
        assert classify(_request()) is None

    @pytest.mark.parametrize("overrides, reason", [
        ({"workload": _OpaqueWorkload()}, "workload"),
        ({"policy": GreenGpuPolicy().with_faults(
            fault_profile("light", seed=0))}, "faults"),
        ({"system": object()}, "system"),
        ({"recorder": TraceRecorder()}, "recorder"),
        ({"audit": object()}, "audit"),
        ({"warmup_s": 0.5}, "warmup"),
    ])
    def test_ineligible_reasons(self, overrides, reason):
        assert classify(_request(**overrides)) == reason

    def test_enabled_telemetry_is_ineligible(self):
        from repro.telemetry import Telemetry

        assert classify(_request(telemetry=Telemetry())) == "telemetry"

    def test_disabled_telemetry_stays_eligible(self):
        class _Disabled:
            enabled = False

        assert classify(_request(telemetry=_Disabled())) is None


class TestDispatchTable:
    def test_batch_of_eligible_requests(self):
        requests = [
            _request(policy=StaticPolicy(0, 0, ratio=r))
            for r in (0.0, 0.3, 0.6)
        ]
        results = BatchExecutor().run_many(requests)
        assert [r.engine for r in results] == ["batch"] * 3

    def test_singleton_falls_back_to_scalar(self):
        [result] = BatchExecutor().run_many([_request()])
        assert result.engine == "scalar:singleton"

    def test_mixed_batch_annotates_each_fallback(self):
        requests = [
            _request(),                                    # lane 0: batch
            _request(policy=GreenGpuPolicy().with_faults(
                fault_profile("light", seed=0))),          # scalar:faults
            _request(policy=StaticPolicy(1, 1, ratio=0.5)),  # lane 1: batch
            _request(warmup_s=0.2),                        # scalar:warmup
        ]
        results = BatchExecutor().run_many(requests)
        assert [r.engine for r in results] == [
            "batch", "scalar:faults", "batch", "scalar:warmup",
        ]

    def test_scalar_fallback_matches_run_workload(self):
        request = _request(warmup_s=0.2)
        [result] = BatchExecutor().run_many([request])
        direct = run_workload(request.workload, request.policy,
                              n_iterations=request.n_iterations,
                              options=request.options,
                              warmup_s=request.warmup_s)
        assert result_to_dict(result) == result_to_dict(direct)

    def test_engine_excluded_from_serialized_surface(self):
        [a, b] = BatchExecutor().run_many([_request(), _request()])
        assert a.engine == "batch"
        assert "engine" not in result_to_dict(a)
        assert result_to_dict(a) == result_to_dict(b)

    def test_fleet_reason_constant_shape(self):
        # Fleet shards stamp this into their payloads; keep it in the
        # same "scalar:<reason>" namespace the executor uses.
        assert FLEET_SCALAR_REASON.startswith("scalar:")


class TestCacheInterplay:
    def test_batch_results_stored_per_lane(self, tmp_path):
        cache = ResultCache(tmp_path)
        requests = [
            _request(policy=StaticPolicy(0, 0, ratio=r))
            for r in (0.1, 0.7)
        ]
        executor = BatchExecutor(cache=cache)
        first = executor.run_many(requests)
        assert [r.engine for r in first] == ["batch", "batch"]
        assert cache.stores == 2

        second = executor.run_many([
            _request(policy=StaticPolicy(0, 0, ratio=r))
            for r in (0.1, 0.7)
        ])
        assert [r.engine for r in second] == ["cache", "cache"]
        for a, b in zip(first, second):
            assert result_to_dict(a) == result_to_dict(b)

    def test_batch_entries_serve_scalar_run_workload(self, tmp_path):
        """Batching is invisible to the cache: a scalar ``run_workload``
        with the same request must hit the batch-stored entry."""
        cache = ResultCache(tmp_path)
        requests = [
            _request(policy=StaticPolicy(0, 0, ratio=r))
            for r in (0.2, 0.8)
        ]
        [batched, _] = BatchExecutor(cache=cache).run_many(requests)
        hits_before = cache.hits
        scalar = run_workload(
            fast_workload("kmeans"), StaticPolicy(0, 0, ratio=0.2),
            n_iterations=1, options=_options(), cache=cache,
        )
        assert cache.hits == hits_before + 1
        assert scalar.engine == "cache"
        assert result_to_dict(scalar) == result_to_dict(batched)

    def test_partial_hits_batch_only_the_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = BatchExecutor(cache=cache)
        executor.run_many([
            _request(policy=StaticPolicy(0, 0, ratio=r))
            for r in (0.1, 0.5)
        ])
        results = executor.run_many([
            _request(policy=StaticPolicy(0, 0, ratio=r))
            for r in (0.1, 0.3, 0.5, 0.9)
        ])
        assert [r.engine for r in results] == [
            "cache", "batch", "cache", "batch",
        ]


    def test_lone_miss_costs_one_lookup(self, tmp_path):
        cache = ResultCache(tmp_path)
        [result] = BatchExecutor(cache=cache).run_many([_request()])
        assert result.engine == "scalar:singleton"
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)


def _faulted():
    return GreenGpuPolicy().with_faults(fault_profile("light", seed=0))


#: (shape, request overrides, served from a warm entry, result stored).
#: Factories, so every run gets fresh policies and observers.
CACHE_RULES = [
    ("plain", lambda: {}, True, False),
    ("faults", lambda: {"policy": _faulted()}, True, False),
    ("warmup", lambda: {"warmup_s": 0.2}, True, False),
    ("recorder", lambda: {"recorder": TraceRecorder()}, False, True),
    ("telemetry", lambda: {"telemetry": Telemetry()}, False, True),
    ("audit", lambda: {"audit": AuditTrail()}, False, True),
    ("system", lambda: {"system": make_testbed()}, False, False),
]


class TestCacheRules:
    """One rule for every request: a key needs a cache and no caller
    system, a hit is served only to an unobserved request, and every
    computed result with a key is stored."""

    @pytest.mark.parametrize("shape, overrides, served, stored", CACHE_RULES,
                             ids=[rule[0] for rule in CACHE_RULES])
    def test_rule(self, tmp_path, shape, overrides, served, stored):
        cache = ResultCache(tmp_path)
        # Warm the entry the request's own key points at (a caller
        # system leaves the key of the plain request).
        keyed = {k: v for k, v in overrides().items()
                 if k in ("policy", "warmup_s")}
        [warm] = BatchExecutor(cache=cache).run_many([_request(**keyed)])
        assert cache.stores == 1

        [result] = BatchExecutor(cache=cache).run_many(
            [_request(**overrides())])
        assert (result.engine == "cache") is served
        assert cache.stores == 1 + stored
        if served:
            assert result_to_dict(result) == result_to_dict(warm)


class TestFinalizeMetersOnFailure:
    def test_meters_flushed_when_iteration_times_out(self):
        """A mid-horizon ``SimulationError`` must still leave a
        caller-owned system's meter logs finalized (no open partial
        sampling window)."""
        system = make_testbed()
        options = ExecutorOptions(
            repartition_overhead_s=0.5 * FAST_SCALE,
            iteration_timeout_s=1e-3,
        )
        with pytest.raises(SimulationError):
            run_workload(fast_workload("kmeans"), StaticPolicy(0, 0, ratio=0.3),
                         n_iterations=1, system=system, options=options)
        assert system.meter_cpu.elapsed_s > 0.0
        assert len(system.meter_cpu.samples) > 0
        # finalize() already ran in the executor's finally block, so a
        # second flush must be a no-op — the partial window was closed.
        cpu_samples = len(system.meter_cpu.samples)
        gpu_samples = len(system.meter_gpu.samples)
        system.finalize_meters()
        assert len(system.meter_cpu.samples) == cpu_samples
        assert len(system.meter_gpu.samples) == gpu_samples
