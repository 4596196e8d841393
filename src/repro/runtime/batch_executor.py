"""The run dispatcher: the one place that picks an engine and serves the cache.

Every run goes through ``BatchExecutor.run_many`` — ``run_workload`` is
its one-request case.  For each request it decides:

- **cache**: a request has a content-addressed ``run_key`` only when the
  executor has a cache and the caller supplied no ``system``.  A stored
  entry is served (``engine == "cache"``) only to an unobserved request
  — no recorder, no audit trail, no enabled telemetry — because those
  side-effect artifacts must come from a live run.
- **batch**: two or more remaining requests that the lockstep engine can
  represent bit-exactly (see :func:`classify`) run as lanes of one
  :func:`repro.sim.batch.run_batch` call (``engine == "batch"``).
- **scalar**: everything else — faulted policies, instrumented runs,
  caller-supplied systems or recorders, warmups, non-demand-model
  workloads, or a lone eligible request not worth the numpy overhead
  (every plain ``run_workload``) — runs
  :func:`~repro.runtime.executor.simulate`, with the reason recorded in
  ``engine == "scalar:<reason>"``.

Every computed result with a key is stored, instrumented runs included
(with their telemetry snapshot), so later plain requests skip the work.
Keys are per request, so batch execution is invisible to the cache, the
job journal, and resume: a warm sweep served from cache cannot tell
which engine produced the entries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.runtime.executor import ExecutorOptions, simulate
from repro.runtime.metrics import RunResult
from repro.workloads.base import DemandModelWorkload

#: Reason recorded by fleet shard payloads: fleet nodes run caller-built
#: systems (power-cap ceilings, per-node fault injectors) that the batch
#: engine's fresh-default-testbed contract excludes by construction.
FLEET_SCALAR_REASON = "scalar:fleet-custom-system"

#: Fewest lanes worth a batch: a lone lane pays numpy dispatch overhead
#: per tick for no amortization, so the scalar fast path is faster.
_MIN_BATCH = 2


@dataclass(slots=True)
class RunRequest:
    """One logical ``run_workload`` invocation, dispatchable as a lane.

    The fields are :func:`~repro.runtime.executor.simulate`'s arguments.
    """

    workload: object
    policy: object
    n_iterations: int | None = None
    options: ExecutorOptions | None = None
    system: object | None = None
    recorder: object | None = None
    warmup_s: float = 0.0
    telemetry: object | None = None
    audit: object | None = None


def _observed(request: RunRequest) -> bool:
    """Whether the request carries side channels only a live run can feed."""
    return (
        request.recorder is not None
        or request.audit is not None
        or getattr(request.telemetry, "enabled", False)
    )


def classify(request: RunRequest) -> str | None:
    """Why this request cannot ride the batched engine, or None if it can.

    The batch engine models exactly the scalar fast path on a fresh
    default testbed with an unobserved controller; anything that injects
    faults, instruments the run, or supplies external state must take the
    scalar path so those side effects come from a live scalar run.
    """
    if not isinstance(request.workload, DemandModelWorkload):
        # Only demand-model workloads have the iteration-invariant segment
        # queues the engine packs (``repro.sim.batch.batch_eligible``).
        return "workload"
    if request.policy.fault_plan is not None:
        return "faults"
    if request.system is not None:
        return "system"
    if request.recorder is not None:
        return "recorder"
    if getattr(request.telemetry, "enabled", False):
        return "telemetry"
    if request.audit is not None:
        return "audit"
    if request.warmup_s != 0.0:
        return "warmup"
    return None


class BatchExecutor:
    """Routes request lists through cache, batch, or scalar execution."""

    def __init__(self, cache=None):
        self.cache = cache

    def run_many(self, requests: list[RunRequest]) -> list[RunResult]:
        """Execute every request; results come back in request order."""
        results: list[RunResult | None] = [None] * len(requests)
        keys = [self._cache_key(request) for request in requests]
        reasons: dict[int, str | None] = {}
        for i, request in enumerate(requests):
            if keys[i] is not None and not _observed(request):
                results[i] = self._lookup(keys[i])
            if results[i] is None:
                reasons[i] = classify(request)
        lanes = [i for i, reason in reasons.items() if reason is None]
        if len(lanes) < _MIN_BATCH:
            reasons.update((i, "singleton") for i in lanes)
            lanes = []
        for i, reason in reasons.items():
            if reason is not None:
                request = requests[i]
                result = simulate(**{f.name: getattr(request, f.name)
                                     for f in fields(request)})
                result.engine = f"scalar:{reason}"
                results[i] = result
                self._store(keys[i], request, result)
        if lanes:
            # Imported here, like the cache and the serializer below, so a
            # lone uncached run (every spawned service worker) never
            # loads them.
            from repro.sim.batch import BatchRunRequest, run_batch

            lane_requests = [
                BatchRunRequest(
                    workload=requests[i].workload,
                    policy=requests[i].policy,
                    n_iterations=requests[i].n_iterations,
                    options=requests[i].options,
                )
                for i in lanes
            ]
            for i, result in zip(lanes, run_batch(lane_requests)):
                results[i] = result
                self._store(keys[i], requests[i], result)
        return results  # type: ignore[return-value]

    def _cache_key(self, request: RunRequest) -> str | None:
        if self.cache is None or request.system is not None:
            return None
        from repro.cache import run_key

        return run_key(
            request.workload,
            request.policy,
            request.n_iterations,
            request.options,
            request.warmup_s,
        )

    def _lookup(self, key: str) -> RunResult | None:
        from repro.analysis.serialize import result_from_dict

        payload = self.cache.get(key)
        if payload is None:
            return None
        try:
            result = result_from_dict(payload["result"])
        except Exception:
            # Entry parsed but does not round-trip (e.g. written by an
            # incompatible revision): recompute, and the store overwrites it.
            return None
        result.engine = "cache"
        return result

    def _store(self, key: str | None, request: RunRequest,
               result: RunResult) -> None:
        if key is None:
            return
        from repro.analysis.serialize import result_to_dict

        payload = {"result": result_to_dict(result)}
        if getattr(request.telemetry, "enabled", False):
            payload["telemetry"] = request.telemetry.registry.snapshot()
        self.cache.put(key, payload)
