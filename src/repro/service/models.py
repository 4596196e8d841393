"""Job model of the serving layer: requests, records, lifecycle states.

A submission is a tiny JSON document naming a simulation the existing
engine already knows how to run::

    {"workload": "kmeans", "policy": "greengpu", "iterations": 4,
     "time_scale": 0.05, "tenant": "team-a", "deadline_s": 30.0}

Admission validates it against the same registries the CLI uses (unknown
workloads and policies are a 400, not a queued failure), derives the
content-address of the result (:func:`repro.cache.job_key` over the
worker target + kwargs — the exact key the harness would use, so service
and CLI share one cache), and freezes it into an immutable
:class:`JobRequest`.  The mutable :class:`JobRecord` wraps that request
with everything the daemon learns afterwards: state, attempts, result,
journal-relevant timestamps.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SerializationError, ServiceError
from repro.service.config import DEFAULT_TENANT, ServiceConfig

#: Dotted target executed by workers for every service job.
JOB_TARGET = "repro.service.jobs:run_simulation"


class JobPhase(enum.Enum):
    """Lifecycle of one accepted submission."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"              # result available (simulated or cached)
    FAILED = "failed"          # attempts exhausted
    EXPIRED = "expired"        # deadline passed in-queue or in-flight
    CANCELLED = "cancelled"    # client DELETE or shutdown abandonment


#: Phases a job can end in.
TERMINAL_PHASES = frozenset({
    JobPhase.DONE, JobPhase.FAILED, JobPhase.EXPIRED, JobPhase.CANCELLED,
})


@dataclass(frozen=True)
class JobRequest:
    """One validated, admitted submission (immutable)."""

    tenant: str
    workload: str
    policy: str
    iterations: int
    time_scale: float
    deadline_s: float | None      # relative, as submitted
    cache_key: str | None

    def kwargs(self) -> dict[str, Any]:
        """Worker kwargs — exactly what :data:`JOB_TARGET` accepts."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "n_iterations": self.iterations,
            "time_scale": self.time_scale,
        }

    def as_dict(self) -> dict[str, Any]:
        """JSON form journaled at submission; :func:`request_from_dict`
        must reconstruct an identical request from it on recovery."""
        return {
            "tenant": self.tenant,
            "workload": self.workload,
            "policy": self.policy,
            "iterations": self.iterations,
            "time_scale": self.time_scale,
            "deadline_s": self.deadline_s,
            "cache_key": self.cache_key,
        }


#: Field types of a journaled request (``as_dict``); None is allowed
#: only for the optional ones.
_REQUEST_FIELDS: dict[str, tuple[type, ...]] = {
    "tenant": (str,), "workload": (str,), "policy": (str,),
    "iterations": (int,), "time_scale": (int, float),
}
_OPTIONAL_REQUEST_FIELDS: dict[str, tuple[type, ...]] = {
    "deadline_s": (int, float), "cache_key": (str,),
}


def request_from_dict(data: Any) -> JobRequest:
    """Rebuild a journaled :class:`JobRequest` (crash recovery).

    Raises :class:`SerializationError` unless ``data`` is an object with
    the fields :meth:`JobRequest.as_dict` writes, each of its type.
    """
    if not isinstance(data, dict):
        raise SerializationError("journaled request is not a JSON object")
    for fields, optional in ((_REQUEST_FIELDS, False),
                             (_OPTIONAL_REQUEST_FIELDS, True)):
        for name, kinds in fields.items():
            value = data.get(name)
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise SerializationError(
                    f"journaled request has a missing or wrongly typed "
                    f"{name!r} field"
                )
    return JobRequest(
        tenant=data["tenant"],
        workload=data["workload"],
        policy=data["policy"],
        iterations=data["iterations"],
        time_scale=data["time_scale"],
        deadline_s=data.get("deadline_s"),
        cache_key=data.get("cache_key"),
    )


def parse_request(body: Any, config: ServiceConfig) -> JobRequest:
    """Validate a decoded submission body into a :class:`JobRequest`.

    Raises :class:`ServiceError` with a client-presentable message (the
    HTTP layer maps it to a 400) on anything malformed: unknown
    workload/policy, out-of-guard iterations or time scale, negative or
    over-ceiling deadlines.
    """
    if not isinstance(body, dict):
        raise ServiceError("submission body must be a JSON object")

    from repro.core.policies import POLICY_FACTORIES
    from repro.workloads.characteristics import ALIASES, get_profile

    workload = body.get("workload", "kmeans")
    if not isinstance(workload, str):
        raise ServiceError("workload must be a string")
    try:
        get_profile(workload)
    except Exception:
        raise ServiceError(f"unknown workload {workload!r}") from None
    # Canonicalize aliases so "PF" and "pathfinder" share one cache key.
    workload = ALIASES.get(workload, workload)

    policy = body.get("policy", "greengpu")
    if policy not in POLICY_FACTORIES:
        raise ServiceError(
            f"unknown policy {policy!r}; choose from {sorted(POLICY_FACTORIES)}"
        )

    tenant = body.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise ServiceError("tenant must be a non-empty string (<= 64 chars)")

    iterations = body.get("iterations", 2)
    if not isinstance(iterations, int) or isinstance(iterations, bool) \
            or not 1 <= iterations <= config.max_iterations:
        raise ServiceError(
            f"iterations must be an integer in [1, {config.max_iterations}]"
        )

    time_scale = body.get("time_scale", 0.05)
    if not isinstance(time_scale, (int, float)) or isinstance(time_scale, bool) \
            or not 0.0 < float(time_scale) <= config.max_time_scale:
        raise ServiceError(
            f"time_scale must be in (0, {config.max_time_scale}]"
        )
    time_scale = float(time_scale)

    deadline_s = body.get("deadline_s")
    if deadline_s is not None:
        if not isinstance(deadline_s, (int, float)) or isinstance(deadline_s, bool) \
                or float(deadline_s) <= 0.0:
            raise ServiceError("deadline_s must be a positive number")
        deadline_s = min(float(deadline_s), config.max_deadline_s)

    from repro.cache import job_key

    kwargs = {"workload": workload, "policy": policy,
              "n_iterations": iterations, "time_scale": time_scale}
    return JobRequest(
        tenant=tenant, workload=workload, policy=policy,
        iterations=iterations, time_scale=time_scale, deadline_s=deadline_s,
        cache_key=job_key(JOB_TARGET, kwargs),
    )


@dataclass
class JobRecord:
    """Everything the daemon knows about one accepted job."""

    job_id: str
    request: JobRequest
    phase: JobPhase = JobPhase.QUEUED
    submitted_unix: float = field(default_factory=time.time)
    deadline_monotonic: float | None = None   # absolute, service clock
    attempts: int = 0
    result: Any = None
    error: str | None = None
    served_from_cache: bool = False
    artifact_sha256: str | None = None
    finished_unix: float | None = None
    started_unix: float | None = None         # first RUNNING transition
    # Trace position of this job's span (repro.telemetry.tracecontext).
    # Derived under the admitting HTTP request's span, journaled, and
    # propagated to the worker so its spans stitch under this node.
    trace: Any = None

    def expired(self, now: float) -> bool:
        return (self.deadline_monotonic is not None
                and now >= self.deadline_monotonic)

    def status_dict(self) -> dict[str, Any]:
        """The GET /jobs/<id> body."""
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "phase": self.phase.value,
            "tenant": self.request.tenant,
            "workload": self.request.workload,
            "policy": self.request.policy,
            "iterations": self.request.iterations,
            "attempts": self.attempts,
            "submitted_unix": self.submitted_unix,
            "served_from_cache": self.served_from_cache,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.finished_unix is not None:
            out["finished_unix"] = self.finished_unix
        if self.trace is not None:
            out["traceparent"] = self.trace.to_traceparent()
        return out
