"""Job model for the supervised harness.

A :class:`JobSpec` names a unit of work by a *dotted target* —
``"package.module:function"`` plus JSON-serializable keyword arguments —
rather than by a closure, so the spawned worker process (and a resumed
run in a fresh interpreter) can reconstruct exactly the same call.  The
spec carries the job's robustness envelope: wall-clock timeout, retry
schedule, and DAG edges.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Any

from repro.errors import HarnessError
from repro.faults.retry import RetryPolicy

# Job names become artifact filenames; keep them filesystem-safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._=-]*$")


def default_retry() -> RetryPolicy:
    """Harness default: three attempts, small capped backoff."""
    return RetryPolicy(max_attempts=3, base_backoff_s=0.05,
                       backoff_factor=2.0, max_backoff_s=1.0)


class JobState(enum.Enum):
    """Lifecycle states (see docs/architecture.md for the transitions)."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    QUARANTINED = "quarantined"          # circuit breaker: attempts exhausted
    SKIPPED_RESUMED = "skipped_resumed"  # verified artifact from a prior run
    SKIPPED_DEPENDENCY = "skipped_dependency"  # an upstream job did not succeed
    SKIPPED_CACHED = "skipped_cached"    # payload served by the result cache


#: States a job can end the run in.
TERMINAL_STATES = frozenset({
    JobState.SUCCEEDED,
    JobState.QUARANTINED,
    JobState.SKIPPED_RESUMED,
    JobState.SKIPPED_DEPENDENCY,
    JobState.SKIPPED_CACHED,
})

#: Terminal states that satisfy a dependency edge.
SATISFIED_STATES = frozenset({
    JobState.SUCCEEDED,
    JobState.SKIPPED_RESUMED,
    JobState.SKIPPED_CACHED,
})


@dataclass(frozen=True)
class JobSpec:
    """One named, isolated unit of work in the DAG."""

    name: str
    target: str                       # "package.module:function"
    kwargs: dict[str, Any] = field(default_factory=dict)
    timeout_s: float | None = 600.0   # wall-clock kill deadline per attempt
    retry: RetryPolicy = field(default_factory=default_retry)
    depends_on: tuple[str, ...] = ()
    # Content address of this job's payload (repro.cache.job_key); None
    # means the job is uncacheable (side effects, unfingerprintable args).
    cache_key: str | None = None
    # Explicit trace position for this job (a serialized traceparent,
    # see repro.telemetry.tracecontext).  None — the overwhelmingly
    # common case — lets the supervisor derive a deterministic child of
    # its own context, so serial and parallel runs agree; set it only to
    # graft the job under an externally-owned trace (the service does
    # this for served jobs).
    traceparent: str | None = None

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise HarnessError(
                f"job name {self.name!r} is not filesystem-safe "
                "(use letters, digits, '.', '_', '=', '-')"
            )
        module, sep, func = self.target.partition(":")
        if not sep or not module or not func:
            raise HarnessError(
                f"job {self.name!r}: target must be 'module:function', "
                f"got {self.target!r}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise HarnessError(f"job {self.name!r}: timeout_s must be positive")
        if self.traceparent is not None:
            from repro.telemetry.tracecontext import TraceContext
            if TraceContext.parse(self.traceparent) is None:
                raise HarnessError(
                    f"job {self.name!r}: invalid traceparent "
                    f"{self.traceparent!r}"
                )


@dataclass
class JobOutcome:
    """What happened to one job over the whole run."""

    name: str
    state: JobState = JobState.PENDING
    attempts: int = 0
    payload: Any = None
    error: str | None = None
    elapsed_s: float = 0.0
    artifact_path: str | None = None


def validate_dag(specs: list[JobSpec]) -> list[JobSpec]:
    """Check names unique, edges known, graph acyclic; return topo order.

    The returned order is stable: among ready jobs, spec order wins, so
    a DAG of independent jobs runs in exactly the order it was declared
    (which keeps resumed and fresh runs byte-identical).
    """
    by_name: dict[str, JobSpec] = {}
    for spec in specs:
        if spec.name in by_name:
            raise HarnessError(f"duplicate job name {spec.name!r}")
        by_name[spec.name] = spec
    for spec in specs:
        for dep in spec.depends_on:
            if dep not in by_name:
                raise HarnessError(
                    f"job {spec.name!r} depends on unknown job {dep!r}"
                )

    ordered: list[JobSpec] = []
    placed: set[str] = set()
    remaining = list(specs)
    while remaining:
        ready = [s for s in remaining
                 if all(d in placed for d in s.depends_on)]
        if not ready:
            cycle = ", ".join(sorted(s.name for s in remaining))
            raise HarnessError(f"dependency cycle among jobs: {cycle}")
        for spec in ready:
            ordered.append(spec)
            placed.add(spec.name)
        remaining = [s for s in remaining if s.name not in placed]
    return ordered
