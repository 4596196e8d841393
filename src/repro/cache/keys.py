"""Cache-key derivation: canonicalize run inputs, hash them.

The key must change whenever any input that can influence the simulated
result changes, and must *not* change across Python processes, dict
orderings, or dataclass construction orders.  The recipe:

1. :func:`canonicalize` lowers the inputs to a JSON-safe tree —
   dataclasses become ``{"__kind__": <class>, <field>: ...}`` maps (the
   class name is included so two policy types with identical fields hash
   differently), enums become their values, tuples become lists, dict
   keys are stringified and sorted.  Any value outside that closed set
   raises :class:`~repro.errors.ConfigError`, which :func:`run_key`
   converts to ``None`` — *uncacheable*, never *wrongly cached*.
2. :func:`fingerprint` dumps the tree as compact sorted-key JSON and
   SHA-256 hashes it.
3. :func:`run_key` assembles the full input record: workload
   fingerprint, policy (which carries the GreenGPU config and the seeded
   fault plan), iteration count, executor options, warmup, plus
   ``ENGINE_SCHEMA_VERSION`` and the result schema version.

Keys only ever describe runs on the *default* calibrated testbed
(callers must not consult the cache when handed a live ``system``); the
calibration constants are code, and code changes that alter behavior are
required to bump ``ENGINE_SCHEMA_VERSION`` (see ``docs/performance.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Any

from repro.errors import ConfigError
from repro.sim import ENGINE_SCHEMA_VERSION
from repro.analysis.serialize import SCHEMA_VERSION as RESULT_SCHEMA_VERSION


def canonicalize(obj: Any) -> Any:
    """Lower ``obj`` to a deterministic JSON-safe tree (see module docstring).

    Raises :class:`ConfigError` on any value outside the closed set of
    supported types — the caller decides whether that means "uncacheable"
    or "bug".
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            # json.dumps would emit non-standard NaN/Infinity tokens whose
            # textual form is not guaranteed stable; refuse instead.
            raise ConfigError(f"cannot canonicalize non-finite float {obj!r}")
        return obj
    if isinstance(obj, Enum):
        return {"__enum__": type(obj).__name__, "value": canonicalize(obj.value)}
    cache_state = getattr(obj, "cache_state", None)
    if callable(cache_state):
        # Opt-in protocol for non-dataclass domain objects (frequency
        # ladders, roofline models): they expose their defining state.
        return {"__kind__": type(obj).__name__, "state": canonicalize(cache_state())}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__kind__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonicalize(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj, key=str):
            if not isinstance(key, str):
                raise ConfigError(f"cannot canonicalize non-string dict key {key!r}")
            out[key] = canonicalize(obj[key])
        return out
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    raise ConfigError(f"cannot canonicalize {type(obj).__name__} value {obj!r}")


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical compact-JSON form of ``obj``."""
    canonical = canonicalize(obj)
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_key(
    workload,
    policy,
    n_iterations: int | None,
    options=None,
    warmup_s: float = 0.0,
) -> str | None:
    """Cache key for one ``run_workload`` invocation, or None if uncacheable.

    ``workload`` must expose ``cache_fingerprint()`` returning a
    canonicalizable description of *all* demand-shaping state (see
    :meth:`repro.workloads.base.Workload.cache_fingerprint`); a ``None``
    fingerprint opts the workload out of caching.
    """
    fingerprint_fn = getattr(workload, "cache_fingerprint", None)
    if fingerprint_fn is None:
        return None
    workload_state = fingerprint_fn()
    if workload_state is None:
        return None
    if n_iterations is None:
        n_iterations = workload.default_iterations
    record = {
        "engine_schema": ENGINE_SCHEMA_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "workload": workload_state,
        "policy": policy,
        "n_iterations": n_iterations,
        "options": options,
        "warmup_s": warmup_s,
    }
    try:
        return fingerprint(record)
    except ConfigError:
        return None


def job_key(target: str, kwargs: dict[str, Any]) -> str | None:
    """Cache key for one harness job, or None if uncacheable.

    Harness jobs are named by dotted target + JSON kwargs precisely so a
    fresh interpreter can reproduce the identical call; that same pair
    (plus the schema versions) is therefore a complete content address
    for the job's payload.  Jobs whose kwargs fail canonicalization —
    or that take side-effect arguments like an output directory — must
    not be keyed; callers pass ``None`` through to
    :attr:`repro.harness.job.JobSpec.cache_key` in that case.
    """
    record = {
        "engine_schema": ENGINE_SCHEMA_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "job_target": target,
        "kwargs": kwargs,
    }
    try:
        return fingerprint(record)
    except ConfigError:
        return None


#: What :func:`get_job` returns on a miss (a payload may be JSON null).
MISS = object()


def get_job(cache, key: str | None, default: Any = MISS) -> Any:
    """The job payload stored under ``key``, or ``default`` on a miss."""
    entry = None if cache is None or key is None else cache.get(key)
    return default if entry is None else entry.get("payload", default)


def put_job(cache, key: str | None, payload: Any) -> None:
    """Store a job's payload under ``key`` (no cache or key: no-op)."""
    if cache is not None and key is not None:
        cache.put(key, {"payload": payload})
