"""Content-addressed result cache for deterministic simulation runs.

Every measured experiment in this repository is a pure function of its
inputs: the simulator is seeded and event-ordered deterministically, so
(workload, policy, iteration count, executor options, engine revision)
fully determine the :class:`~repro.runtime.metrics.RunResult`.  The
paper's figures are sweeps of many such runs, and `sweep`/`compare`/CI
re-simulate identical points constantly — this package makes those
repeats near-free.

- :mod:`repro.cache.keys` canonicalizes the run inputs and hashes them
  into a SHA-256 *cache key*.  Anything it cannot prove serializable
  (a hand-built workload, a live testbed) yields ``None`` = uncacheable.
- :func:`get_job` / :func:`put_job` read and write the cache entry of
  a harness or service job under its :func:`job_key`.
- :mod:`repro.cache.store` maps keys to JSON payloads on disk with
  atomic writes, corrupt-entry quarantine, and `stats`/`clear` admin
  operations (surfaced as ``repro cache {stats,clear}``).

Invalidation is by construction: the key embeds
:data:`repro.sim.ENGINE_SCHEMA_VERSION` and the result schema version,
so any behavioral engine change (which must bump the version — see
``docs/performance.md``) orphans old entries rather than serving them.
"""

from repro.cache.keys import (MISS, canonicalize, fingerprint, get_job,
                              job_key, put_job, run_key)
from repro.cache.store import CacheStats, ClearStats, ResultCache, default_cache_dir

__all__ = [
    "MISS",
    "CacheStats",
    "ClearStats",
    "ResultCache",
    "canonicalize",
    "default_cache_dir",
    "fingerprint",
    "get_job",
    "job_key",
    "put_job",
    "run_key",
]
