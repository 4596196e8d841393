"""Supervised job-execution harness.

The inner control loop (``repro.core``) is hardened against device
faults; this package hardens the *outer* evaluation layer against the
harness' own failure modes — a hung experiment, a crashing worker, a
``kill -9`` mid-suite.  It runs a DAG of named jobs with:

- per-job wall-clock **timeouts** and **retry with backoff** (reusing
  :class:`repro.faults.retry.RetryPolicy`), plus a **circuit breaker**
  that quarantines a repeatedly-failing job instead of sinking the run;
- **process isolation** via forkserver :mod:`multiprocessing`
  workers, with optional parallel fan-out across independent jobs;
- a **run directory** (:class:`~repro.harness.journal.RunDir`): a
  write-ahead journal and atomic artifact writes, so any interrupt leaves
  a consistent on-disk state, and **resume**, which re-runs only the jobs
  whose artifacts do not verify by content hash.

See ``docs/architecture.md`` ("The supervised suite harness") for the
job lifecycle state machine and the journal format.
"""

from repro.harness.job import JobOutcome, JobSpec, JobState, validate_dag
from repro.harness.journal import RunDir
from repro.harness.supervisor import (
    HarnessReport,
    HarnessResult,
    ProgressEvent,
    run_jobs,
    stderr_progress,
)
from repro.harness.worker import resolve_target

__all__ = [
    "JobSpec",
    "JobState",
    "JobOutcome",
    "validate_dag",
    "RunDir",
    "HarnessReport",
    "HarnessResult",
    "ProgressEvent",
    "run_jobs",
    "stderr_progress",
    "resolve_target",
]
