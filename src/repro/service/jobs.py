"""Worker-side job targets for the service daemon.

Service jobs execute through the same mechanism as harness jobs: a
dotted ``module:function`` target plus JSON kwargs, run by
:func:`repro.harness.worker.worker_main` in a forkserver worker process
that atomically writes an artifact and exits.  Keeping the target here
(in the package, importable from a fresh interpreter) is what lets a
drained-and-restarted daemon re-run journaled in-flight jobs
byte-identically.

The payload is intentionally a *summary* (energies, time, health), not
the full trace blob — it is what gets journaled, cached, and returned
over HTTP to thousands of clients.

Everything the target calls is imported here, at module top: the
forkserver preloads this module (:mod:`repro.harness.preload`), so a
forked worker imports nothing.
"""

from __future__ import annotations

from typing import Any

# run_workload and make_testbed import these on call (import cycles).
import repro.runtime.batch_executor  # noqa: F401
import repro.sim.calibration  # noqa: F401
from repro.core.policies import make_policy
from repro.experiments.common import (scaled_config, scaled_options,
                                      scaled_workload)
from repro.runtime.executor import run_workload
from repro.telemetry import Telemetry, export_worker
from repro.telemetry.tracecontext import TraceContext


def run_simulation(workload: str, policy: str, n_iterations: int,
                   time_scale: float,
                   telemetry_dir: str | None = None,
                   job_name: str | None = None,
                   traceparent: str | None = None) -> dict[str, Any]:
    """One service submission: run ``workload`` under ``policy``.

    Deterministic in all simulation arguments (the simulator is seeded
    and event-ordered), which is what makes the content-addressed cache
    key over those kwargs a sound dedup address.  The three telemetry
    kwargs are *not* part of the cache key — the daemon appends them
    after admission — so observability never perturbs dedup.  With a
    ``telemetry_dir``, the run's spans export under
    ``<dir>/workers/<job_name>/`` rooted at ``traceparent``, which is
    how a served job's worker spans stitch under the admitting HTTP
    request in the merged trace.
    """
    telemetry = None
    if telemetry_dir is not None:
        telemetry = Telemetry(base_labels={"workload": workload,
                                           "policy": policy},
                              trace=TraceContext.parse(traceparent))

    result = run_workload(
        scaled_workload(workload, time_scale),
        make_policy(policy, scaled_config(time_scale)),
        n_iterations=n_iterations,
        options=scaled_options(time_scale),
        telemetry=telemetry,
    )
    if telemetry is not None and telemetry_dir is not None:
        export_worker(telemetry, telemetry_dir, job_name or "job")
    return {
        "workload": result.workload,
        "policy": result.policy,
        "iterations": result.n_iterations,
        "total_s": result.total_s,
        "total_energy_j": result.total_energy_j,
        "gpu_energy_j": result.gpu_energy_j,
        "cpu_energy_j": result.cpu_energy_j,
        "final_ratio": result.final_ratio,
    }
