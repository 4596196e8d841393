"""Job targets for the paper suite, sweeps, reproduction, and chaos runs.

Each target is a plain function ``kwargs -> JSON payload``, importable
by dotted name from a spawned worker or a resumed run.  The per-artifact
iteration counts and time-scale clamps here are *the* canonical values —
:func:`repro.experiments.suite.run` calls the same targets in-process,
so the supervised and inline paths produce bit-identical payloads.

What the targets call is imported here, at module top, so the
forkserver's preload of this module (:mod:`repro.harness.preload`)
covers it.  The one exception is the paper-artifact modules: planners
(``greengpu sweep``, the suite runner) import this module too, and a
figure target imports its module on call; the preload names them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

# run_workload and make_testbed import these on call (import cycles).
import repro.runtime.batch_executor  # noqa: F401
import repro.sim.calibration  # noqa: F401
from repro.baselines.static_division import sweep_divisions
from repro.cache import job_key
from repro.core.policies import BestPerformancePolicy, GreenGpuPolicy
from repro.errors import ConfigError
from repro.experiments.common import (scaled_config, scaled_options,
                                      scaled_workload)
from repro.faults.injector import fault_profile
from repro.faults.retry import RetryPolicy
from repro.harness.job import JobSpec
from repro.runtime.executor import run_workload
from repro.telemetry import AuditTrail, Telemetry, export_worker
from repro.telemetry.merge import worker_dir

# -- paper-suite artifact targets --------------------------------------


def run_fig1(time_scale: float = 0.15) -> dict[str, Any]:
    from repro.experiments import fig1

    panels = fig1.run_all(n_iterations=1, time_scale=min(time_scale, 0.2))
    return {
        "fig1_nbody_mem_best_energy": min(
            p.relative_energy for p in panels[("nbody", "mem")]
        ),
        "fig1_sc_core_best_energy": min(
            p.relative_energy for p in panels[("streamcluster", "core")]
        ),
    }


def run_fig2(time_scale: float = 0.15) -> dict[str, Any]:
    from repro.experiments import fig2

    result = fig2.run(n_iterations=2, time_scale=min(time_scale, 0.1))
    return {"fig2_optimal_r": result.optimal_r}


def run_table2(time_scale: float = 0.15) -> dict[str, Any]:
    from repro.experiments import table2

    rows = table2.run(n_iterations=1, time_scale=time_scale)
    matches = 0
    notes: list[str] = []
    for row in rows:
        paper_fluct = "fluctuate" in row.paper_description.lower()
        if row.fluctuating == paper_fluct:
            matches += 1
        else:
            notes.append(f"table2 mismatch: {row.name}")
    return {"table2_matches": matches, "table2_total": len(rows),
            "notes": notes}


def run_fig5(time_scale: float = 0.15) -> dict[str, Any]:
    from repro.experiments import fig5

    result = fig5.run(n_iterations=3, time_scale=max(time_scale, 0.2))
    return {"fig5_converged_mem_mhz": result.converged_mem_mhz}


def run_fig6(time_scale: float = 0.15) -> dict[str, Any]:
    from repro.experiments import fig6

    result = fig6.run(n_iterations=3, time_scale=time_scale)
    return {
        "fig6_avg_gpu_saving": result.average_gpu_saving,
        "fig6_avg_dynamic_saving": result.average_dynamic_saving,
        "fig6_avg_cpu_gpu_saving": result.average_cpu_gpu_saving,
    }


def run_fig7(time_scale: float = 0.15) -> dict[str, Any]:
    from repro.experiments import fig7

    results = fig7.run(n_iterations=10, time_scale=min(time_scale, 0.1))
    return {
        "fig7_kmeans_converged_r": results["kmeans"].converged_r,
        "fig7_hotspot_converged_r": results["hotspot"].converged_r,
    }


def run_fig8(time_scale: float = 0.15) -> dict[str, Any]:
    from repro.experiments import fig8

    results = fig8.run(n_iterations=10, time_scale=min(time_scale, 0.1))
    return {
        "fig8_ordering_holds": all(r.ordering_holds for r in results.values())
    }


def run_headline(time_scale: float = 0.15) -> dict[str, Any]:
    from repro.experiments import headline

    result = headline.run(n_iterations=10, time_scale=min(time_scale, 0.1))
    return {"headline_average_saving": result.average_saving}


#: Canonical artifact order — payload merging, scheduling, and the
#: markdown ledger all follow this order, never completion order.
SUITE_ARTIFACTS = ("fig1", "fig2", "table2", "fig5", "fig6", "fig7",
                   "fig8", "headline")

SUITE_TARGETS: dict[str, Callable[..., dict[str, Any]]] = {
    "fig1": run_fig1, "fig2": run_fig2, "table2": run_table2,
    "fig5": run_fig5, "fig6": run_fig6, "fig7": run_fig7,
    "fig8": run_fig8, "headline": run_headline,
}


def suite_specs(
    time_scale: float = 0.15,
    only: tuple[str, ...] | list[str] | None = None,
    timeout_s: float | None = 600.0,
    retry: RetryPolicy | None = None,
) -> list[JobSpec]:
    """JobSpecs for the paper suite (all artifacts, or a subset)."""
    names = SUITE_ARTIFACTS if only is None else tuple(only)
    unknown = sorted(set(names) - set(SUITE_ARTIFACTS))
    if unknown:
        raise ConfigError(
            f"unknown suite artifacts {unknown}; choose from {list(SUITE_ARTIFACTS)}"
        )
    # Subset selections keep canonical order for deterministic ledgers.
    ordered = [n for n in SUITE_ARTIFACTS if n in names]
    retry = retry or RetryPolicy(max_attempts=2, base_backoff_s=0.05,
                                 max_backoff_s=0.5)
    specs = []
    for name in ordered:
        target = f"repro.harness.suite_jobs:run_{name}"
        kwargs = {"time_scale": time_scale}
        specs.append(JobSpec(
            name=name,
            target=target,
            kwargs=kwargs,
            timeout_s=timeout_s,
            retry=retry,
            cache_key=job_key(target, kwargs),
        ))
    return specs


# -- sweep targets (cli.py cmd_sweep) ----------------------------------


def run_sweep_point(workload: str, r: float, n_iterations: int,
                    time_scale: float,
                    telemetry_dir: str | None = None) -> dict[str, Any]:
    """One static-division sweep point: energy and time at ratio ``r``.

    With ``telemetry_dir`` the point records full telemetry and writes
    it under ``<telemetry_dir>/workers/r=<r>/`` — the per-worker half of
    the cross-process aggregation contract.  The job's sweep point gives
    it a label domain of its own (the ``static-division-<r>`` policy
    name), so the supervisor-side merge is exact.
    """
    telemetry = None
    audit = None
    if telemetry_dir is not None:
        telemetry = Telemetry()
        audit = AuditTrail()
    points = sweep_divisions(
        scaled_workload(workload, time_scale), [r],
        n_iterations=n_iterations, options=scaled_options(time_scale),
        telemetry=telemetry, audit=audit,
    )
    point = points[0]
    if telemetry is not None:
        export_worker(telemetry, telemetry_dir, f"r={r:.4f}")
        audit.write(worker_dir(telemetry_dir, f"r={r:.4f}"))
    return {"r": point.r, "energy_j": point.energy_j, "time_s": point.time_s}


def sweep_specs(workload: str, ratios: list[float], n_iterations: int,
                time_scale: float, timeout_s: float | None = 600.0,
                telemetry_dir: str | None = None,
                ) -> list[JobSpec]:
    common = {"workload": workload, "n_iterations": n_iterations,
              "time_scale": time_scale}
    if telemetry_dir is not None:
        common["telemetry_dir"] = telemetry_dir
    target = "repro.harness.suite_jobs:run_sweep_point"
    specs = []
    for ratio in ratios:
        kwargs = {**common, "r": ratio}
        specs.append(JobSpec(
            name=f"r={ratio:.4f}",
            target=target,
            kwargs=kwargs,
            timeout_s=timeout_s,
            # A telemetry-exporting point has filesystem side effects a
            # cache hit would silently skip; only plain points are keyed.
            cache_key=None if telemetry_dir is not None
            else job_key(target, kwargs),
        ))
    return specs


#: The only job target :func:`sweep_prefetch` will serve.
_SWEEP_TARGET = "repro.harness.suite_jobs:run_sweep_point"


def sweep_prefetch(workload: str, n_iterations: int, time_scale: float):
    """Supervisor ``prefetch`` hook: batch all pending sweep points.

    Returns a callable mapping pending :class:`JobSpec`\\ s to payloads.
    Uninstrumented ``run_sweep_point`` jobs are packed into one lockstep
    :func:`~repro.baselines.static_division.sweep_divisions` batch (lane
    *i* is bit-identical to the scalar run the job target would have
    performed); anything else — telemetry-exporting points included —
    is left unserved and runs its target normally.  The supervisor still
    journals, caches, and writes artifacts per job, so batching stays
    invisible to the run directory, resume, and the report.
    """
    def _prefetch(specs: list[JobSpec]) -> dict[str, Any]:
        todo = [
            spec for spec in specs
            if spec.target == _SWEEP_TARGET
            and "telemetry_dir" not in spec.kwargs
        ]
        if not todo:
            return {}
        points = sweep_divisions(
            scaled_workload(workload, time_scale),
            [spec.kwargs["r"] for spec in todo],
            n_iterations=n_iterations,
            options=scaled_options(time_scale),
        )
        return {
            spec.name: {"r": point.r, "energy_j": point.energy_j,
                        "time_s": point.time_s}
            for spec, point in zip(todo, points)
        }

    return _prefetch


# -- reproduce targets (cli.py cmd_reproduce) --------------------------


def run_artifact_module(name: str) -> dict[str, Any]:
    """Run one paper artifact's ``main()`` (prints its own report)."""
    from repro.experiments import fig1, fig2, fig5, fig6, fig7, fig8, headline, table2

    mains = {
        "fig1": fig1.main, "fig2": fig2.main, "table2": table2.main,
        "fig5": fig5.main, "fig6": fig6.main, "fig7": fig7.main,
        "fig8": fig8.main, "headline": headline.main,
    }
    if name not in mains:
        raise ConfigError(
            f"unknown artifact {name!r}; choose from {sorted(mains)}"
        )
    print(f"\n=== {name} ===")
    mains[name]()
    return {"artifact": name}


# -- chaos targets (benchmarks/test_chaos_robustness.py) ---------------


def run_chaos_pair(workload: str, time_scale: float, n_iterations: int,
                   seed: int, stall_s: float) -> dict[str, Any]:
    """GreenGPU under the moderate fault profile vs best-performance."""
    plan = replace(fault_profile("moderate", seed=seed),
                   device_stall_duration_s=stall_s)
    wl = scaled_workload(workload, time_scale)
    options = scaled_options(time_scale)
    green = run_workload(
        wl, GreenGpuPolicy(config=scaled_config(time_scale)).with_faults(plan),
        n_iterations=n_iterations, options=options,
    )
    baseline = run_workload(
        wl, BestPerformancePolicy(), n_iterations=n_iterations, options=options
    )
    return {
        "workload": workload,
        "saving": green.energy_saving_vs(baseline),
        "green_iterations": green.n_iterations,
        "health": green.health.as_dict(),
    }
