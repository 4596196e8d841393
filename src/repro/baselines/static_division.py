"""Static workload-division sweep (paper Fig. 2 and §VII-B).

Runs a workload at a series of pinned CPU shares with all frequencies at
peak, measuring whole-system wall energy per point.  The minimum of this
sweep is the "optimal static division" the paper benchmarks its dynamic
divider against (kmeans: 15/85; hotspot: 50/50).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policies import StaticPolicy
from repro.errors import ConfigError
from repro.runtime.batch_executor import BatchExecutor, RunRequest
from repro.runtime.executor import ExecutorOptions
from repro.runtime.metrics import RunResult
from repro.workloads.base import Workload


@dataclass(frozen=True)
class DivisionSweepPoint:
    """One static division measurement."""

    r: float
    result: RunResult

    @property
    def energy_j(self) -> float:
        return self.result.total_energy_j

    @property
    def time_s(self) -> float:
        return self.result.total_s


def sweep_divisions(
    workload: Workload,
    ratios: np.ndarray | list[float] | None = None,
    n_iterations: int = 3,
    options: ExecutorOptions | None = None,
    telemetry=None,
    audit=None,
) -> list[DivisionSweepPoint]:
    """Measure energy across pinned divisions (default: 0 to 0.9 step 0.05).

    Each point runs on a fresh testbed so meters and device state do not
    leak between configurations.  A shared ``telemetry`` backend keeps
    the points distinguishable: every point labels its metrics with its
    own ``static-division-<r>`` policy name.  ``audit`` optionally
    attaches a shared decision trail (static points only record tier-1
    boundaries — there is no live scaler).  Uninstrumented points pack
    into one lockstep batch (lane *i* is bit-identical to the scalar run
    for ratio *i*); instrumented points run scalar for their side-effect
    artifacts.
    """
    if ratios is None:
        ratios = np.arange(0.0, 0.901, 0.05)
    clean = []
    for r in ratios:
        r = float(r)
        if not 0.0 <= r <= 1.0:
            raise ConfigError(f"ratio {r} out of [0, 1]")
        clean.append(r)
    requests = [
        RunRequest(
            workload=workload,
            policy=StaticPolicy(0, 0, ratio=r, name=f"static-division-{r:.2f}"),
            n_iterations=n_iterations,
            options=options,
            telemetry=telemetry,
            audit=audit,
        )
        for r in clean
    ]
    results = BatchExecutor().run_many(requests)
    return [
        DivisionSweepPoint(r=r, result=result)
        for r, result in zip(clean, results)
    ]


def best_point(points: list[DivisionSweepPoint]) -> DivisionSweepPoint:
    """The sweep's energy minimum."""
    if not points:
        raise ConfigError("empty sweep")
    return min(points, key=lambda p: p.energy_j)
