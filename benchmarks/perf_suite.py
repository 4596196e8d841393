"""Perf gate for the fast-path engine, the result cache, and batching.

Four scenarios, all reported as hardware-independent *speedup ratios* so
the committed baseline (``BENCH_10.json``) transfers across machines:

- **single_run** — one GreenGPU kmeans run on the fast engine vs the
  same run on a *legacy harness* that faithfully reproduces the pre-PR
  hot path: per-call roofline estimates (no ``_cached_estimate``), lazy
  queue-head scans on every query (no ``_current_head``), checked
  uncached power-model calls, the per-window meter loop, and the
  pop-and-push clock dispatch.  The two paths must be bit-identical
  (the run aborts if not) — the ratio is pure overhead removed, not a
  semantic change.  Both sides run with ondemand parking off: the
  harness shares the controller, so parking would shrink both sides'
  tick loops alike and the ratio would stop measuring the hot path.
- **warm_sweep** — a supervised static-division sweep with an empty
  result cache (cold) vs the identical sweep again over the same cache
  (warm, every point served as ``skipped_cached``).
- **batched_sweep** — a 256-point static-division grid through the
  lockstep batch engine vs the legacy supervised sweep path (run_jobs +
  legacy harness), measured on a probe subset and extrapolated by point
  count.  Lane equivalence against scalar ``run_workload`` is asserted
  bit-for-bit before any timing (the run aborts on divergence).
- **batched_sweep_vs_scalar** — the same batched grid vs the *current*
  scalar fast path, isolating the batching win from the fast-path win.

Each quantity is the minimum over several interleaved trials (minimums
are robust to scheduler noise on shared CI runners; interleaving defeats
thermal/frequency drift favouring whichever side runs first).  The two
batched ratios divide a batch time and a per-point time measured in the
same process moments apart, so machine-wide load cancels out.

Modes::

    python benchmarks/perf_suite.py                  # measure + print
    python benchmarks/perf_suite.py --out BENCH_10.json    # write baseline
    python benchmarks/perf_suite.py --check BENCH_10.json  # CI gate

The check mode re-measures and requires each scenario's speedup to be at
least the absolute floor (3x single-run, 10x warm sweep, 100x batched
sweep over legacy, 4x batched over scalar — the PRs' acceptance bars)
*and* within ``--tolerance`` of the committed baseline ratio, whichever
is stricter.  Exit status 0 iff all gates hold.
"""

from __future__ import annotations

import argparse
import heapq
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.serialize import result_to_dict
from repro.cache import ResultCache
from repro.cache.keys import ENGINE_SCHEMA_VERSION
from repro.core.controller import GreenGpuController
from repro.core.policies import GreenGpuPolicy, StaticPolicy
from repro.experiments.common import scaled_config, scaled_options, scaled_workload
from repro.harness.supervisor import run_jobs
from repro.harness.suite_jobs import sweep_specs
from repro.runtime.executor import run_workload
from repro.sim.cpu import CpuDevice
from repro.sim.gpu import GpuDevice
from repro.sim.platform import HeteroSystem

TRIALS = 7
COLD_TRIALS = 3

#: Width of the batched static-division grid (the N in "N=256").
BATCH_N = 256

FLOORS = {
    "single_run": 3.0,
    "warm_sweep": 10.0,
    "batched_sweep": 100.0,
    "batched_sweep_vs_scalar": 4.0,
}

# -- legacy harness (pre-PR hot path, reproduced faithfully) -----------


def _legacy_accumulate(meter, p: float, dt: float) -> None:
    """Pre-PR PowerMeter.accumulate: walk every sample window in a loop."""
    meter.energy_j += p * dt
    meter.elapsed_s += dt
    remaining = dt
    while remaining > 0.0:
        room = meter.sample_period_s - meter._window_elapsed
        step = min(remaining, room)
        meter._window_energy += p * step
        meter._window_elapsed += step
        remaining -= step
        if meter._window_elapsed >= meter.sample_period_s - 1e-12:
            meter.samples.append(meter._window_energy / meter._window_elapsed)
            meter._window_energy = 0.0
            meter._window_elapsed = 0.0


def _legacy_advance_to(clock, when: float) -> None:
    """Pre-PR SimClock.advance_to: pop-and-push dispatch, cancelled scan."""
    while True:
        while clock._heap and clock._heap[0].cancelled:
            heapq.heappop(clock._heap)
        deadline = clock._heap[0].deadline if clock._heap else None
        if deadline is None or deadline > when:
            break
        task = heapq.heappop(clock._heap)
        clock._now = max(clock._now, task.deadline)
        if task.period > 0.0 and not task.cancelled:
            task.deadline += task.period
            heapq.heappush(clock._heap, task)
        clock._in_dispatch = True
        try:
            task.callback(clock._now)
        finally:
            clock._in_dispatch = False
    clock._now = max(clock._now, when)


def _legacy_step(self, horizon=None):
    """Pre-PR HeteroSystem.step: meter source calls, separate clock call."""
    dt = self._next_dt(horizon)
    for meter in (self.meter_cpu, self.meter_gpu):
        _legacy_accumulate(meter, meter.instantaneous_power(), dt)
    self.gpu.advance(dt)
    self.cpu.advance(dt)
    _legacy_advance_to(self.clock, self.clock.now + dt)
    return dt


#: (class, attribute, pre-PR implementation).  Replacing these five cache
#: reads with their recompute-every-call bodies plus the legacy step is
#: exactly the seed engine; everything else is shared code.
_LEGACY_PATCHES = [
    (GpuDevice, "_cached_estimate", lambda self, k: self._phase_estimate(k)),
    (GpuDevice, "_current_head", lambda self: self._queue.head),
    (GpuDevice, "instantaneous_power", GpuDevice.instantaneous_power_uncached),
    (CpuDevice, "_cached_estimate", lambda self, k: self._phase_estimate(k)),
    (CpuDevice, "_current_head", lambda self: self._queue.head),
    (CpuDevice, "instantaneous_power", CpuDevice.instantaneous_power_uncached),
    (HeteroSystem, "step", _legacy_step),
]


#: The ondemand tick never parks: every grid tick is a real tick and an
#: engine step, as before parking existed.  ``_legacy_step`` has no CPU
#: watch, so the legacy harness is only valid under this patch for runs
#: with an ondemand tier.
_NO_PARKING = [(GreenGpuController, "_maybe_park", lambda self: None)]


class patched:
    """Context manager swapping class attributes for other bodies."""

    def __init__(self, patches):
        self._patches = patches

    def __enter__(self):
        self._saved = [(c, n, c.__dict__[n]) for c, n, _ in self._patches]
        for cls, name, impl in self._patches:
            setattr(cls, name, impl)
        return self

    def __exit__(self, *exc):
        for cls, name, impl in self._saved:
            setattr(cls, name, impl)
        return False


def legacy_engine() -> patched:
    """The fast paths swapped for their pre-PR bodies."""
    return patched(_LEGACY_PATCHES)


# -- scenario: single_run ----------------------------------------------


def _single_run():
    time_scale = 0.25
    return run_workload(
        scaled_workload("kmeans", time_scale),
        GreenGpuPolicy(config=scaled_config(time_scale)),
        n_iterations=4,
        options=scaled_options(time_scale),
    )


def bench_single_run() -> dict:
    with patched(_NO_PARKING):
        return _bench_single_run()


def _bench_single_run() -> dict:
    fast_result = _single_run()
    with legacy_engine():
        legacy_result = _single_run()
    if result_to_dict(fast_result) != result_to_dict(legacy_result):
        raise SystemExit(
            "FATAL: fast engine and legacy harness diverged — the "
            "measured ratio would compare different computations"
        )
    fast_best = legacy_best = float("inf")
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        _single_run()
        fast_best = min(fast_best, time.perf_counter() - t0)
        with legacy_engine():
            t0 = time.perf_counter()
            _single_run()
            legacy_best = min(legacy_best, time.perf_counter() - t0)
    return {
        "fast_s": round(fast_best, 6),
        "legacy_s": round(legacy_best, 6),
        "speedup": round(legacy_best / fast_best, 3),
    }


# -- scenario: warm_sweep ----------------------------------------------


def _sweep_once(cache: ResultCache, run_dir: Path) -> float:
    specs = sweep_specs(
        "kmeans",
        ratios=[i / 12 for i in range(1, 12)],
        n_iterations=6,
        time_scale=0.25,
    )
    t0 = time.perf_counter()
    result = run_jobs(specs, run_dir, isolate=False, cache=cache)
    elapsed = time.perf_counter() - t0
    if not result.report.ok:
        raise SystemExit("FATAL: sweep jobs failed during the benchmark")
    return elapsed


def bench_warm_sweep() -> dict:
    cold_best = warm_best = float("inf")
    with tempfile.TemporaryDirectory(prefix="perf-suite-") as tmp:
        tmp_path = Path(tmp)
        for trial in range(COLD_TRIALS):
            cache_dir = tmp_path / f"cache-{trial}"
            cache = ResultCache(cache_dir)
            cold = _sweep_once(cache, tmp_path / f"cold-{trial}")
            cold_best = min(cold_best, cold)
            warm = _sweep_once(cache, tmp_path / f"warm-{trial}")
            warm_best = min(warm_best, warm)
            shutil.rmtree(cache_dir)
    return {
        "cold_s": round(cold_best, 6),
        "warm_s": round(warm_best, 6),
        "speedup": round(cold_best / warm_best, 3),
    }


# -- scenarios: batched_sweep / batched_sweep_vs_scalar ----------------


def bench_batched_sweep() -> tuple[dict, dict]:
    """Time the 256-lane lockstep grid against both baselines.

    The legacy and scalar baselines run a 16-ratio probe subset of the
    grid and extrapolate by point count — per-point cost of a static
    sweep is ratio-independent to first order, and a full 256-point
    legacy sweep would dominate the suite's runtime for no extra signal.
    """
    from repro.runtime.batch_executor import BatchExecutor, RunRequest

    workload = scaled_workload("kmeans", 1.0)
    options = scaled_options(1.0)
    n_iterations = 6

    def grid() -> list[RunRequest]:
        return [
            RunRequest(workload=workload,
                       policy=StaticPolicy(0, 0, ratio=i / BATCH_N),
                       n_iterations=n_iterations, options=options)
            for i in range(BATCH_N)
        ]

    probe_idx = list(range(8, BATCH_N, 16))
    subset = [i / BATCH_N for i in probe_idx]

    # Equivalence gate before any timing: every probe lane must be
    # bit-identical to its scalar run, or the ratio below would compare
    # different computations.
    batch_results = BatchExecutor().run_many(grid())
    if any(r.engine != "batch" for r in batch_results):
        raise SystemExit(
            "FATAL: grid did not route through the batch engine"
        )
    for i in probe_idx:
        scalar = run_workload(
            workload, StaticPolicy(0, 0, ratio=i / BATCH_N),
            n_iterations=n_iterations, options=options,
        )
        if result_to_dict(batch_results[i]) != result_to_dict(scalar):
            raise SystemExit(
                f"FATAL: batch lane {i} diverged from the scalar engine"
            )

    # Interleave the three measurements within every round: the host
    # this runs on can swing absolute times severalfold (single-vCPU
    # guest, noisy neighbours), so each side of the ratio must get the
    # same shot at every quiet stretch — the minimums then come from
    # the same window instead of whichever side dodged the bursts.
    batch_best = scalar_best = legacy_best = float("inf")
    with tempfile.TemporaryDirectory(prefix="perf-batched-") as tmp:
        for trial in range(TRIALS):
            t0 = time.perf_counter()
            BatchExecutor().run_many(grid())
            batch_best = min(batch_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            for r in subset:
                run_workload(workload, StaticPolicy(0, 0, ratio=r),
                             n_iterations=n_iterations, options=options)
            scalar_best = min(scalar_best, time.perf_counter() - t0)
            # Single-point sweep jobs take the scalar:singleton dispatch
            # path, so the legacy patches actually govern the hot loop.
            specs = sweep_specs("kmeans", ratios=subset,
                                n_iterations=n_iterations, time_scale=1.0)
            with legacy_engine():
                t0 = time.perf_counter()
                outcome = run_jobs(specs, Path(tmp) / f"legacy-{trial}",
                                   isolate=False)
                elapsed = time.perf_counter() - t0
            if not outcome.report.ok:
                raise SystemExit(
                    "FATAL: legacy sweep jobs failed during the benchmark"
                )
            legacy_best = min(legacy_best, elapsed)

    legacy_point = legacy_best / len(subset)
    scalar_point = scalar_best / len(subset)
    batched = {
        "batch_s": round(batch_best, 6),
        "legacy_point_s": round(legacy_point, 6),
        "speedup": round(legacy_point * BATCH_N / batch_best, 3),
    }
    vs_scalar = {
        "batch_s": round(batch_best, 6),
        "scalar_point_s": round(scalar_point, 6),
        "speedup": round(scalar_point * BATCH_N / batch_best, 3),
    }
    return batched, vs_scalar


# -- driver ------------------------------------------------------------


def measure() -> dict:
    batched, vs_scalar = bench_batched_sweep()
    return {
        "bench_schema": 1,
        "engine_schema_version": ENGINE_SCHEMA_VERSION,
        "trials": TRIALS,
        "floors": FLOORS,
        "scenarios": {
            "single_run": bench_single_run(),
            "warm_sweep": bench_warm_sweep(),
            "batched_sweep": batched,
            "batched_sweep_vs_scalar": vs_scalar,
        },
    }


def report(results: dict) -> None:
    for name, data in results["scenarios"].items():
        floor = FLOORS[name]
        times = "  ".join(
            f"{k} {v:.4f}s" for k, v in data.items() if k != "speedup"
        )
        print(f"{name:12s} {times}  speedup {data['speedup']:.2f}x "
              f"(floor {floor:.0f}x)")


def check(results: dict, baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    status = 0
    for name, data in results["scenarios"].items():
        speedup = data["speedup"]
        floor = FLOORS[name]
        base = baseline["scenarios"].get(name, {}).get("speedup", floor)
        required = max(floor, base * (1.0 - tolerance))
        verdict = "ok" if speedup >= required else "REGRESSION"
        print(f"{name:12s} measured {speedup:.2f}x  baseline {base:.2f}x  "
              f"required {required:.2f}x  {verdict}")
        if speedup < required:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None, metavar="FILE",
                        help="write measured results as the new baseline")
    parser.add_argument("--check", type=Path, default=None, metavar="FILE",
                        help="gate measured speedups against a committed "
                             "baseline (CI mode)")
    parser.add_argument("--tolerance", type=float, default=0.4,
                        help="allowed fractional regression vs the baseline "
                             "ratio before failing (default 0.4)")
    args = parser.parse_args(argv)

    results = measure()
    report(results)
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {args.out}")
    if args.check is not None:
        return check(results, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
