"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper_runs --seed 1 --seconds 12 --trace 0

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics at reference speed.
``--trace 1`` runs a quarter of the ops untraced, then traced, and
reports the per-layer metrics with their diagnostics.  See README.md beside this
file for the workloads, the metrics and the noise rules.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("paper_runs", "sweep_grid", "fleet_caps", "served_jobs")

#: Set-up is measured this many times per run, each launch normalised
#: by a reference sample taken just before it; the median is reported.
SETUP_LAUNCHES = 5

#: Untraced metrics.  The host-time ones are at reference speed.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Traced-run metrics.  Every workload reports every name; a layer the
#: workload never enters reads 0.  ``*_ms`` layer times are per op.
PER_LAYER = {
    "sim.testbed_ms": "ms",
    "runtime.iteration_ms": "ms",
    "core.scaling_tick_ms": "ms",
    "core.ondemand_tick_ms": "ms",
    "sim.clock_task_ms": "ms",
    "core.scaling_ticks": "count",
    "core.ondemand_ticks": "count",
    "sim.clock_dispatches": "count",
    "runtime.repartitions": "count",
    "sim.batch_ms": "ms",
    "runtime.batch_share": "ratio",
    "runtime.lanes": "count",
    "cache.key_ms": "ms",
    "cache.put_ms": "ms",
    "harness.journal_ms": "ms",
    "harness.overhead_ms": "ms",
    "fleet.plan_ms": "ms",
    "fleet.node_ms": "ms",
    "fleet.aggregate_ms": "ms",
    "fleet.violation_ticks": "count",
    "fleet.faults_injected": "count",
    "fleet.plan_ticks": "count",
    "service.hit_ms": "ms",
    "service.admit_ms": "ms",
    "service.server_ms": "ms",
    "service.exec_ms": "ms",
    "service.queue_wait_ms": "ms",
    "harness.spawn_ms": "ms",
    "service.observe_ms": "ms",
    "service.cache_hits": "count",
    "service.shed": "count",
    "service.retries": "count",
    "model.sim_energy_j": "J",
    "model.sim_time_s": "s",
    "bench.ref_ms": "ms",
    "bench.ref_pre_ms": "ms",
    "bench.ref_drift": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.raw_ops_per_s": "1/s",
    "bench.raw_op_p50_ms": "ms",
    "bench.raw_op_p90_ms": "ms",
    "error_rate": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="target run length; fixes the op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one block of ops and one set-up launch "
                             "(the benchmark's own tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, work_dir: str):
    from perfbench.served import ServedJobs
    from perfbench.workloads import FleetCaps, PaperRuns, SweepGrid

    if name == "served_jobs":
        return ServedJobs(seed, work_dir, SRC)
    return {"paper_runs": PaperRuns, "sweep_grid": SweepGrid,
            "fleet_caps": FleetCaps}[name](seed, work_dir)


@dataclass
class PassResult:
    """One closed-loop pass over the op list."""

    latencies: list[float]      # raw seconds per op
    refs: list[float]           # reference-kernel ms, one per ``every`` ops
    every: int
    elasticity: float
    totals: list[tuple[float, float] | None]
    failed: int

    @property
    def ref_ms(self) -> float:
        return statistics.median(self.refs)

    def normalised_latencies(self) -> list[float]:
        from perfbench.measure import at_reference_speed, rolling_median

        rolling = rolling_median(self.refs)
        return [at_reference_speed(lat, rolling[i // self.every], self.elasticity)
                for i, lat in enumerate(self.latencies)]

    def ops_per_s(self, normalised: bool = True) -> float:
        wall = sum(self.normalised_latencies() if normalised else self.latencies)
        return len(self.latencies) / wall


def timed_pass(workload, ops, tracer=None, baseline: PassResult | None = None,
               ) -> PassResult:
    """Run every op once, closed loop.  Reference samples, checks, layer
    replays and clean-up all happen between ops, outside the timing."""
    from perfbench.measure import reference_sample
    from perfbench.workloads import CheckFailed

    latencies, refs, totals = [], [], []
    failed = 0
    gc.collect()
    for index, op in enumerate(ops):
        if index % workload.ref_every == 0:
            refs.append(reference_sample())
        t0 = time.perf_counter()
        try:
            out = (workload.traced_op(op, index, tracer) if tracer is not None
                   else workload.run_op(op))
            error = None
        except Exception as exc:  # noqa: BLE001 — a failed op, counted below
            out, error = None, exc
        latencies.append(time.perf_counter() - t0)
        total = None
        if out is not None:
            try:
                if baseline is None:
                    workload.check(op, out)
                total = workload.model_totals(out)
                if baseline is not None:
                    if total != baseline.totals[index]:
                        raise CheckFailed(f"traced op {index} differs from "
                                          f"its untraced run")
                    workload.replay(op, index, out, tracer)
            except Exception as exc:  # noqa: BLE001 — a failed check
                error, total = exc, None
            finally:
                workload.release(out)
        if error is not None:
            failed += 1
            if failed <= 5:
                print(f"perfbench: op {index} {op} failed: "
                      f"{type(error).__name__}: {error}", file=sys.stderr)
        totals.append(total)
    return PassResult(latencies, refs, workload.ref_every,
                      workload.ref_elasticity, totals, failed)


def benchmark(args: argparse.Namespace, work_dir: str) -> dict:
    from perfbench.measure import (
        REF_MS,
        Tracer,
        at_reference_speed,
        p50_p90,
        reference_sample,
    )

    # The first calls run before the interpreter has specialised the
    # kernel's bytecode; sample only once that has settled.
    ref_pre = statistics.median([reference_sample() for _ in range(10)][5:])
    workload = make_workload(args.workload, args.seed, work_dir)
    tracer = traced = layers = None
    setup_raw: list[float] = []
    setup_norm: list[float] = []
    probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)]
    launches = 0 if args.trace else 1 if args.quick else SETUP_LAUNCHES
    try:
        for _ in range(launches):
            ref = statistics.median(reference_sample() for _ in range(3))
            setup_raw.append(workload.launch_to_ready(probe))
            setup_norm.append(at_reference_speed(setup_raw[-1], ref,
                                                 workload.ref_elasticity))
        workload.start()
        n_ops = workload.block if args.quick else workload.n_ops(args.seconds)
        if args.trace:
            # Two passes, the traced one up to five times slower with the
            # program's own telemetry on: a quarter of the ops keeps the
            # run well inside its time limit.
            n_ops = max(workload.block, n_ops // 4 // workload.block * workload.block)
        ops = workload.make_ops(n_ops)
        workload.warmup(ops)
        plain = timed_pass(workload, ops)
        peak_rss = workload.peak_rss_mb()
        if args.trace:
            workload.restart()
            workload.warmup(ops)
            tracer = Tracer()
            traced = timed_pass(workload, ops, tracer, baseline=plain)
            layers = workload.layer_metrics(tracer)
    finally:
        workload.stop()

    attempted = len(ops) * (2 if traced else 1)
    failed = plain.failed + (traced.failed if traced else 0)
    raw_p50, raw_p90 = (q * 1e3 for q in p50_p90(plain.latencies))
    print(f"perfbench {args.workload} seed={args.seed}: {attempted} ops, "
          f"{failed} failed, error_rate {failed / attempted:.4g} ratio")
    print(f"  reference kernel {plain.ref_ms:.4f} ms between ops, "
          f"{ref_pre:.4f} ms before set-up (ratio {plain.ref_ms / ref_pre:.4f}); "
          f"values at {REF_MS} ms, raw in brackets")
    if not args.trace:
        norm = plain.normalised_latencies()
        n = len(norm)
        p50, p90 = p50_p90(norm)
        raw_setup = statistics.median(setup_raw)
        values = {
            "setup_s": statistics.median(setup_norm),
            "ops_per_s": plain.ops_per_s(),
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak_rss,
        }
        raw = {"setup_s": raw_setup, "ops_per_s": plain.ops_per_s(False),
               "op_p50_ms": raw_p50, "op_p90_ms": raw_p90}
        notes = {"setup_s": f"median of {len(setup_raw)} launches",
                 "op_p50_ms": f"n={n}", "op_p90_ms": f"n={n}, {n // 10} beyond"}
        for name, value in values.items():
            extra = f" [raw {raw[name]:.6g}]" if name in raw else ""
            note = f" ({notes[name]})" if name in notes else ""
            print(f"  {name:<12} {value:12.6g} {END_TO_END[name]}{extra}{note}")
        units = END_TO_END
    else:
        values = {name: 0.0 for name in PER_LAYER}
        batch_lanes = layers.pop("runtime.batch_lanes", 0)
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
        values.update(layers)
        lanes = values["runtime.lanes"]
        done = [t for t in plain.totals if t is not None]
        values.update({
            "runtime.batch_share": batch_lanes / lanes if lanes else 0.0,
            "model.sim_energy_j": sum(t[0] for t in done),
            "model.sim_time_s": sum(t[1] for t in done),
            "bench.ref_ms": traced.ref_ms,
            "bench.ref_pre_ms": ref_pre,
            "bench.ref_drift": plain.ref_ms / ref_pre,
            "bench.trace_overhead": plain.ops_per_s() / traced.ops_per_s(),
            "bench.raw_ops_per_s": plain.ops_per_s(False),
            "bench.raw_op_p50_ms": raw_p50,
            "bench.raw_op_p90_ms": raw_p90,
            "error_rate": failed / attempted,
        })
        for name, value in values.items():
            print(f"  {name:<24} {value:14.6g} {PER_LAYER[name]}")
        os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
        path = os.path.join(OUT_DIR, "spans",
                            f"{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
        units = PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def setup_probe(args: argparse.Namespace, work_dir: str) -> int:
    """Child of :meth:`Workload.launch_to_ready`: get ready, say so, exit."""
    workload = make_workload(args.workload, args.seed, work_dir)
    try:
        workload.start()
        workload.warmup(workload.make_ops(workload.block))
        print("ready", flush=True)
    finally:
        workload.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    # One CPU for the generator, its reference samples and every child
    # (set-up probes, the daemon, its workers): a sample then describes
    # the CPU the ops ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_dir = os.path.join(OUT_DIR, "work", f"{args.workload}-{os.getpid()}")
    # Nothing this run does may reach a user's default result cache.
    os.environ["GREENGPU_CACHE_DIR"] = os.path.join(work_dir, "default-cache")
    try:
        if args.setup_probe:
            return setup_probe(args, work_dir)
        result = benchmark(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
