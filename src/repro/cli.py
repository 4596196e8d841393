"""Command-line interface: the ``greengpu`` tool.

Subcommands:

- ``run``          — run one workload under one policy, print the report;
- ``compare``      — run every policy on a workload, print the comparison;
- ``sweep``        — static division sweep (the Fig. 2 experiment on any
  workload);
- ``fleet``        — datacenter-scale simulation: N catalog nodes under
  a global power budget, coordinated per tick by a cap allocator
  (compare allocators with a comma-separated ``--allocator`` list);
- ``characterize`` — Table-II-style utilization characterization;
- ``oracle``       — exhaustive static frequency/division search;
- ``reproduce``    — regenerate one or all paper artifacts;
- ``replay``       — build a workload from a ``time,u_core,u_mem`` CSV
  trace (e.g. a polled nvidia-smi log) and run a policy on it;
- ``metrics``      — render the telemetry exported by a previous
  ``--telemetry DIR`` run (span stats, counters, gauges, WMA trace;
  ``--format {table,csv,json}``);
- ``trace``        — render a run's stitched distributed trace as a
  text waterfall (span tree, wall-clock bars, per-worker provenance);
  the same spans export as ``trace.json`` for Perfetto;
- ``slo``          — evaluate service-level objectives (compliance +
  multi-window burn rates) against a run directory; ``--fail-on
  violations=0,burn=2`` turns it into a CI gate;
- ``explain``      — narrate a run's decision audit trail tick by tick
  (``--tick N`` shows one decision's full evidence);
- ``diff``         — compare two run directories (energy/time deltas,
  first decision divergence, health drift); ``--fail-on energy=2%``
  turns it into a CI regression gate;
- ``report``       — render a run directory into a self-contained HTML
  report (inline-SVG timelines + WMA weight heatmap, no external deps);
- ``serve``        — the simulation-as-a-service daemon over a run
  directory; a restart on the same ``--run-dir`` recovers its jobs;
- ``cache``        — inspect (``stats``) or empty (``clear``) the
  content-addressed result cache that ``run``/``compare``/``sweep``/
  ``fleet``/``serve`` consult (disable per-invocation with
  ``--no-cache``, relocate with ``--cache-dir``/``$GREENGPU_CACHE_DIR``).

``run``, ``compare``, ``sweep`` and ``reproduce`` accept ``--telemetry
DIR`` to record metrics, spans and events into ``DIR`` (see
``docs/observability.md``); ``repro metrics DIR`` renders them.  Runs
under a live policy also write a decision ``audit.jsonl`` there, which
``explain``/``diff``/``report`` consume.

``run``, ``compare`` and ``replay`` accept ``--faults
{light,moderate,heavy}`` (plus ``--fault-seed``) to inject seeded
monitor/actuator/device faults; the run summary then reports the
controller's fault/retry/fallback counters.

All simulation is deterministic; every command prints plain text.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.report import comparison_report, run_report
from repro.analysis.tables import format_table
from repro.core.policies import POLICY_FACTORIES, Policy, make_policy
from repro.errors import ConfigError, ReproError
from repro.experiments.common import scaled_config, scaled_options, scaled_workload
from repro.faults.injector import FAULT_PROFILES, fault_profile
from repro.runtime.executor import run_workload
from repro.workloads.characteristics import workload_names

def _make_policy(name: str, time_scale: float,
                 args: argparse.Namespace) -> Policy:
    policy = make_policy(name, scaled_config(time_scale))
    profile = getattr(args, "faults", "none")
    if profile != "none":
        policy = policy.with_faults(
            fault_profile(profile, seed=getattr(args, "fault_seed", 0))
        )
    return policy


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="kmeans",
                        help=f"one of {workload_names()} (or a paper alias)")
    parser.add_argument("--iterations", type=int, default=8)
    parser.add_argument("--time-scale", type=float, default=0.1,
                        help="shrink simulated durations by this factor")


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", default="none",
                        choices=["none", *sorted(FAULT_PROFILES)],
                        help="inject seeded monitor/actuator/device faults")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the fault-injection draw stream")


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", default=None, metavar="DIR",
                        help="record metrics/spans/events into DIR "
                             "(render with 'metrics DIR')")


def _add_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache root (default: "
                             "$GREENGPU_CACHE_DIR or ~/.cache/greengpu)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither serve nor store cached results")


def _make_cache(args: argparse.Namespace):
    """The command's ResultCache, or None with ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    from repro.cache import ResultCache, default_cache_dir

    return ResultCache(args.cache_dir or default_cache_dir())


def cmd_run(args: argparse.Namespace) -> int:
    workload = scaled_workload(args.workload, args.time_scale)
    policy = _make_policy(args.policy, args.time_scale, args)
    telemetry = None
    audit = None
    if args.telemetry:
        from repro.telemetry import AuditTrail, Telemetry

        telemetry = Telemetry()
        audit = AuditTrail()
    result = run_workload(
        workload, policy, n_iterations=args.iterations,
        options=scaled_options(args.time_scale),
        telemetry=telemetry, audit=audit, cache=_make_cache(args),
    )
    print(run_report(result))
    if telemetry is not None:
        from repro.telemetry import export_telemetry

        export_telemetry(telemetry, args.telemetry)
        audit.write(args.telemetry)
        print(f"\ntelemetry written to {args.telemetry} "
              f"(render with: greengpu metrics {args.telemetry}; "
              f"explain {args.telemetry}; report {args.telemetry})")
    if args.save:
        from repro.analysis import serialize

        serialize.save(result, args.save)
        print(f"\nresult written to {args.save}")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    from repro.analysis import serialize

    result = serialize.load(args.result)
    print(run_report(result))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.runtime.batch_executor import BatchExecutor, RunRequest
    from repro.telemetry import AuditTrail, Telemetry

    workload = scaled_workload(args.workload, args.time_scale)
    options = scaled_options(args.time_scale)
    policy_names = ("rodinia-default", "scaling-only", "division-only", "greengpu")
    # One dispatcher call picks each policy's engine: GreenGPU and
    # scaling-only carry controller ticks, and two static lanes are below
    # the batch crossover, so all four run scalar.  With --telemetry each
    # policy records its own trail on a live run.
    requests = [
        RunRequest(
            workload=workload,
            policy=_make_policy(name, args.time_scale, args),
            n_iterations=args.iterations,
            options=options,
            telemetry=Telemetry() if args.telemetry else None,
            audit=AuditTrail() if args.telemetry else None,
        )
        for name in policy_names
    ]
    results = BatchExecutor(cache=_make_cache(args)).run_many(requests)
    print(comparison_report(results, baseline_index=0))
    if args.telemetry:
        from repro.telemetry import merge_directory
        from repro.telemetry.merge import export_worker, worker_dir

        for name, request in zip(policy_names, requests):
            export_worker(request.telemetry, args.telemetry, name)
            request.audit.write(worker_dir(args.telemetry, name))
        merge_directory(args.telemetry)
        print(f"\ntelemetry written to {args.telemetry} "
              f"(per-policy trails merged; render with: "
              f"greengpu metrics {args.telemetry})")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Static division sweep, one supervised job per ratio point.

    Every point is journaled in ``--run-dir`` (progress lines go to
    stderr); ``--resume`` re-runs only the points whose artifacts are
    missing, and ``--parallel N`` fans points out across isolated
    worker processes.
    """
    import tempfile

    from repro.harness.suite_jobs import sweep_prefetch, sweep_specs
    from repro.harness.supervisor import run_jobs, stderr_progress

    scaled_workload(args.workload, args.time_scale)  # validate the name early
    if not 0.0 < args.step <= 1.0:
        raise ConfigError(f"--step must be in (0, 1], got {args.step}")
    if not 0.0 <= args.max_ratio <= 1.0:
        raise ConfigError(f"--max-ratio must be in [0, 1], got {args.max_ratio}")
    # The tolerance keeps the endpoint when the quotient lands a hair
    # under an integer (0.3 / 0.1 == 2.9999999999999996).
    n_points = int(args.max_ratio / args.step + 1e-9) + 1
    ratios = [round(args.step * i, 4) for i in range(n_points)]
    specs = sweep_specs(args.workload, ratios, args.iterations, args.time_scale,
                        telemetry_dir=args.telemetry)
    sweep_cache = _make_cache(args)
    # Inline (non-isolated) sweeps hand the supervisor a prefetch hook
    # that packs all still-pending, uninstrumented points into one
    # lockstep batch; each point still flows through per-job journaling,
    # artifacts, and cache puts, so the run directory is byte-for-byte a
    # scalar sweep's.  Isolated runs (--parallel > 1 / --isolate) keep
    # live subprocess workers — the supervisor ignores the hook there.
    prefetch = sweep_prefetch(args.workload, args.iterations, args.time_scale)
    supervisor_telemetry = None
    if args.telemetry:
        from repro.telemetry import Telemetry

        supervisor_telemetry = Telemetry()

    def supervised(run_dir: str) -> int:
        result = run_jobs(
            specs, run_dir,
            parallel=args.parallel,
            resume=args.resume,
            isolate=args.parallel > 1 or args.isolate,
            progress=stderr_progress,
            telemetry=supervisor_telemetry,
            cache=sweep_cache,
            prefetch=prefetch,
        )
        if args.telemetry:
            from repro.telemetry import merge_directory

            merge_directory(args.telemetry, extra=[supervisor_telemetry])
            print(f"telemetry merged into {args.telemetry} "
                  f"(render with: greengpu metrics {args.telemetry})",
                  file=sys.stderr)
        report = result.report
        payloads = result.payloads
        rows = [
            (f"{p['r']:.2f}", p["energy_j"] / 1e3, p["time_s"])
            for p in (payloads[s.name] for s in specs if s.name in payloads)
        ]
        if rows:
            print(format_table(["CPU share", "energy (kJ)", "time (s)"], rows,
                               title=f"static division sweep — {args.workload}"))
        if report.interrupted:
            where = (f" --run-dir {args.run_dir}" if args.run_dir
                     else " (use --run-dir to make runs resumable)")
            print(f"interrupted — finish with --resume{where}", file=sys.stderr)
            return 130
        if payloads:
            optimum = min(payloads.values(), key=lambda p: p["energy_j"])
            print(f"\nenergy minimum at r = {optimum['r']:.2f} "
                  f"({optimum['energy_j'] / 1e3:.2f} kJ)")
        print(f"\n{report.summary_line()}")
        return 0 if report.ok else 1

    if args.run_dir is not None:
        return supervised(args.run_dir)
    if args.resume:
        raise ConfigError("--resume requires --run-dir")
    with tempfile.TemporaryDirectory(prefix="greengpu-sweep-") as tmp:
        return supervised(tmp)


def cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet simulation: N nodes under one budget, per-tick cap allocation.

    ``--allocator`` accepts a comma-separated list; each allocator runs
    the same scenario and the results print as a comparison table.
    ``--telemetry`` (single allocator only) records rack-labelled fleet
    metrics plus run-level energy/time gauges, mergeable and diffable
    like any other run directory, and writes a ``fleet_summary.json``
    that ``greengpu report`` renders with per-rack aggregation.
    """
    import json
    import os
    import tempfile

    from repro.fleet import make_scenario
    from repro.fleet.shard import export_fleet_worker, shard_name
    from repro.fleet.sim import FleetSim

    allocators = [name.strip() for name in args.allocator.split(",")
                  if name.strip()]
    if not allocators:
        raise ConfigError("--allocator must name at least one policy")
    if args.telemetry and len(allocators) > 1:
        raise ConfigError("--telemetry records one run: use a single "
                          "--allocator with it")
    if args.resume and not args.run_dir:
        raise ConfigError("--resume requires --run-dir")
    scenario = make_scenario(
        args.scenario, n_nodes=args.nodes, seed=args.seed,
        nodes_per_rack=args.nodes_per_rack,
        duration_s=args.duration,
        coordination_interval_s=args.interval,
        budget_frac=args.budget_frac,
    )

    def run_all(run_root: str | None) -> int:
        summaries = []
        for name in allocators:
            run_dir = (os.path.join(run_root, name)
                       if run_root is not None else None)
            sim = FleetSim(
                scenario, name,
                shards=args.shards, parallel=args.parallel,
                run_dir=run_dir, resume=args.resume,
                telemetry_dir=args.telemetry if run_dir else None,
                cache=_make_cache(args),
            )
            result = sim.run()
            if result is None:
                report = sim.last_report
                if report is not None and report.interrupted:
                    where = (f" --run-dir {args.run_dir}" if args.run_dir
                             else " (use --run-dir to make runs resumable)")
                    print(f"interrupted — finish with --resume{where}",
                          file=sys.stderr)
                    return 130
                detail = (report.summary_line() if report is not None
                          else "no harness report")
                print(f"fleet run failed: {detail}", file=sys.stderr)
                return 1
            summaries.append(result.summary())
            if args.telemetry:
                from repro.telemetry import Telemetry, merge_directory

                if run_dir is None:
                    # Inline runs export through the same worker path the
                    # spawned shards use — under the same derived trace
                    # context the harness would hand a single spawned
                    # shard — so the merged view (metrics *and* stitched
                    # trace) is identical either way.
                    from repro.telemetry.tracecontext import (
                        default_context,
                        propagation_env,
                    )

                    whole = shard_name(0, scenario.n_nodes)
                    shard_trace = default_context().child("job", whole)
                    with propagation_env(shard_trace):
                        export_fleet_worker(
                            list(result.nodes), args.telemetry, whole, name,
                        )
                summary = Telemetry(base_labels={
                    "scenario": scenario.name, "allocator": name,
                })
                summary.gauge("run_total_energy_j").set(
                    result.energy_j, t=result.makespan_s)
                summary.gauge("run_time_s").set(
                    result.makespan_s, t=result.makespan_s)
                merge_directory(args.telemetry, extra=[summary])
                with open(os.path.join(args.telemetry,
                                       "fleet_summary.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
                print(f"telemetry merged into {args.telemetry} "
                      f"(render with: greengpu report {args.telemetry})",
                      file=sys.stderr)

        rows = [
            (s["allocator"], s["energy_j"] / 1e6, s["makespan_s"],
             str(s["violation_ticks"]), str(s["faults_injected"]))
            for s in summaries
        ]
        print(format_table(
            ["allocator", "energy (MJ)", "makespan (s)", "cap violations",
             "faults"],
            rows,
            title=(f"fleet — {scenario.name}, {scenario.n_nodes} nodes / "
                   f"{scenario.n_racks} racks, budget {args.budget_frac:.0%}"
                   " of headroom"),
        ))
        if len(summaries) > 1:
            best = min(summaries, key=lambda s: s["energy_j"])
            print(f"\nlowest fleet energy: {best['allocator']} "
                  f"({best['energy_j'] / 1e6:.3f} MJ)")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(summaries, fh, indent=2, sort_keys=True)
            print(f"summary written to {args.out}", file=sys.stderr)
        return 0

    if args.run_dir is not None:
        return run_all(args.run_dir)
    if args.shards > 1:
        with tempfile.TemporaryDirectory(prefix="greengpu-fleet-") as tmp:
            return run_all(tmp)
    return run_all(None)


def cmd_characterize(args: argparse.Namespace) -> int:
    from repro.experiments import table2

    rows = table2.run(n_iterations=args.iterations, time_scale=args.time_scale)
    table_rows = [
        (r.name, r.u_core, r.u_mem, r.measured_description) for r in rows
    ]
    print(format_table(["workload", "u_core", "u_mem", "class"], table_rows,
                       title="workload characterization (all-GPU, peak clocks)"))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from repro.baselines.oracle import oracle_frequency_search
    from repro.units import to_mhz

    workload = scaled_workload(args.workload, args.time_scale)
    result = oracle_frequency_search(
        workload, r=args.ratio, n_iterations=args.iterations,
        max_slowdown=args.max_slowdown,
    )
    from repro.sim.calibration import geforce_8800_gtx_spec

    spec = geforce_8800_gtx_spec()
    print(f"oracle optimum for {args.workload!r} at r={args.ratio:.2f}:")
    print(f"  core {to_mhz(spec.core_ladder[result.core_level]):.1f} MHz "
          f"(level {result.core_level})")
    print(f"  mem  {to_mhz(spec.mem_ladder[result.mem_level]):.1f} MHz "
          f"(level {result.mem_level})")
    print(f"  energy {result.energy_j / 1e3:.2f} kJ over "
          f"{result.result.total_s:.1f} s ({result.evaluated} configs searched)")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate paper artifacts as journaled jobs with progress lines."""
    import tempfile

    from repro.harness.job import JobSpec
    from repro.harness.suite_jobs import SUITE_ARTIFACTS
    from repro.harness.supervisor import run_jobs, stderr_progress

    names = args.artifacts or list(SUITE_ARTIFACTS)
    for name in names:
        if name not in SUITE_ARTIFACTS:
            raise ConfigError(
                f"unknown artifact {name!r}; choose from {sorted(SUITE_ARTIFACTS)}"
            )
    specs = [
        JobSpec(name=name, target="repro.harness.suite_jobs:run_artifact_module",
                kwargs={"name": name})
        for name in names
    ]
    telemetry = None
    if args.telemetry:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    # Inline execution: artifact mains print straight to stdout, in
    # order; the journal (in a throwaway dir) backs the progress lines.
    with tempfile.TemporaryDirectory(prefix="greengpu-reproduce-") as tmp:
        result = run_jobs(specs, tmp, isolate=False, progress=stderr_progress,
                          telemetry=telemetry)
    report = result.report
    if telemetry is not None:
        from repro.telemetry import merge_directory

        merge_directory(args.telemetry, extra=[telemetry])
        print(f"telemetry written to {args.telemetry}", file=sys.stderr)
    if not report.ok:
        for name, error in report.errors.items():
            print(f"error: {name}: {error.splitlines()[-1]}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.sim.calibration import geforce_8800_gtx_spec, phenom_ii_x2_spec
    from repro.workloads.base import DemandModelWorkload
    from repro.workloads.trace_replay import parse_csv, profile_from_trace

    from repro.errors import SerializationError

    try:
        text = Path(args.trace).read_text()
    except OSError as exc:
        raise SerializationError(
            f"{args.trace}: cannot read trace file ({exc})"
        ) from exc
    gpu, cpu = geforce_8800_gtx_spec(), phenom_ii_x2_spec()
    profile = profile_from_trace(
        parse_csv(text), gpu,
        name=Path(args.trace).stem,
        cpu_gpu_time_ratio=args.cpu_gpu_ratio,
    )
    workload = DemandModelWorkload(profile, gpu, cpu)
    print(f"replaying {args.trace}: {profile.enlargement}, "
          f"{profile.gpu_seconds_per_iteration:.1f} s per iteration")
    policy = _make_policy(args.policy, args.time_scale, args)
    result = run_workload(
        workload, policy, n_iterations=args.iterations,
        options=scaled_options(args.time_scale),
    )
    print(run_report(result))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.format == "table":
        from repro.telemetry import format_metrics_report

        print(format_metrics_report(args.dir), end="")
        return 0

    import json
    import os

    from repro.errors import SerializationError
    from repro.telemetry.exporters import (
        SNAPSHOT_NAME,
        read_snapshot,
        render_csv,
    )
    from repro.telemetry.registry import MetricsRegistry

    snapshot_path = os.path.join(args.dir, SNAPSHOT_NAME)
    if not os.path.exists(snapshot_path):
        raise SerializationError(
            f"{snapshot_path}: no telemetry snapshot found (was the run "
            "started with --telemetry, or the directory merged?)"
        )
    snapshot = read_snapshot(snapshot_path)
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_csv(MetricsRegistry.from_snapshot(snapshot)), end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import format_trace_report

    print(format_trace_report(args.dir, limit=args.limit), end="")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    from repro.telemetry.slo import (
        DEFAULT_SLOS,
        DEFAULT_WINDOWS,
        check_slos,
        evaluate_directory,
        format_slo_report,
        load_slo_file,
        parse_fail_on,
    )

    specs = load_slo_file(args.slo) if args.slo else DEFAULT_SLOS
    windows = tuple(args.window) if args.window else DEFAULT_WINDOWS
    results = evaluate_directory(args.dir, specs=specs, windows=windows)
    print(format_slo_report(results))
    failures = check_slos(results, parse_fail_on(args.fail_on))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.telemetry import format_explanation

    print(format_explanation(args.dir, tick=args.tick), end="")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.telemetry import diff_runs
    from repro.telemetry.diff import (
        check_thresholds,
        format_delta,
        parse_fail_on,
    )

    thresholds = parse_fail_on(args.fail_on)
    delta = diff_runs(args.dir_a, args.dir_b)
    print(format_delta(delta))
    violations = check_thresholds(delta, thresholds)
    for violation in violations:
        print(f"FAIL {violation}", file=sys.stderr)
    if args.fail_on_divergence and delta.divergent:
        print("FAIL runs diverge (--fail-on-divergence)", file=sys.stderr)
        return 1
    return 1 if violations else 0


def cmd_cache(args: argparse.Namespace) -> int:
    import json as _json

    cache = _make_cache(args)
    if args.action == "stats":
        stats = cache.stats()
        if args.format == "json":
            print(_json.dumps(stats.as_dict(), indent=2, sort_keys=True))
            return 0
        print(f"cache root : {stats.root}")
        print(f"entries    : {stats.entries}")
        print(f"total bytes: {stats.total_bytes}")
        print(f"corrupt    : {stats.corrupt}")
        return 0
    cleared = cache.clear()
    if args.format == "json":
        print(_json.dumps(cleared.as_dict(), indent=2, sort_keys=True))
        return 0
    print(f"cache root : {cleared.root}")
    print(f"entries    : {cleared.entries} removed")
    print(f"files      : {cleared.files} removed")
    print(f"reclaimed  : {cleared.reclaimed_bytes} bytes")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.run import serve_until_signalled

    return asyncio.run(serve_until_signalled(args, _make_cache(args)))


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.html_report import write_html_report

    out = write_html_report(args.dir, args.out)
    print(f"report written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    import repro

    parser = argparse.ArgumentParser(
        prog="greengpu", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {repro.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one workload under one policy")
    _add_common(p)
    _add_faults(p)
    _add_telemetry(p)
    _add_cache(p)
    p.add_argument("--policy", default="greengpu", choices=sorted(POLICY_FACTORIES))
    p.add_argument("--save", default=None, metavar="FILE",
                   help="write the full result (incl. traces) as JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("show", help="re-render a saved JSON result")
    p.add_argument("result", help="file written by 'run --save'")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("compare", help="all policies on one workload")
    _add_common(p)
    _add_faults(p)
    _add_telemetry(p)
    _add_cache(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="static division sweep (Fig. 2 style)")
    _add_common(p)
    _add_telemetry(p)
    _add_cache(p)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--max-ratio", type=float, default=0.9)
    p.add_argument("--parallel", type=int, default=1,
                   help="worker processes to fan sweep points across")
    p.add_argument("--run-dir", default=None,
                   help="journaled run directory (enables --resume)")
    p.add_argument("--resume", action="store_true",
                   help="skip points already completed in --run-dir")
    p.add_argument("--isolate", action="store_true",
                   help="run each point in its own process even with --parallel 1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fleet", help="datacenter fleet under a power budget")
    p.add_argument("--nodes", type=int, default=100,
                   help="fleet size (catalog nodes, mixed by the scenario)")
    p.add_argument("--scenario", default="diurnal",
                   choices=["diurnal", "rolling-caps", "fault-bursts"],
                   help="fleet workload generator")
    p.add_argument("--allocator", default="efficiency-weighted",
                   help="cap allocator, or a comma-separated list to "
                        "compare (uniform-cap, proportional-share, "
                        "efficiency-weighted)")
    p.add_argument("--budget-frac", type=float, default=0.5,
                   help="datacenter budget as a fraction of the fleet's "
                        "headroom above its floor draw")
    p.add_argument("--duration", type=float, default=240.0,
                   help="scenario duration in simulated seconds")
    p.add_argument("--interval", type=float, default=12.0,
                   help="coordination interval in simulated seconds")
    p.add_argument("--nodes-per-rack", type=int, default=20)
    p.add_argument("--seed", type=int, default=0,
                   help="root seed every per-node stream spawns from")
    p.add_argument("--shards", type=int, default=1,
                   help="split the fleet into this many harness jobs")
    p.add_argument("--parallel", type=int, default=1,
                   help="worker processes to fan shards across")
    p.add_argument("--run-dir", default=None,
                   help="journaled run directory (enables --resume)")
    p.add_argument("--resume", action="store_true",
                   help="skip shards already completed in --run-dir")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the per-allocator summary JSON here")
    _add_telemetry(p)
    _add_cache(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("characterize", help="Table II utilization classes")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--time-scale", type=float, default=0.1)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("oracle", help="exhaustive static frequency search")
    _add_common(p)
    p.add_argument("--ratio", type=float, default=0.0)
    p.add_argument("--max-slowdown", type=float, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reproduce", help="regenerate paper artifacts")
    _add_telemetry(p)
    p.add_argument("artifacts", nargs="*",
                   help="fig1 fig2 table2 fig5 fig6 fig7 fig8 headline (default: all)")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("replay", help="run a policy on a utilization-trace CSV")
    _add_faults(p)
    p.add_argument("trace", help="CSV with time_s,u_core,u_mem rows")
    p.add_argument("--policy", default="scaling-only", choices=sorted(POLICY_FACTORIES))
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--time-scale", type=float, default=1.0)
    p.add_argument("--cpu-gpu-ratio", type=float, default=4.0)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("metrics", help="render a --telemetry directory")
    p.add_argument("dir", help="directory written by a --telemetry run")
    p.add_argument("--format", default="table",
                   choices=["table", "csv", "json"],
                   help="table (human), csv (one row per instrument), or "
                        "json (the raw merged snapshot)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("trace",
                       help="render a run's stitched trace waterfall")
    p.add_argument("dir", help="directory written by a --telemetry run")
    p.add_argument("--limit", type=int, default=80,
                   help="maximum spans to print before truncating")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("slo",
                       help="evaluate SLO compliance and burn rates")
    p.add_argument("action", choices=["check"])
    p.add_argument("dir", help="directory written by a --telemetry run")
    p.add_argument("--slo", default=None, metavar="FILE",
                   help="JSON objective file (default: built-in objectives)")
    p.add_argument("--window", type=float, action="append", default=None,
                   metavar="SECONDS",
                   help="burn-rate window (repeatable; default: 60, 300)")
    p.add_argument("--fail-on", action="append", default=None,
                   metavar="KEY=VAL",
                   help="exit 1 past a gate, e.g. violations=0, burn=2 "
                        "(repeat or comma-separate)")
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser("explain",
                       help="narrate a run's decision audit trail")
    p.add_argument("dir", help="directory written by a --telemetry run")
    p.add_argument("--tick", type=int, default=None,
                   help="show the full evidence for one scaling tick")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("diff", help="compare two run directories")
    p.add_argument("dir_a", help="baseline run directory")
    p.add_argument("dir_b", help="candidate run directory")
    p.add_argument("--fail-on", action="append", default=None,
                   metavar="KEY=VAL",
                   help="exit 1 past a threshold, e.g. energy=2%%, "
                        "time=5%%, flips=0 (repeat or comma-separate)")
    p.add_argument("--fail-on-divergence", action="store_true",
                   help="exit 1 if anything deterministic differs")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache root (default: $GREENGPU_CACHE_DIR or "
                        "~/.cache/greengpu)")
    p.add_argument("--format", default="table", choices=["table", "json"],
                   help="output format: table (default) or json with "
                        "per-shard entry counts / reclaimed bytes")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "serve", help="run the simulation-as-a-service daemon",
        description="Serve simulation jobs over HTTP until SIGTERM/SIGINT, "
                    "then drain; a restart on the same --run-dir serves "
                    "finished jobs from disk and re-queues the rest.")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8100,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent simulation worker processes")
    p.add_argument("--run-dir", default="runs/service", metavar="DIR",
                   help="journal + artifact directory; a restart on the "
                        "same directory recovers its jobs")
    _add_cache(p)
    p.add_argument("--tenant-queue-limit", type=int, default=64)
    p.add_argument("--global-high-water", type=int, default=256)
    p.add_argument("--rate-per-tenant", type=float, default=50.0,
                   help="token-bucket refill rate (submissions/s)")
    p.add_argument("--burst-per-tenant", type=float, default=100.0)
    p.add_argument("--job-timeout", type=float, default=120.0,
                   metavar="SECONDS", dest="job_timeout_s")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="SECONDS", dest="drain_timeout_s")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="export per-job worker telemetry under DIR and "
                        "merge it (plus the daemon's own stream) into one "
                        "stitched trace at shutdown")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("report",
                       help="self-contained HTML report for a run directory")
    p.add_argument("dir", help="directory written by a --telemetry run")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="output path (default: <dir>/report.html)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
