"""CI gate: disabled telemetry < 3 %, audit-enabled tick < 5 % overhead.

The controller reports every decision to one observer
(:mod:`repro.core.observer`).  With no sink attached (no recorder, no
audit, telemetry off) a clean tier-2 scaling tick pays only this for
it: the span sites were chosen at attach (bare tick, monitor-read, WMA
and actuation callables, so no span check at all), and what is left
per tick is one ``_traced`` check before the card's report in
``_scale_card``, the ``observer`` and ``_retry`` reads in
``_apply_gpu_frequencies`` (the retry reporter and the write chosen at
attach), and one ``_report_tick`` check before the tick's report in
``_scaling_tick``.

This script measures that probe sequence in isolation (minus the bare
loop cost), on the attributes of a real attached controller, and
divides it by the wall time of the *genuine*
``GreenGpuController._scaling_tick`` driven against a calibrated
testbed — no synthetic stand-in for the denominator.  The testbed's GPU
advances one scaling interval between ticks, outside the timed region,
so every tick reads a fresh ``nvidia-smi`` sample and makes a WMA
decision; the run fails unless every tick did (a tick on an empty
window is the much cheaper monitor-fault skip).  The minimum over
several trials is used for each quantity (minimums are robust to
scheduler noise on shared CI runners).  Exit status 0 iff

    probe_cost / (tick_cost - probe_cost) < BUDGET

The decision audit trail (:mod:`repro.telemetry.audit`) has its own
budget: its ``note_*`` writers append one small tuple per tick and
defer every derivation (the weight table included) to render time, so
an audit-enabled tick must stay within ``--audit-budget`` (default 5 %)
of the bare tick.  Measured on the real controller and testbed, in
back-to-back pairs: each pair times a plain and an audited run of
``PAIR_TICKS`` ticks next to each other (alternating which goes first)
and the gate reads the median of ``PAIRS`` per-pair ratios.  Timing all
plain trials before all audited ones let drift in the host's speed
between the two blocks read as overhead; so did pairs of second-long
runs (single pair ratios spread from -9 % to +22 % on a 2-vCPU guest,
and the median of seven moved by several points from run to run).
Many short pairs see less drift each and give a stable median.  Every
audited run starts a new trail, so the memory the trail takes is paid
for in every pair.

The distributed-tracing layer rides the same span sites, so the same
disabled-path gate covers it: a disabled run never derives a span id.
Two informational rows size the *enabled* tracing cost — the null
facade's trace surface (``current_context``/``child_context``/
``record_span`` no-ops, what library code pays when it threads contexts
unconditionally) and a live span enter/exit including deterministic id
derivation — so a regression in either is visible in the CI log before
it is felt in a run.

Run:  python benchmarks/check_telemetry_overhead.py [--budget 0.03]
          [--audit-budget 0.05]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.core.config import GreenGpuConfig
from repro.core.policies import GreenGpuPolicy
from repro.sim.platform import make_testbed
from repro.telemetry import NOOP

TICKS = 50_000
TRIALS = 7
PAIRS = 70
PAIR_TICKS = 5_000


def bench_baseline() -> float:
    """Bare loop cost, subtracted from the probe measurement."""
    t0 = time.perf_counter()
    for _ in range(TICKS):
        pass
    return time.perf_counter() - t0


def bench_probes() -> float:
    """The exact per-tick probe sequence of a clean sink-less scaling tick."""
    self = GreenGpuPolicy(config=GreenGpuConfig()).make_controller(None)
    self.attach(make_testbed())
    t0 = time.perf_counter()
    for _ in range(TICKS):
        if self._traced:                    # _scale_card: card report
            pass
        observer = self.observer            # _apply_gpu_frequencies
        retry = self._retry
        if self._report_tick is not None:   # _scaling_tick: tick report
            pass
    elapsed = time.perf_counter() - t0
    self.detach()
    return elapsed


def bench_noop_trace() -> float:
    """The disabled facade's tracing surface, per call triple."""
    t0 = time.perf_counter()
    for _ in range(TICKS):
        context = NOOP.current_context()
        NOOP.child_context("tick")
        NOOP.record_span(context, "tick", wall_s=0.0)
    return time.perf_counter() - t0


def bench_enabled_span() -> float:
    """Live span enter/exit: stack push/pop + deterministic id derivation."""
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    t0 = time.perf_counter()
    for _ in range(TICKS):
        with telemetry.span("tick"):
            pass
    return time.perf_counter() - t0


def bench_timer() -> float:
    """Cost of the timer pair :func:`bench_tick` puts around each tick,
    over ``PAIR_TICKS`` ticks."""
    clock = time.perf_counter
    elapsed = 0.0
    for _ in range(PAIR_TICKS):
        t0 = clock()
        elapsed += clock() - t0
    return elapsed


def bench_tick(audit: bool = False) -> float:
    """``PAIR_TICKS`` real clean scaling ticks: monitor query, WMA step,
    actuate + verify.

    Between ticks, and outside the timing, the GPU advances one scaling
    interval, so each tick reads a fresh sample.  Raises if any tick was
    not a fresh WMA decision.
    """
    from repro.telemetry.audit import AuditTrail

    controller = GreenGpuPolicy(config=GreenGpuConfig()).make_controller(
        None, audit=AuditTrail() if audit else None
    )
    system = make_testbed()
    controller.attach(system)
    interval = controller.config.scaling_interval_s
    tick = controller._scaling_tick
    advance = system.gpu.advance
    clock = time.perf_counter
    elapsed = 0.0
    for i in range(1, PAIR_TICKS + 1):
        advance(interval)
        t0 = clock()
        tick(i * interval)
        elapsed += clock() - t0
    decisions = controller.scaler.decisions
    monitor_faults = controller.health.monitor_faults
    controller.detach()
    if decisions != PAIR_TICKS or monitor_faults != 0:
        raise RuntimeError(
            f"timed {PAIR_TICKS} ticks but {decisions} were WMA decisions and "
            f"{monitor_faults} hit a monitor fault"
        )
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=0.03,
                        help="allowed fractional overhead (default 0.03)")
    parser.add_argument("--audit-budget", type=float, default=0.05,
                        help="allowed audit-enabled tick overhead "
                             "(default 0.05)")
    args = parser.parse_args(argv)

    baseline = min(bench_baseline() for _ in range(TRIALS))
    probes = min(bench_probes() for _ in range(TRIALS))
    noop_trace = min(bench_noop_trace() for _ in range(TRIALS))
    enabled_span = min(bench_enabled_span() for _ in range(TRIALS))
    timer = min(bench_timer() for _ in range(TRIALS))
    ticks, ratios = [], []
    for pair_index in range(PAIRS):
        order = (False, True) if pair_index % 2 == 0 else (True, False)
        pair = {audit: bench_tick(audit=audit) - timer for audit in order}
        ticks.append(pair[False])
        ratios.append(pair[True] / pair[False])
    # Per-tick seconds: the probe loops run TICKS, each tick run PAIR_TICKS.
    tick = min(ticks) / PAIR_TICKS
    audit_ratio = statistics.median(ratios)
    probe_cost = max(probes - baseline, 0.0) / TICKS
    overhead = probe_cost / (tick - probe_cost)
    audit_overhead = audit_ratio - 1.0

    per_tick = 1e9 / TICKS
    print(f"probe sequence : {probe_cost * 1e9:9.1f} ns/tick "
          f"(min of {TRIALS}, {TICKS} ticks)")
    print(f"noop trace api : "
          f"{max(noop_trace - baseline, 0.0) * per_tick:9.1f} ns/triple "
          f"(informational)")
    print(f"enabled span   : "
          f"{max(enabled_span - baseline, 0.0) * per_tick:9.1f} ns/span "
          f"(informational)")
    print(f"scaling tick   : {tick * 1e9:9.1f} ns/tick "
          f"(min of {PAIRS}, {PAIR_TICKS} ticks)")
    print(f"audited tick   : {tick * audit_ratio * 1e9:9.1f} ns/tick "
          f"(plain x median of {PAIRS} paired ratios)")
    print(f"disabled-telemetry overhead: {overhead:+.2%} "
          f"(budget {args.budget:.0%})")
    print(f"audit-trail overhead       : {audit_overhead:+.2%} "
          f"(budget {args.audit_budget:.0%})")
    failed = False
    if overhead >= args.budget:
        print("FAIL: disabled telemetry exceeds the overhead budget",
              file=sys.stderr)
        failed = True
    if audit_overhead >= args.audit_budget:
        print("FAIL: the audit trail exceeds its per-tick budget",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
