"""The in-process workloads: ``paper_runs``, ``sweep_grid``, ``fleet_caps``.

Each op calls the program's public API exactly as its CLI path does.
Op lists are built in balanced blocks, so every seed runs the same
multiset of inputs in a different order: seeds change the order, not
the amount of work, and the run-to-run spread stays a timing spread.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import time
from dataclasses import dataclass
from typing import Any

from perfbench.measure import Tracer, self_peak_rss_mb
from repro.analysis.serialize import result_to_dict
from repro.cache import ResultCache, run_key
from repro.core.policies import GreenGpuPolicy, StaticPolicy
from repro.experiments.common import scaled_config, scaled_options, scaled_workload
from repro.extensions.hardware_table import validate_all
from repro.fleet import make_scenario
from repro.fleet.coordinator import PowerCapCoordinator
from repro.fleet.node import FleetNode
from repro.fleet.sim import aggregate, run_fleet
from repro.harness.journal import JOURNAL_NAME, Journal, read_journal
from repro.harness.suite_jobs import sweep_prefetch, sweep_specs
from repro.harness.supervisor import run_jobs
from repro.runtime import HeteroExecutor, run_workload
from repro.runtime.batch_executor import BatchExecutor, RunRequest
from repro.sim import TraceRecorder, make_testbed
from repro.telemetry import Telemetry
from repro.workloads.characteristics import workload_names

PROGRAMS = tuple(workload_names())  # the nine Table II programs
TIME_SCALE = 0.25


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def _digest(data: Any) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def balanced(rng: random.Random, block: list, n_ops: int) -> list:
    """``block`` repeated in independently shuffled copies, cut to ``n_ops``."""
    out: list = []
    while len(out) < n_ops:
        copy = list(block)
        rng.shuffle(copy)
        out.extend(copy)
    return out[:n_ops]


class Workload:
    """One closed-loop workload with a single caller.

    ``block`` is the size of a balanced block; runs use whole blocks.
    ``ops_per_s`` sizes a run: ``--seconds`` times it, rounded to whole
    blocks, is the op count, fixed for given arguments whatever the
    host's speed.
    """

    name = ""
    block = 1
    ops_per_s = 1.0
    min_ops = 100          # p90 then has ten samples beyond it
    warmup_ops = 2
    ref_every = 1          # reference sample before every n-th op
    #: How far op times follow the reference kernel's slow-downs
    #: (see :func:`perfbench.measure.at_reference_speed`).
    ref_elasticity = 1.0

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.counts: dict[str, float] = {}

    def n_ops(self, seconds: float) -> int:
        blocks = max(math.ceil(self.min_ops / self.block),
                     round(seconds * self.ops_per_s / self.block))
        return blocks * self.block

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- life cycle (overridden where a workload owns a process) ------

    def launch_to_ready(self, command: list[str]) -> float:
        """Seconds from launch until a fresh process running ``command``
        (import, set up, warm up) prints ``ready``."""
        t0 = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        return seconds

    def start(self) -> None:
        os.makedirs(self.work_dir, exist_ok=True)

    def warmup(self, ops: list[dict[str, Any]]) -> None:
        for op in ops[:self.warmup_ops]:
            self.release(self.run_op(op))

    def restart(self) -> None:
        """Fresh state for a second pass over the same ops."""

    def stop(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    # -- ops ------------------------------------------------------------

    def make_ops(self, n_ops: int) -> list[dict[str, Any]]:
        raise NotImplementedError

    def run_op(self, op: dict[str, Any]) -> Any:
        raise NotImplementedError

    def traced_op(self, op: dict[str, Any], index: int, tracer: Tracer) -> Any:
        with tracer.span("op", index):
            return self.run_op(op)

    def check(self, op: dict[str, Any], out: Any) -> None:
        """Raise :class:`CheckFailed` unless ``out`` is right; untimed."""

    def replay(self, op: dict[str, Any], index: int, out: Any,
               tracer: Tracer) -> None:
        """Traced pass only: time single layers on this op's inputs."""

    def release(self, out: Any) -> None:
        """Drop what an op left on disk; untimed."""

    def model_totals(self, out: Any) -> tuple[float, float]:
        """(simulated energy J, simulated time s) of one op's output."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        return {}


# -- paper_runs -----------------------------------------------------------


class PaperRuns(Workload):
    """One uncached ``run_workload`` of the GreenGPU policy per op."""

    name = "paper_runs"
    block = 27             # 9 programs x 3 iteration counts
    ops_per_s = 20.0
    warmup_ops = 3
    ITERATIONS = (3, 4, 5)

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self._first: dict[tuple[str, int], str] = {}

    def make_ops(self, n_ops):
        combos = [{"program": p, "iterations": it}
                  for p in PROGRAMS for it in self.ITERATIONS]
        return balanced(self.rng, combos, n_ops)

    def run_op(self, op):
        return run_workload(
            scaled_workload(op["program"], TIME_SCALE),
            GreenGpuPolicy(config=scaled_config(TIME_SCALE)),
            n_iterations=op["iterations"],
            options=scaled_options(TIME_SCALE),
        )

    def check(self, op, out):
        if not math.isclose(out.gpu_energy_j + out.cpu_energy_j,
                            out.total_energy_j, rel_tol=1e-9):
            raise CheckFailed(f"GPU + CPU energy != total for {op}")
        digest = _digest(result_to_dict(out))
        first = self._first.setdefault((op["program"], op["iterations"]), digest)
        if digest != first:
            raise CheckFailed(f"repeat of {op} differs from its first run")

    def traced_op(self, op, index, tracer):
        """``run_workload``'s body, driven from here with telemetry on so
        the testbed build, each iteration, and the program's own tick
        spans can be timed apart.  The route stays the scalar engine."""
        workload = scaled_workload(op["program"], TIME_SCALE)
        policy = GreenGpuPolicy(config=scaled_config(TIME_SCALE))
        with tracer.span("op", index):
            with tracer.span("sim.testbed", index):
                system = make_testbed()
            tel = Telemetry()
            tel.set_base_labels(workload=workload.name, policy=policy.name)
            tel.bind_clock(system.clock)
            system.clock.set_telemetry(tel)
            policy.apply_initial_state(system)
            controller = policy.make_controller(TraceRecorder(), telemetry=tel)
            controller.attach(system)
            system.reset_meters()
            executor = HeteroExecutor(system, workload, controller,
                                      scaled_options(TIME_SCALE), telemetry=tel)
            iteration_spans = []
            try:
                for k in range(op["iterations"]):
                    with tracer.span("runtime.iteration", index) as span:
                        executor.run_iteration(k)
                    iteration_spans.append(span)
            finally:
                controller.detach()
                system.clock.set_telemetry(None)
                system.finalize_meters()
        return _TracedRun(system.total_energy_j, system.now, tel,
                          iteration_spans)

    def replay(self, op, index, out, tracer):
        _graft_program_spans(tracer, out.telemetry.events,
                             out.iteration_spans, index)
        for counter in out.telemetry.registry.counters():
            if counter.name == "repartitions_total":
                self.count("runtime.repartitions", counter.value)

    def model_totals(self, out):
        return out.total_energy_j, out.total_s

    def layer_metrics(self, tracer):
        return {
            "sim.testbed_ms": tracer.per_op_ms("sim.testbed"),
            "runtime.iteration_ms": tracer.per_op_ms("runtime.iteration"),
            "core.scaling_tick_ms": tracer.per_op_ms("core.scaling_tick"),
            "core.ondemand_tick_ms": tracer.per_op_ms("core.ondemand_tick"),
            "sim.clock_task_ms": tracer.per_op_ms("sim.clock_task"),
            "core.scaling_ticks": tracer.count("core.scaling_tick"),
            "core.ondemand_ticks": tracer.count("core.ondemand_tick"),
            "sim.clock_dispatches": tracer.count("sim.clock_task"),
            "runtime.repartitions": self.counts.get("runtime.repartitions", 0),
            "runtime.lanes": tracer.count("op"),
        }


@dataclass
class _TracedRun:
    """A traced ``paper_runs`` op: its totals, and the program's telemetry
    to graft once the op's timing has stopped."""

    total_energy_j: float
    total_s: float
    telemetry: Telemetry
    iteration_spans: list[int | None]


#: The program's span names that become benchmark layers, and as what.
#: A controller tick keeps its own monitor/WMA/actuation sub-spans.
_PROGRAM_LAYERS = {
    "clock_task": "sim.clock_task",
    "scaling_tick": "core.scaling_tick",
    "ondemand_tick": "core.ondemand_tick",
}


def _graft_program_spans(tracer: Tracer, events: list[dict], iteration_spans:
                         list[int | None], op: int) -> None:
    """Hang the program's clock-task and tick spans under the benchmark's
    span of the iteration they ran in.  Program spans carry the unix
    clock; only their durations enter self times."""
    spans = [e for e in events if e.get("type") == "span"]
    children: dict[str, list[dict]] = {}
    for event in spans:
        children.setdefault(event["parent_id"], []).append(event)

    def graft(event: dict, parent: int | None) -> None:
        for child in children.get(event["span_id"], ()):
            layer = _PROGRAM_LAYERS.get(child["name"])
            if layer is None:
                continue
            t0 = child.get("t_unix0", 0.0)
            index = tracer.add(layer, op, t0, t0 + child["wall_s"], parent)
            graft(child, index)

    program_iterations = [e for e in spans if e["name"] == "iteration"]
    for event, parent in zip(program_iterations, iteration_spans):
        graft(event, parent)


# -- sweep_grid -----------------------------------------------------------


RATIOS = tuple(round(0.05 * i, 4) for i in range(21))
#: Twice the CLI's default: with more simulation per point, the per-point
#: fsyncs (whose latency the shared disk sets, not the CPU) are a smaller
#: share of an op.
SWEEP_ITERATIONS = 16


@dataclass
class _SweepOut:
    op_dir: str
    result: Any
    cache: ResultCache


#: hotspot's sweep costs over twice any other program's; with it in the
#: rotation, p90 would sit on the edge of a one-in-nine mode.
SWEEP_PROGRAMS = tuple(p for p in PROGRAMS if p != "hotspot")


def _lane_policy(r: float):
    """The static policy ``sweep_divisions`` runs at ratio ``r``."""
    return StaticPolicy(0, 0, ratio=r, name=f"static-division-{r:.2f}")


class SweepGrid(Workload):
    """One cold ``greengpu sweep`` (21 ratios) per op, on disk."""

    name = "sweep_grid"
    block = len(SWEEP_PROGRAMS)
    # Twice the ops a run would otherwise take: the shared disk's fsync
    # latency wanders within a run, and more ops average more of it.
    ops_per_s = 12.0

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self._serial = 0

    def make_ops(self, n_ops):
        ops = balanced(self.rng, [{"program": p} for p in SWEEP_PROGRAMS], n_ops)
        return [{**op, "probe": self.rng.randrange(len(RATIOS))} for op in ops]

    def run_op(self, op):
        self._serial += 1
        op_dir = os.path.join(self.work_dir, f"sweep-{self._serial:05d}")
        program = op["program"]
        cache = ResultCache(os.path.join(op_dir, "cache"))
        result = run_jobs(
            sweep_specs(program, list(RATIOS), SWEEP_ITERATIONS, TIME_SCALE),
            os.path.join(op_dir, "run"), isolate=False, cache=cache,
            prefetch=sweep_prefetch(program, SWEEP_ITERATIONS, TIME_SCALE),
        )
        return _SweepOut(op_dir, result, cache)

    def check(self, op, out):
        payloads = out.result.payloads
        if not out.result.report.ok or len(payloads) != len(RATIOS) \
                or out.cache.stores != len(RATIOS):
            raise CheckFailed(f"sweep of {op['program']} incomplete: "
                              f"{out.result.report.summary_line()}")
        r = RATIOS[op["probe"]]
        scalar = run_workload(
            scaled_workload(op["program"], TIME_SCALE),
            _lane_policy(r),
            n_iterations=SWEEP_ITERATIONS, options=scaled_options(TIME_SCALE),
        )
        want = {"r": r, "energy_j": scalar.total_energy_j,
                "time_s": scalar.total_s}
        if payloads.get(f"r={r:.4f}") != want:
            raise CheckFailed(f"sweep lane r={r} of {op['program']} differs "
                              f"from a scalar run_workload")

    def replay(self, op, index, out, tracer):
        program = op["program"]
        grid = [
            RunRequest(
                workload=scaled_workload(program, TIME_SCALE),
                policy=_lane_policy(r),
                n_iterations=SWEEP_ITERATIONS,
                options=scaled_options(TIME_SCALE),
            )
            for r in RATIOS
        ]
        with tracer.span("sim.batch", index):
            results = BatchExecutor().run_many(grid)
        self.count("runtime.lanes", len(results))
        self.count("runtime.batch_lanes",
                   sum(1 for r in results if r.engine == "batch"))
        cache = ResultCache(os.path.join(out.op_dir, "replay-cache"))
        for request, r in zip(grid, RATIOS):
            with tracer.span("cache.key", index):
                key = run_key(request.workload, request.policy,
                              request.n_iterations, request.options)
            payload = {"payload": out.result.payloads[f"r={r:.4f}"]}
            with tracer.span("cache.put", index):
                cache.put(key, payload)
        records = read_journal(os.path.join(out.op_dir, "run", JOURNAL_NAME))
        with Journal(os.path.join(out.op_dir, "replay-journal.jsonl")) as journal:
            for record in records:
                fields = dict(record)
                event = fields.pop("event")
                with tracer.span("harness.journal", index):
                    journal.record(event, **fields)

    def release(self, out):
        shutil.rmtree(out.op_dir, ignore_errors=True)
        # Commit the deletions now: left dirty, they would ride along with
        # the next op's first fsync and bill one op's clean-up to the next.
        os.sync()

    def model_totals(self, out):
        payloads = [out.result.payloads[f"r={r:.4f}"] for r in RATIOS]
        return (sum(p["energy_j"] for p in payloads),
                sum(p["time_s"] for p in payloads))

    def layer_metrics(self, tracer):
        batch_ms = tracer.per_op_ms("sim.batch")
        return {
            "sim.batch_ms": batch_ms,
            "cache.key_ms": tracer.per_op_ms("cache.key"),
            "cache.put_ms": tracer.per_op_ms("cache.put"),
            "harness.journal_ms": tracer.per_op_ms("harness.journal"),
            "harness.overhead_ms": tracer.per_op_ms("op") - batch_ms,
            "runtime.lanes": self.counts.get("runtime.lanes", 0),
            "runtime.batch_lanes": self.counts.get("runtime.batch_lanes", 0),
        }


# -- fleet_caps -----------------------------------------------------------


SCENARIOS = ("diurnal", "rolling-caps", "fault-bursts")
ALLOCATORS = ("uniform-cap", "proportional-share", "efficiency-weighted")
FLEET_SIZES = tuple(range(8, 17))  # one of each per block of nine ops


class FleetCaps(Workload):
    """One inline ``run_fleet`` of a small seeded fleet per op."""

    name = "fleet_caps"
    block = len(SCENARIOS) * len(ALLOCATORS)
    ops_per_s = 8.0

    def make_ops(self, n_ops):
        combos = [{"scenario": s, "allocator": a}
                  for s in SCENARIOS for a in ALLOCATORS]
        ops = balanced(self.rng, combos, n_ops)
        sizes = balanced(self.rng, list(FLEET_SIZES), n_ops)
        return [{**op, "nodes": n, "fleet_seed": self.rng.randrange(2 ** 31)}
                for op, n in zip(ops, sizes)]

    @staticmethod
    def scenario(op):
        # Racks of four put several racks in even the smallest fleet, so
        # fault-bursts has racks to stall.
        return make_scenario(op["scenario"], op["nodes"], seed=op["fleet_seed"],
                             budget_frac=0.35, nodes_per_rack=4)

    def run_op(self, op):
        return run_fleet(self.scenario(op), op["allocator"])

    def traced_op(self, op, index, tracer):
        with tracer.span("op", index):
            scenario = self.scenario(op)
            validate_all()
            with tracer.span("fleet.plan", index):
                plan = PowerCapCoordinator(scenario, op["allocator"]).plan()
            records = []
            for node_id in range(scenario.n_nodes):
                with tracer.span("fleet.node", index):
                    node = FleetNode(node_id, scenario)
                    records.append(node.run(plan.caps_for(node_id)).to_dict())
            with tracer.span("fleet.aggregate", index):
                return aggregate(scenario, plan, records)

    def replay(self, op, index, out, tracer):
        self.count("fleet.violation_ticks", out.violation_ticks)
        self.count("fleet.faults_injected", out.faults_injected)
        self.count("fleet.plan_ticks", out.plan_ticks)
        self.count("runtime.lanes", out.n_nodes)

    def check(self, op, out):
        if out.violation_ticks != 0:
            raise CheckFailed(f"{out.violation_ticks} cap violations in {op}")
        node_sum = sum(node["energy_j"] for node in out.nodes)
        if not math.isclose(node_sum, out.measured_energy_j, rel_tol=1e-12):
            raise CheckFailed(f"node energies do not sum to the fleet's in {op}")

    def model_totals(self, out):
        return out.energy_j, out.makespan_s

    def layer_metrics(self, tracer):
        return {
            "fleet.plan_ms": tracer.per_op_ms("fleet.plan"),
            "fleet.node_ms": tracer.per_op_ms("fleet.node"),
            "fleet.aggregate_ms": tracer.per_op_ms("fleet.aggregate"),
            "fleet.violation_ticks": self.counts.get("fleet.violation_ticks", 0),
            "fleet.faults_injected": self.counts.get("fleet.faults_injected", 0),
            "fleet.plan_ticks": self.counts.get("fleet.plan_ticks", 0),
            "runtime.lanes": self.counts.get("runtime.lanes", 0),
        }
