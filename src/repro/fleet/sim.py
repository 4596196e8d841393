"""The fleet orchestrator: plan centrally, simulate in shards, merge.

:class:`FleetSim` glues the layers together for one (scenario,
allocator) pair:

1. validate the hardware catalog (one bad entry would be a silent
   fleet-wide error a thousand times over);
2. plan the full cap schedule with the
   :class:`~repro.fleet.coordinator.PowerCapCoordinator`;
3. simulate every node against its cap column — inline for small
   fleets, or as supervised harness shards (spawn isolation, resume,
   content-addressed caching) when a run directory is given;
4. merge the per-node results into one :class:`FleetResult`.

Fleet energy accounting (the number the benchmark gates)
--------------------------------------------------------

Nodes finish draining their backlog at different times, but a
datacenter's meters don't stop when one node goes idle: until the *last*
node finishes, every drained node keeps burning its idle wall power.
:func:`aggregate` therefore equalizes all nodes to the fleet makespan —
``energy + idle_power * (makespan - busy_end)`` per node — so a policy
that finishes the whole fleet sooner genuinely banks the idle-tail
energy it saved.  That is the fleet-scale version of racing to idle,
and it is exactly the margin by which the demand-aware allocators beat
the static uniform cap under a tight budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ConfigError
from repro.extensions.hardware_table import validate_all
from repro.fleet.allocators import Allocator, get_allocator
from repro.fleet.coordinator import CapPlan, PowerCapCoordinator
from repro.fleet.scenario import FleetScenario
from repro.fleet.shard import shard_name, simulate_nodes

#: Wall-clock kill deadline per shard job (generous: a shard is
#: hundreds of sequential node sims).
_SHARD_TIMEOUT_S = 1800.0


@dataclass(frozen=True)
class FleetResult:
    """Merged outcome of one fleet run (one scenario, one allocator)."""

    allocator: str
    scenario: str
    n_nodes: int
    n_racks: int
    scenario_windows: int
    plan_ticks: int
    #: Simulated time at which the last node drained its backlog.
    makespan_s: float
    #: Sum of per-node metered energy, each to its own drain end.
    measured_energy_j: float
    #: Idle-tail equalization: drained nodes idling until the makespan.
    idle_tail_energy_j: float
    violation_ticks: int
    faults_injected: int
    submitted_work_s: float
    per_rack: tuple[dict[str, Any], ...]
    nodes: tuple[dict[str, Any], ...] = field(repr=False)
    plan_stats: tuple[dict[str, Any], ...] = field(repr=False)

    @property
    def energy_j(self) -> float:
        """Fleet wall energy to the makespan (the gated headline number)."""
        return self.measured_energy_j + self.idle_tail_energy_j

    def summary(self) -> dict[str, Any]:
        """JSON-ready summary (no per-node records)."""
        return {
            "allocator": self.allocator,
            "scenario": self.scenario,
            "n_nodes": self.n_nodes,
            "n_racks": self.n_racks,
            "scenario_windows": self.scenario_windows,
            "plan_ticks": self.plan_ticks,
            "makespan_s": self.makespan_s,
            "energy_j": self.energy_j,
            "measured_energy_j": self.measured_energy_j,
            "idle_tail_energy_j": self.idle_tail_energy_j,
            "violation_ticks": self.violation_ticks,
            "faults_injected": self.faults_injected,
            "submitted_work_s": self.submitted_work_s,
            "per_rack": list(self.per_rack),
        }

    def to_dict(self, include_nodes: bool = False) -> dict[str, Any]:
        data = self.summary()
        data["plan_stats"] = list(self.plan_stats)
        if include_nodes:
            data["nodes"] = list(self.nodes)
        return data


def aggregate(scenario: FleetScenario, plan: CapPlan,
              node_records: Sequence[dict[str, Any]]) -> FleetResult:
    """Fold per-node records into one :class:`FleetResult` (module docs)."""
    if len(node_records) != scenario.n_nodes:
        raise ConfigError(
            f"fleet merge got {len(node_records)} node results for "
            f"{scenario.n_nodes} nodes (missing or duplicated shard?)"
        )
    nodes = sorted(node_records, key=lambda r: r["node_id"])
    makespan = max(r["busy_end_s"] for r in nodes)
    measured = sum(r["energy_j"] for r in nodes)
    idle_tail = sum(r["idle_power_w"] * (makespan - r["busy_end_s"])
                    for r in nodes)

    racks: dict[int, dict[str, Any]] = {}
    for record in nodes:
        rack = racks.setdefault(record["rack"], {
            "rack": record["rack"], "nodes": 0, "energy_j": 0.0,
            "violation_ticks": 0, "faults_injected": 0,
            "busy_end_s": 0.0,
        })
        rack["nodes"] += 1
        rack["energy_j"] += (record["energy_j"] + record["idle_power_w"]
                             * (makespan - record["busy_end_s"]))
        rack["violation_ticks"] += record["violation_ticks"]
        rack["faults_injected"] += record["faults_injected"]
        rack["busy_end_s"] = max(rack["busy_end_s"], record["busy_end_s"])

    return FleetResult(
        allocator=plan.allocator,
        scenario=scenario.name,
        n_nodes=scenario.n_nodes,
        n_racks=scenario.n_racks,
        scenario_windows=plan.scenario_windows,
        plan_ticks=plan.n_ticks,
        makespan_s=makespan,
        measured_energy_j=measured,
        idle_tail_energy_j=idle_tail,
        violation_ticks=sum(r["violation_ticks"] for r in nodes),
        faults_injected=sum(r["faults_injected"] for r in nodes),
        submitted_work_s=sum(r["submitted_work_s"] for r in nodes),
        per_rack=tuple(racks[rack] for rack in sorted(racks)),
        nodes=tuple(nodes),
        plan_stats=tuple(s.to_dict() for s in plan.stats),
    )


class FleetSim:
    """One fleet run, inline or sharded (see module docstring)."""

    def __init__(
        self,
        scenario: FleetScenario,
        allocator: Allocator | str,
        *,
        shards: int = 1,
        parallel: int = 1,
        run_dir: str | None = None,
        resume: bool = False,
        telemetry_dir: str | None = None,
        cache=None,
    ) -> None:
        if shards < 1:
            raise ConfigError("shards must be >= 1")
        if shards > scenario.n_nodes:
            shards = scenario.n_nodes
        if shards > 1 and run_dir is None:
            raise ConfigError("sharded execution needs a run directory")
        validate_all()
        self.scenario = scenario
        self.allocator = (get_allocator(allocator)
                          if isinstance(allocator, str) else allocator)
        self.shards = shards
        self.parallel = parallel
        self.run_dir = run_dir
        self.resume = resume
        self.telemetry_dir = telemetry_dir
        self.cache = cache
        self._plan: CapPlan | None = None
        #: Harness report of the last sharded run (None for inline runs).
        self.last_report = None

    def plan(self) -> CapPlan:
        """The coordinator's full cap schedule (computed once)."""
        if self._plan is None:
            coordinator = PowerCapCoordinator(self.scenario, self.allocator)
            self._plan = coordinator.plan()
        return self._plan

    def shard_ranges(self) -> list[tuple[int, int]]:
        """Contiguous node ranges, one per shard, covering the fleet."""
        n = self.scenario.n_nodes
        base, remainder = divmod(n, self.shards)
        ranges = []
        lo = 0
        for index in range(self.shards):
            hi = lo + base + (1 if index < remainder else 0)
            ranges.append((lo, hi))
            lo = hi
        return ranges

    def shard_specs(self) -> list:
        """Harness :class:`JobSpec` list for a supervised sharded run."""
        from repro.cache import job_key
        from repro.harness.job import JobSpec

        target = "repro.fleet.shard:run_shard"
        common: dict[str, Any] = {
            "scenario": self.scenario.to_dict(),
            "allocator": self.allocator.name,
        }
        if self.telemetry_dir is not None:
            common["telemetry_dir"] = self.telemetry_dir
        specs = []
        for lo, hi in self.shard_ranges():
            kwargs = {**common, "node_lo": lo, "node_hi": hi}
            specs.append(JobSpec(
                name=shard_name(lo, hi),
                target=target,
                kwargs=kwargs,
                timeout_s=_SHARD_TIMEOUT_S,
                # A telemetry-exporting shard has filesystem side effects
                # a cache hit would silently skip; only plain shards key.
                cache_key=None if self.telemetry_dir is not None
                else job_key(target, kwargs),
            ))
        return specs

    def run(self, progress=None) -> FleetResult | None:
        """Execute the fleet; None if a sharded run was interrupted.

        Inline runs (no run directory) call the same
        :func:`~repro.fleet.shard.simulate_nodes` path the spawned shard
        workers use, so the two modes are bit-identical.  After a
        sharded run, :attr:`last_report` holds the harness report
        (errors, resume/cache counts); an interrupted or incomplete run
        returns None rather than a partial fleet.
        """
        plan = self.plan()
        if self.run_dir is None:
            records = simulate_nodes(self.scenario, plan, 0,
                                     self.scenario.n_nodes)
            return aggregate(self.scenario, plan, records)

        from repro.harness.supervisor import run_jobs

        result = run_jobs(
            self.shard_specs(), self.run_dir,
            parallel=self.parallel, resume=self.resume,
            progress=progress, cache=self.cache,
        )
        self.last_report = result.report
        if result.report.interrupted or not result.report.ok:
            return None
        records: list[dict[str, Any]] = []
        for payload in result.payloads.values():
            records.extend(payload["nodes"])
        return aggregate(self.scenario, plan, records)


def run_fleet(scenario: FleetScenario, allocator: Allocator | str,
              **kwargs: Any) -> FleetResult:
    """Convenience wrapper: build a :class:`FleetSim`, run it, return the
    merged result (raises if a sharded run did not complete)."""
    sim = FleetSim(scenario, allocator, **kwargs)
    result = sim.run()
    if result is None:
        report = sim.last_report
        detail = report.summary_line() if report is not None else "no report"
        raise ConfigError(f"fleet run did not complete: {detail}")
    return result
