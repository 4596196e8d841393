"""The datacenter power-cap coordinator (the fleet's planning brain).

On every coordination tick the :class:`PowerCapCoordinator` turns one
global power budget into one wall-power cap per node.  It is
**demand-model-driven**: rather than reading measured power back from
thousands of node simulations (which would serialize the fleet through
the coordinator every tick), it runs a central *fluid* model of the
fleet — per-node backlog in peak-seconds of work, arrivals from the
scenario's load wave, service speed linear in granted headroom, burst
racks degraded to floor speed — and allocates against the modeled
demand.  The output is a complete :class:`CapPlan`: every node's cap at
every tick, fixed before any node simulation starts.

That open-loop split is what makes the fleet shardable and cacheable:
a node simulation depends only on (scenario, node id, its cap column),
never on its siblings, so shards can run in isolated workers and
node results can be content-addressed.  The price is model error — the
fluid model's backlog drifts from the simulated one — but caps are
enforced as conservative frequency ceilings, so model error costs only
efficiency, never a violation.

Slack reclamation falls out of the demand model: an idle node's demand
collapses to its floor, the allocator sees the donated headroom, and
bursting nodes borrow it the same tick.  The plan keeps allocating past
the scenario end (the *drain horizon*) while modeled backlog remains,
so demand-aware allocators keep steering the budget at exactly the time
the fleet is racing to idle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.extensions.hardware_table import hardware_entry
from repro.fleet.allocators import Allocator, NodeDemand, get_allocator
from repro.fleet.node import NodePowerProfile
from repro.fleet.scenario import FleetScenario

#: Modeled backlog below this (seconds of peak work) counts as drained.
_BACKLOG_EPS_S = 1e-9

#: The drain horizon is bounded: planning stops after this many times the
#: scenario's own window count even if modeled backlog remains (the node
#: simulations then finish draining under their final caps).
_MAX_DRAIN_FACTOR = 6


@dataclass(frozen=True)
class TickStats:
    """Coordinator bookkeeping for one tick (audit + property tests)."""

    tick: int
    t: float
    budget_w: float
    total_cap_w: float
    total_demand_w: float
    backlogged_nodes: int
    donated_slack_w: float

    def to_dict(self) -> dict:
        return {
            "tick": self.tick, "t": self.t, "budget_w": self.budget_w,
            "total_cap_w": self.total_cap_w,
            "total_demand_w": self.total_demand_w,
            "backlogged_nodes": self.backlogged_nodes,
            "donated_slack_w": self.donated_slack_w,
        }


@dataclass(frozen=True)
class CapPlan:
    """A complete fleet cap schedule: ``caps[tick][node_id]`` in watts.

    ``scheduled_windows`` ticks cover the scenario duration plus the
    drain horizon; every node simulation executes the full schedule.
    """

    allocator: str
    interval_s: float
    scenario_windows: int
    caps: tuple[tuple[float, ...], ...]
    stats: tuple[TickStats, ...] = field(repr=False)

    @property
    def n_ticks(self) -> int:
        return len(self.caps)

    @property
    def n_nodes(self) -> int:
        return len(self.caps[0]) if self.caps else 0

    def caps_for(self, node_id: int) -> list[float]:
        """One node's cap column across all scheduled ticks."""
        return [row[node_id] for row in self.caps]


class PowerCapCoordinator:
    """Plans a :class:`CapPlan` for one scenario + allocator (module docs)."""

    def __init__(self, scenario: FleetScenario,
                 allocator: Allocator | str) -> None:
        self.scenario = scenario
        self.allocator = (get_allocator(allocator)
                          if isinstance(allocator, str) else allocator)
        # One profile per hardware class; nodes share by catalog key.
        by_key = {
            key: NodePowerProfile.from_config(hardware_entry(key).make_config())
            for key, _ in scenario.hardware_mix
        }
        self.profiles: list[NodePowerProfile] = [
            by_key[scenario.node_hardware(node_id)]
            for node_id in range(scenario.n_nodes)
        ]
        self._total_floor_w = sum(p.floor_w for p in self.profiles)
        self._total_headroom_w = sum(p.peak_w - p.floor_w
                                     for p in self.profiles)
        self._burst_racks = frozenset(scenario.burst_racks())

    # -- the budget ------------------------------------------------------------

    def budget_at(self, t: float) -> float:
        """Global budget in watts at time ``t``: the fleet's floor draw
        plus the scheduled fraction of its total headroom."""
        frac = self.scenario.budget_frac_at(t)
        return self._total_floor_w + frac * self._total_headroom_w

    # -- the fluid demand model ------------------------------------------------

    def _in_burst(self, node_id: int, t: float) -> bool:
        if self.scenario.rack_of(node_id) not in self._burst_racks:
            return False
        return any(start <= t < start + duration
                   for start, duration
                   in self.scenario.fault_burst_windows)

    def _demand(self, node_id: int, backlog_s: float,
                t: float) -> NodeDemand:
        """One node's modeled demand: the cap that clears its backlog
        within one window, floor when idle or stalled by a burst."""
        profile = self.profiles[node_id]
        if backlog_s <= _BACKLOG_EPS_S or self._in_burst(node_id, t):
            # Idle (or pinned to floor clocks by a thermal burst): any
            # headroom would be wasted, so the node donates it all.
            demand_w = profile.floor_w
        else:
            wanted_speed = min(1.0, backlog_s
                               / self.scenario.coordination_interval_s)
            span = 1.0 - profile.floor_speed
            share = (0.0 if span <= 0.0
                     else (wanted_speed - profile.floor_speed) / span)
            share = min(1.0, max(0.0, share))
            demand_w = (profile.floor_w
                        + share * (profile.peak_w - profile.floor_w))
        return NodeDemand(node_id=node_id, floor_w=profile.floor_w,
                          peak_w=profile.peak_w, demand_w=demand_w,
                          efficiency=profile.efficiency)

    def plan(self) -> CapPlan:
        """Run the fluid model tick by tick and emit the full cap plan."""
        scenario = self.scenario
        interval = scenario.coordination_interval_s
        n_windows = scenario.n_windows
        max_ticks = max(n_windows, 1) * _MAX_DRAIN_FACTOR
        backlogs = [0.0] * scenario.n_nodes
        rows: list[tuple[float, ...]] = []
        stats: list[TickStats] = []

        tick = 0
        while tick < max_ticks:
            t = tick * interval
            if tick < n_windows:
                for node_id in range(scenario.n_nodes):
                    backlogs[node_id] += scenario.load(node_id, tick) * interval
            elif all(b <= _BACKLOG_EPS_S for b in backlogs):
                break  # scenario over and the modeled fleet is drained

            demands = [self._demand(node_id, backlogs[node_id], t)
                       for node_id in range(scenario.n_nodes)]
            budget_w = self.budget_at(t)
            caps = self.allocator.allocate(demands, budget_w)
            if len(caps) != len(demands):
                raise ConfigError(
                    f"allocator {self.allocator.name!r} returned "
                    f"{len(caps)} caps for {len(demands)} nodes"
                )
            rows.append(tuple(caps))

            donated = sum(d.peak_w - d.demand_w
                          for d in demands if d.want_w <= 0.0)
            stats.append(TickStats(
                tick=tick, t=t, budget_w=budget_w,
                total_cap_w=sum(caps),
                total_demand_w=sum(d.demand_w for d in demands),
                backlogged_nodes=sum(1 for b in backlogs
                                     if b > _BACKLOG_EPS_S),
                donated_slack_w=donated,
            ))

            for node_id, cap_w in enumerate(caps):
                profile = self.profiles[node_id]
                speed = (profile.floor_speed if self._in_burst(node_id, t)
                         else profile.speed_at(cap_w))
                backlogs[node_id] = max(
                    0.0, backlogs[node_id] - speed * interval
                )
            tick += 1

        return CapPlan(
            allocator=self.allocator.name,
            interval_s=interval,
            scenario_windows=n_windows,
            caps=tuple(rows),
            stats=tuple(stats),
        )
