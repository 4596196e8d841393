"""One fleet node: a real simulated testbed under a power cap.

A :class:`FleetNode` is the full GreenGPU stack in miniature — a
:class:`~repro.sim.platform.HeteroSystem` built from a hardware-catalog
entry, driven by its own :class:`~repro.core.controller.GreenGpuController`
in frequency-scaling-only mode (tier 1 makes no sense for independent
nodes), optionally wrapped in the node's seeded fault injector.

The coordinator talks to nodes in **watts**; nodes enforce caps in
**ladder levels**.  :func:`ceiling_for_cap` is the translation: the
least-restrictive frequency-ladder pair whose *worst-case* wall draw
(:func:`~repro.extensions.hardware_table.wall_power_bound_w`) fits the
cap.  Because the bound is a true upper bound, a node honouring its
ceiling can never exceed its cap — violation ticks measure that
guarantee rather than hope for it.

:class:`NodePowerProfile` is the coordinator-facing summary of a node
class: floor/peak wall watts, marginal perf per watt of headroom (what
the efficiency-weighted allocator ranks by), and the modeled service
speed as a function of the granted cap (what the coordinator's fluid
demand model runs on).  It needs only the :class:`TestbedConfig`, so the
coordinator can plan a 1000-node fleet without instantiating a single
simulated device.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from repro.core.config import GreenGpuConfig
from repro.core.controller import GreenGpuController, TierMode
from repro.errors import ConfigError
from repro.extensions.hardware_table import (
    floor_wall_power_w,
    hardware_entry,
    peak_wall_power_w,
    wall_power_bound_w,
)
from repro.faults.injector import FaultInjector
from repro.sim.activity import KernelActivity, PhaseDemand
from repro.sim.platform import HeteroSystem, TestbedConfig

#: Slack when comparing measured window power against the cap: the
#: ceiling bound is conservative, so anything past this is a real breach.
_VIOLATION_EPS_W = 1e-6

#: Meter sample logs are bounded on fleet nodes — a thousand nodes each
#: keeping every 1 Hz window would dominate memory for data nobody reads.
_FLEET_SAMPLE_LOG_CAP = 8


def ceiling_for_cap(config: TestbedConfig,
                    cap_w: float) -> tuple[int, int]:
    """Least-restrictive ladder ceiling whose worst-case draw fits the cap.

    Walks the diagonal of the (core, mem) ladder grid from the peak pair
    down — the WMA scaler's own preference order under pressure — and
    returns the first pair whose :func:`wall_power_bound_w` is within
    ``cap_w``.  Falls back to the ladder floors if even they exceed the
    cap (the allocators never grant below the floor bound, so that case
    means the cap itself was infeasible).
    """
    return _ceiling_on(_diagonal_bounds(config), cap_w)


def _diagonal_bounds(
    config: TestbedConfig,
) -> tuple[tuple[tuple[int, int], float], ...]:
    """Each ladder-diagonal pair, peak first, with its wall-power bound.

    The last pair is every card's ladder floors.
    """
    gpus = (config.gpu, *config.extra_gpus)
    n_core = max(len(gpu.core_ladder) for gpu in gpus)
    n_mem = max(len(gpu.mem_ladder) for gpu in gpus)
    pairs = [(min(k, n_core - 1), min(k, n_mem - 1))
             for k in range(max(n_core, n_mem))]
    return tuple((pair, wall_power_bound_w(config, *pair)) for pair in pairs)


def _ceiling_on(bounds: tuple[tuple[tuple[int, int], float], ...],
                cap_w: float) -> tuple[int, int]:
    """The first pair of ``bounds`` that fits ``cap_w``, else the floors."""
    for pair, bound_w in bounds:
        if bound_w <= cap_w + _VIOLATION_EPS_W:
            return pair
    return bounds[-1][0]


@dataclass(frozen=True)
class NodePowerProfile:
    """Coordinator-facing power summary of one node class (see module docs)."""

    floor_w: float
    peak_w: float
    #: Marginal throughput per watt of headroom (flop/s per W).
    efficiency: float
    #: GPU service speed at the ladder floors, as a fraction of peak.
    floor_speed: float

    @classmethod
    def from_config(cls, config: TestbedConfig) -> "NodePowerProfile":
        floor_w = floor_wall_power_w(config)
        peak_w = peak_wall_power_w(config)
        gpu = config.gpu
        floor_speed = gpu.core_ladder.floor / gpu.core_ladder.peak
        headroom = max(peak_w - floor_w, 1e-9)
        gained = gpu.peak_compute_rate * (1.0 - floor_speed)
        return cls(floor_w=floor_w, peak_w=peak_w,
                   efficiency=gained / headroom, floor_speed=floor_speed)

    def speed_at(self, cap_w: float) -> float:
        """Modeled service speed (fraction of peak) under a wall cap.

        Linear in granted headroom between the floor and peak bounds —
        the fluid analogue of clocks scaling with the power budget.
        """
        if self.peak_w <= self.floor_w:
            return 1.0
        share = (cap_w - self.floor_w) / (self.peak_w - self.floor_w)
        share = min(1.0, max(0.0, share))
        return self.floor_speed + (1.0 - self.floor_speed) * share


@dataclass(frozen=True)
class NodeResult:
    """One node's measured outcome, JSON-ready for shard payloads."""

    node_id: int
    rack: int
    hardware: str
    energy_j: float
    #: Simulated time at which the node's backlog fully drained.
    busy_end_s: float
    #: Wall power of the drained node at its resting clocks (idle-tail rate).
    idle_power_w: float
    violation_ticks: int
    windows: int
    submitted_work_s: float
    faults_injected: int
    degraded_entries: int

    def to_dict(self) -> dict:
        return asdict(self)


class FleetNode:
    """One simulated node executing its cap schedule (see module docs)."""

    def __init__(self, node_id: int, scenario) -> None:
        self.node_id = node_id
        self.scenario = scenario
        self.hardware = scenario.node_hardware(node_id)
        self.config = hardware_entry(self.hardware).make_config(
            sample_log_cap=_FLEET_SAMPLE_LOG_CAP
        )
        self.system = HeteroSystem(self.config)
        plan = scenario.fault_plan_for(node_id)
        self.injector = FaultInjector(plan) if plan is not None else None
        self.controller = GreenGpuController(
            mode=TierMode.SCALING_ONLY,
            config=GreenGpuConfig(scaling_interval_s=3.0,
                                  ondemand_interval_s=1.0),
            faults=self.injector,
        )
        self.controller.attach(self.system)
        # The bounds depend only on the node's hardware: computed once,
        # not once per coordination window.
        self._ceiling_bounds = _diagonal_bounds(self.config)
        self._compute_frac, self._mem_frac = scenario.node_mix(node_id)
        self._cap_w = float("inf")
        self._violation_ticks = 0
        self._windows_run = 0
        self._submitted_work_s = 0.0

    # -- cap enforcement -------------------------------------------------------

    @property
    def cap_w(self) -> float:
        return self._cap_w

    def apply_cap(self, cap_w: float) -> tuple[int, int]:
        """Translate a wall-power cap into the controller's ladder ceiling."""
        if cap_w <= 0.0:
            raise ConfigError(f"node {self.node_id}: cap must be positive")
        self._cap_w = cap_w
        ceiling = _ceiling_on(self._ceiling_bounds, cap_w)
        self.controller.set_level_ceiling(*ceiling)
        return ceiling

    # -- workload --------------------------------------------------------------

    def submit_window(self, load: float, window_s: float) -> float:
        """Queue one coordination window's offered work on the GPU.

        ``load`` is the offered utilization in [0, 1]: the kernel is
        sized to keep the GPU's bound resource busy for ``load *
        window_s`` seconds *at peak clocks*.  Under a cap it takes
        longer, and the surplus persists naturally as FIFO backlog.
        """
        duration = load * window_s
        if duration <= 0.0:
            return 0.0
        gpu = self.config.gpu
        self.system.gpu.submit_kernel(KernelActivity(
            [PhaseDemand(
                flops=duration * self._compute_frac * gpu.peak_compute_rate,
                bytes=duration * self._mem_frac * gpu.peak_bandwidth,
            )],
            label=f"fleet-n{self.node_id}",
        ))
        self._submitted_work_s += duration
        return duration

    def run_window(self, window_s: float) -> float:
        """Advance one coordination window; tally a cap violation if the
        window's average wall power exceeded the cap in force."""
        e0 = self.system.total_energy_j
        self.system.run_for(window_s)
        avg_w = (self.system.total_energy_j - e0) / window_s
        if avg_w > self._cap_w + _VIOLATION_EPS_W:
            self._violation_ticks += 1
        self._windows_run += 1
        return avg_w

    def drain(self, timeout_s: float) -> None:
        """Run the backlog to empty (the node's race to idle)."""
        self.system.run_until_devices_idle(timeout_s=timeout_s)

    # -- the full schedule -----------------------------------------------------

    def run(self, caps_w: Sequence[float],
            drain_timeout_s: float | None = None) -> NodeResult:
        """Execute one cap per coordination window, then drain and settle.

        ``caps_w`` may extend past the scenario's own windows (the
        coordinator's drain horizon); arrivals stop at the scenario end
        but caps keep being enforced while the backlog drains.
        """
        scenario = self.scenario
        window_s = scenario.coordination_interval_s
        for window, cap_w in enumerate(caps_w):
            self.apply_cap(cap_w)
            if window < scenario.n_windows:
                self.submit_window(scenario.load(self.node_id, window),
                                   window_s)
            self.run_window(window_s)
        if drain_timeout_s is None:
            drain_timeout_s = 40.0 * scenario.duration_s + 120.0
        self.drain(drain_timeout_s)
        return self.finish()

    def finish(self) -> NodeResult:
        """Detach, flush the meters, and report the node's outcome."""
        self.system.finalize_meters()
        health = self.controller.health
        self.controller.detach()
        return NodeResult(
            node_id=self.node_id,
            rack=self.scenario.rack_of(self.node_id),
            hardware=self.hardware,
            energy_j=self.system.total_energy_j,
            busy_end_s=self.system.now,
            idle_power_w=self.system.idle_system_power(),
            violation_ticks=self._violation_ticks,
            windows=self._windows_run,
            submitted_work_s=self._submitted_work_s,
            faults_injected=(self.injector.total_injected
                             if self.injector is not None else 0),
            degraded_entries=health.degraded_entries,
        )
