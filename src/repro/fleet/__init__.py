"""Fleet-scale simulation: thousands of GreenGPU nodes under one budget.

The fleet layer sits above everything shipped so far: it instantiates N
heterogeneous nodes from the hardware catalog
(:mod:`repro.extensions.hardware_table`), runs each node's own
:class:`~repro.core.controller.GreenGpuController` on the fast-path
engine, and coordinates them under a datacenter power budget:

- :mod:`repro.fleet.allocators` — the :class:`Allocator` protocol and
  the uniform-cap, proportional-share, and efficiency-weighted budget
  allocators (all conserving: per-tick grants never exceed the budget);
- :mod:`repro.fleet.scenario` — first-class fleet scenarios (diurnal
  load waves, rolling power-cap changes, correlated rack-level fault
  bursts), all derived deterministically from one seed;
- :mod:`repro.fleet.coordinator` — the :class:`PowerCapCoordinator`:
  demand-model-driven cap planning with slack reclamation;
- :mod:`repro.fleet.node` — one simulated node: a real
  :class:`~repro.sim.platform.HeteroSystem` plus controller, with power
  caps enforced as frequency-ladder ceilings;
- :mod:`repro.fleet.sim` / :mod:`repro.fleet.shard` — the
  :class:`FleetSim` orchestrator riding the harness's isolated
  workers for sharded execution, with fleet-level telemetry merge.

Entry points: ``greengpu fleet`` (CLI) and
:func:`repro.fleet.sim.run_fleet` (API).
"""

from repro.fleet.allocators import (
    ALLOCATORS,
    Allocator,
    NodeDemand,
    get_allocator,
)
from repro.fleet.coordinator import CapPlan, PowerCapCoordinator
from repro.fleet.node import FleetNode, ceiling_for_cap
from repro.fleet.scenario import SCENARIOS, FleetScenario, make_scenario
from repro.fleet.sim import FleetResult, FleetSim, run_fleet

__all__ = [
    "ALLOCATORS",
    "Allocator",
    "CapPlan",
    "FleetNode",
    "FleetResult",
    "FleetScenario",
    "FleetSim",
    "NodeDemand",
    "PowerCapCoordinator",
    "SCENARIOS",
    "ceiling_for_cap",
    "get_allocator",
    "make_scenario",
    "run_fleet",
]
