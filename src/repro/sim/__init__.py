"""Simulated GPU-CPU heterogeneous testbed.

This subpackage replaces the paper's physical testbed (GeForce 8800 GTX +
AMD Phenom II + two WattsUp Pro meters) with an analytic simulator that
exposes the same observable and actuable surface the GreenGPU daemon used
on real hardware:

- discrete core/memory frequency ladders (``nvidia-settings`` equivalent),
- per-domain utilization counters (``nvidia-smi`` equivalent),
- CPU P-states with DVFS (cpufreq equivalent),
- wall-power sampling on two meter boundaries (WattsUp equivalent).

See DESIGN.md §1 for the substitution rationale.
"""

# Version of the simulation engine's *numerical behavior*.  Bump on any
# change that can alter a run's results (power models, roofline timing,
# meter integration, event ordering) — it is folded into every
# content-addressed cache key (repro.cache) so stale results can never be
# served across engine revisions.  Pure-speed refactors that are proven
# bit-identical (the paired-oracle test) do not need a bump.
ENGINE_SCHEMA_VERSION = 2

from repro.sim.frequency import FrequencyLadder
from repro.sim.perf import ExecutionEstimate, RooflineModel
from repro.sim.power import CpuPowerModel, GpuPowerModel
from repro.sim.gpu import GpuDevice, GpuSpec
from repro.sim.cpu import CpuDevice, CpuSpec
from repro.sim.bus import PcieBus
from repro.sim.meter import PowerMeter
from repro.sim.engine import SimClock
from repro.sim.platform import HeteroSystem, TestbedConfig, make_testbed
from repro.sim.trace import Trace, TraceRecorder

__all__ = [
    "ENGINE_SCHEMA_VERSION",
    "FrequencyLadder",
    "ExecutionEstimate",
    "RooflineModel",
    "CpuPowerModel",
    "GpuPowerModel",
    "GpuDevice",
    "GpuSpec",
    "CpuDevice",
    "CpuSpec",
    "PcieBus",
    "PowerMeter",
    "SimClock",
    "HeteroSystem",
    "TestbedConfig",
    "make_testbed",
    "Trace",
    "TraceRecorder",
]
