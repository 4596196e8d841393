"""Execution policies: GreenGPU and every baseline the paper compares.

A :class:`Policy` is what an experiment hands to the runtime: it fixes the
initial device frequencies, the initial (or pinned) division ratio, and
optionally constructs a live :class:`GreenGpuController`.

The paper's comparison set (§VII):

- **Rodinia default** — all work on the GPU, all frequencies at peak
  ("The default runtime configuration of Rodinia is that all the workloads
  are allocated to the GPU and all the frequencies are at their peak
  levels").  This is the baseline of the 21.04 % headline number.
- **Best-performance** — both GPU domains pinned at peak (576/900 MHz);
  the baseline for the tier-2 evaluation (Fig. 6).
- **Frequency-scaling only** — tier 2 active, division pinned.
- **Division only** — tier 1 active, frequencies pinned at peak.
- **GreenGPU** — both tiers active (the holistic solution).
- **Static** — arbitrary pinned frequency levels and ratio; the building
  block of the Fig. 1 / Fig. 2 sweeps and the oracle search.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GreenGpuConfig
from repro.core.controller import GreenGpuController, TierMode
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector, FaultPlan
from repro.sim.platform import HeteroSystem
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class Policy:
    """Base policy: pinned frequencies and ratio, no live control.

    ``gpu_core_level`` / ``gpu_mem_level`` / ``cpu_level`` are ladder
    indices (0 = peak); ``None`` leaves the device's current setting.
    ``fault_plan`` optionally injects seeded monitor/actuator/device
    faults into the run (see :mod:`repro.faults`); the controller built
    by :meth:`make_controller` is hardened against them.
    """

    name: str = "static"
    mode: TierMode = TierMode.NONE
    ratio: float = 0.0
    gpu_core_level: int | None = 0
    gpu_mem_level: int | None = 0
    cpu_level: int | None = 0
    config: GreenGpuConfig | None = None
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"ratio must be in [0, 1], got {self.ratio}")

    def apply_initial_state(self, system: HeteroSystem) -> None:
        """Pin the requested initial frequencies on the testbed's devices."""
        for gpu in system.gpus:
            core = gpu.core_level if self.gpu_core_level is None else self.gpu_core_level
            mem = gpu.mem_level if self.gpu_mem_level is None else self.gpu_mem_level
            gpu.set_levels(core, mem)
        if self.cpu_level is not None:
            system.cpu.set_frequency(system.cpu.spec.ladder[self.cpu_level])

    def make_controller(
        self,
        recorder: TraceRecorder | None = None,
        telemetry=None,
        audit=None,
    ) -> GreenGpuController:
        """Build the live controller for this policy (NONE mode = inert).

        A fresh :class:`FaultInjector` is built per controller so repeated
        runs of one policy replay the identical seeded fault stream.
        ``audit`` optionally attaches a decision
        :class:`~repro.telemetry.audit.AuditTrail`.
        """
        faults = FaultInjector(self.fault_plan) if self.fault_plan is not None else None
        return GreenGpuController(
            mode=self.mode,
            config=self.config,
            initial_ratio=self.ratio,
            recorder=recorder,
            faults=faults,
            telemetry=telemetry,
            audit=audit,
        )

    def with_faults(self, plan: FaultPlan | None) -> "Policy":
        """Copy of this policy with ``fault_plan`` replaced."""
        from dataclasses import replace

        return replace(self, fault_plan=plan)


def StaticPolicy(
    gpu_core_level: int,
    gpu_mem_level: int,
    ratio: float = 0.0,
    cpu_level: int = 0,
    name: str | None = None,
) -> Policy:
    """Pinned operating point; the Fig. 1 / Fig. 2 sweep building block."""
    return Policy(
        name=name or f"static(c{gpu_core_level},m{gpu_mem_level},r{ratio:.2f})",
        mode=TierMode.NONE,
        ratio=ratio,
        gpu_core_level=gpu_core_level,
        gpu_mem_level=gpu_mem_level,
        cpu_level=cpu_level,
    )


def RodiniaDefaultPolicy() -> Policy:
    """All work on the GPU, every frequency at peak (§VII-C baseline)."""
    return Policy(
        name="rodinia-default",
        mode=TierMode.NONE,
        ratio=0.0,
        gpu_core_level=0,
        gpu_mem_level=0,
        cpu_level=0,
    )


def BestPerformancePolicy(ratio: float = 0.0) -> Policy:
    """GPU domains pinned at peak; the Fig. 5/6 baseline."""
    return Policy(
        name="best-performance",
        mode=TierMode.NONE,
        ratio=ratio,
        gpu_core_level=0,
        gpu_mem_level=0,
        cpu_level=0,
    )


def FrequencyScalingOnlyPolicy(
    ratio: float = 0.0, config: GreenGpuConfig | None = None
) -> Policy:
    """Tier 2 only.  The GPU starts at its lowest frequencies — "the
    default case for a GPU" (paper Fig. 5 discussion) — and the WMA scaler
    ramps it up from there."""
    n_core = None  # resolved at apply time via explicit floor levels below
    del n_core
    return Policy(
        name="frequency-scaling-only",
        mode=TierMode.SCALING_ONLY,
        ratio=ratio,
        gpu_core_level=-1,   # floor (python negative indexing on the ladder)
        gpu_mem_level=-1,
        cpu_level=0,
        config=config,
    )


def DivisionOnlyPolicy(
    initial_ratio: float | None = None, config: GreenGpuConfig | None = None
) -> Policy:
    """Tier 1 only; frequencies pinned at peak."""
    cfg = config or GreenGpuConfig()
    r0 = cfg.initial_cpu_ratio if initial_ratio is None else initial_ratio
    return Policy(
        name="division-only",
        mode=TierMode.DIVISION_ONLY,
        ratio=r0,
        gpu_core_level=0,
        gpu_mem_level=0,
        cpu_level=0,
        config=cfg,
    )


def GreenGpuPolicy(
    initial_ratio: float | None = None, config: GreenGpuConfig | None = None
) -> Policy:
    """The holistic two-tier solution (division + WMA + ondemand)."""
    cfg = config or GreenGpuConfig()
    r0 = cfg.initial_cpu_ratio if initial_ratio is None else initial_ratio
    return Policy(
        name="greengpu",
        mode=TierMode.HOLISTIC,
        ratio=r0,
        gpu_core_level=-1,
        gpu_mem_level=-1,
        cpu_level=0,
        config=cfg,
    )


#: The policies the CLI and the service run by name, each built from a
#: controller config (the pinned baselines ignore it).
POLICY_FACTORIES = {
    "greengpu": lambda cfg: GreenGpuPolicy(config=cfg),
    "division-only": lambda cfg: DivisionOnlyPolicy(config=cfg),
    "scaling-only": lambda cfg: FrequencyScalingOnlyPolicy(config=cfg),
    "best-performance": lambda cfg: BestPerformancePolicy(),
    "rodinia-default": lambda cfg: RodiniaDefaultPolicy(),
}


def make_policy(name: str, config: GreenGpuConfig) -> Policy:
    """The policy registered as ``name``; unknown names are a ConfigError."""
    try:
        factory = POLICY_FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown policy {name!r}; choose from {sorted(POLICY_FACTORIES)}"
        ) from None
    return factory(config)
