"""Fault injection and hardening primitives.

The robustness layer of the reproduction: seeded fault plans
(:mod:`~repro.faults.injector`), faulty monitor/actuator wrappers
(:mod:`~repro.faults.wrappers`), bounded retry with capped backoff
(:mod:`~repro.faults.retry`) and the controller health record
(:mod:`~repro.faults.health`).

See the "Fault model & degradation ladder" section of
``docs/architecture.md`` for how the hardened controller composes these.
"""

from repro.faults.health import ControlHealth
from repro.faults.injector import (
    FAULT_KIND_RATES,
    FAULT_PROFILES,
    FaultInjector,
    FaultPlan,
    fault_profile,
)
from repro.faults.retry import BackoffState, RetryPolicy, call_with_retry
from repro.faults.wrappers import (
    FaultyCpuStat,
    FaultyGpuActuator,
    FaultyNvidiaSmi,
)

__all__ = [
    "FAULT_KIND_RATES",
    "FAULT_PROFILES",
    "BackoffState",
    "ControlHealth",
    "FaultInjector",
    "FaultPlan",
    "FaultyCpuStat",
    "FaultyGpuActuator",
    "FaultyNvidiaSmi",
    "RetryPolicy",
    "call_with_retry",
    "fault_profile",
]
