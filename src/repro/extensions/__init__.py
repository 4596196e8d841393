"""Extensions beyond the paper's evaluated system.

Each module here implements something the paper *sketches, emulates or
defers to future work*, built on the same substrate so it can be compared
against the published design:

- :mod:`repro.extensions.hardware_table` — the §VI on-chip implementation
  sketch: an 8-bit fixed-point weight table ("8-bit precision is accurate
  enough for the purpose of picking up the largest weight"), verified
  against the floating-point controller.
- :mod:`repro.extensions.gpu_dvfs` — GPU voltage-and-frequency scaling.
  The 8800 GTX could only scale frequency; the paper notes "If DVFS is
  enabled, we expect more energy saving can be achieved from frequency
  scaling" (§VII-C).  This module adds a V(f) GPU power model and
  quantifies that expectation.
- :mod:`repro.extensions.async_comm` — *measured* CPU+GPU scaling with
  asynchronous host-device communication, replacing the paper's Fig. 6c
  emulation (their benchmarks spin the CPU, defeating ondemand).
- :mod:`repro.extensions.coupled` — the coupled-tier alternative the
  paper rejects in §IV, so the decoupling argument can be tested.
- :mod:`repro.extensions.tuner` — offline grid search over the hand-tuned
  alpha/beta/phi (the paper's stated future direction: "currently we
  derive alpha, beta, and phi from manual tuning ... which could be our
  future direction").

Several GPU cards ("one pthread for one GPU", §VI) are not an extension
module: ``TestbedConfig.extra_gpus`` adds cards to the one platform, and
the core controller and :class:`~repro.core.division.WorkloadDivider`
run any number of them.
"""

from repro.extensions.hardware_table import QuantizedWeightTable, QuantizedWmaScaler
from repro.extensions.gpu_dvfs import dvfs_gpu_spec, dvfs_savings_comparison
from repro.extensions.async_comm import measured_async_savings
from repro.extensions.coupled import CoupledController, compare_coupling
from repro.extensions.tuner import TuningResult, grid_search_wma_params

__all__ = [
    "QuantizedWeightTable",
    "QuantizedWmaScaler",
    "dvfs_gpu_spec",
    "dvfs_savings_comparison",
    "measured_async_savings",
    "CoupledController",
    "compare_coupling",
    "grid_search_wma_params",
    "TuningResult",
]
