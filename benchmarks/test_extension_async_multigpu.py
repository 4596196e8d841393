"""Extension benches: measured async CPU throttling and multi-GPU division.

- ``test_extension_async_comm`` replaces the paper's Fig. 6c *emulation*
  with a real asynchronous run in which `ondemand` actually throttles.
- ``test_extension_multiway_division`` scales tier 1 to the multi-GPU
  setup §VI anticipates ("one pthread for one GPU").
"""

from repro.core.config import GreenGpuConfig
from repro.core.division import WorkloadDivider
from repro.extensions.async_comm import measured_async_savings


def test_extension_async_comm(run_once, benchmark):
    result = run_once(
        measured_async_savings, "kmeans", time_scale=0.15, n_iterations=3
    )
    benchmark.extra_info["emulated_saving_pct"] = round(100 * result.emulated_saving, 2)
    benchmark.extra_info["measured_saving_pct"] = round(100 * result.measured_saving, 2)

    assert result.cpu_floor_reached
    assert result.measured_saving > 0.05
    assert abs(result.measured_saving - result.emulated_saving) < 0.06


def test_extension_multiway_division(run_once, benchmark):
    """Closed-loop convergence of tier 1 on one to four GPU cards."""

    def sweep():
        out = {}
        for n_gpus in (1, 2, 3, 4):
            # CPU 5x slower per unit; GPUs slightly heterogeneous.
            unit_times = [5.0] + [1.0 + 0.2 * i for i in range(n_gpus)]
            divider = WorkloadDivider(GreenGpuConfig(division_step=0.02),
                                      cards=n_gpus)
            for _ in range(200):
                divider.update(*(s * u for s, u
                                 in zip(divider.shares, unit_times)))
            times = [s * u for s, u in zip(divider.shares, unit_times) if s > 0.0]
            out[n_gpus] = max(times) / min(times)
        return out

    imbalances = run_once(sweep)
    benchmark.extra_info["imbalance_by_gpu_count"] = {
        str(k): round(v, 3) for k, v in imbalances.items()
    }

    # Every configuration balances to within ~1.5x between the slowest
    # and fastest device (step-quantization bound for the smallest share).
    assert all(v < 1.5 for v in imbalances.values())
    # One card is the paper's setup and balances tightly.
    assert imbalances[1] < 1.2
