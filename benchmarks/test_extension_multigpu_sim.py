"""Extension bench: full multi-GPU co-simulation scaling.

Measures how the complete GreenGPU stack (per-card WMA + ondemand + tier-1
division) scales from one to three cards on kmeans.  The cards come from
``TestbedConfig.extra_gpus``; the run holds its controller so it can read
the final per-card shares before detaching.
"""

import dataclasses
from types import SimpleNamespace

from repro.core.policies import GreenGpuPolicy
from repro.experiments.common import scaled_config, scaled_options, scaled_workload
from repro.runtime.executor import HeteroExecutor
from repro.sim.calibration import default_testbed_config, geforce_8800_gtx_spec
from repro.sim.platform import HeteroSystem

TIME_SCALE = 0.05


def _run(n_gpus: int):
    system = HeteroSystem(dataclasses.replace(
        default_testbed_config(),
        extra_gpus=tuple(geforce_8800_gtx_spec() for _ in range(n_gpus - 1)),
    ))
    policy = GreenGpuPolicy(config=scaled_config(TIME_SCALE))
    policy.apply_initial_state(system)
    controller = policy.make_controller()
    controller.attach(system)
    HeteroExecutor(
        system, scaled_workload("kmeans", TIME_SCALE), controller,
        scaled_options(TIME_SCALE),
    ).run(10)
    result = SimpleNamespace(total_s=system.now, final_shares=controller.shares)
    controller.detach()
    return result


def test_extension_multigpu_scaling(run_once, benchmark):
    def sweep():
        return {n: _run(n) for n in (1, 2, 3)}

    results = run_once(sweep)
    benchmark.extra_info["time_by_gpu_count"] = {
        str(n): round(r.total_s, 2) for n, r in results.items()
    }
    benchmark.extra_info["final_shares"] = {
        str(n): [round(s, 3) for s in r.final_shares] for n, r in results.items()
    }

    # More cards -> shorter runs (work divides further).
    assert results[2].total_s < results[1].total_s
    assert results[3].total_s < results[2].total_s
    # Identical cards split their portion roughly evenly.
    shares3 = results[3].final_shares[1:]
    assert max(shares3) - min(shares3) <= 0.101
