#!/usr/bin/env python3
"""Tour of the extensions: everything the paper sketched but never ran.

1. the §VI 8-bit on-chip weight table vs the software controller;
2. a DVFS-capable GPU (the §VII-C "we expect more energy saving" claim);
3. measured — not emulated — CPU throttling with async communication;
4. tier-1 division across multiple GPUs;
5. auto-tuned WMA parameters vs the paper's hand-tuned ones.

Usage:
    python examples/beyond_the_paper.py
"""

from repro.core.config import GreenGpuConfig
from repro.core.division import WorkloadDivider
from repro.core.wma import WmaFrequencyScaler
from repro.extensions.async_comm import measured_async_savings
from repro.extensions.gpu_dvfs import dvfs_savings_comparison
from repro.extensions.hardware_table import QuantizedWmaScaler
from repro.extensions.tuner import grid_search_wma_params
from repro.sim.calibration import geforce_8800_gtx_spec
from repro.units import to_mhz


def hardware_table_demo() -> None:
    print("1. §VI hardware sketch — 8-bit fixed-point weight table")
    spec = geforce_8800_gtx_spec()
    quantized = QuantizedWmaScaler(spec.core_ladder, spec.mem_ladder)
    floating = WmaFrequencyScaler(spec.core_ladder, spec.mem_ladder)
    print(f"   table storage: {quantized.table.storage_bytes} bytes "
          f"(paper's figure: 36 bytes)")
    for u in ((0.6, 0.25), (0.85, 0.15)):
        quantized.table.reset(); floating.reset()
        for _ in range(20):
            dq = quantized.step(*u)
            df = floating.step(*u)
        print(f"   u={u}: 8-bit picks core L{dq.core_level}/mem L{dq.mem_level}, "
              f"float picks core L{df.core_level}/mem L{df.mem_level}")
    print("   -> agreement within 1-2 levels; the blur always errs fast.\n")


def dvfs_demo() -> None:
    print("2. GPU DVFS — the §VII-C expectation, quantified")
    for name in ("pathfinder", "bfs"):
        c = dvfs_savings_comparison(name, time_scale=0.15, n_iterations=3)
        print(f"   {name:11s}: frequency-only {c.saving_frequency_only:6.1%} -> "
              f"DVFS {c.saving_dvfs:6.1%}  (advantage {c.dvfs_advantage:+.1%})")
    print("   -> voltage scaling multiplies savings where throttling happens.\n")


def async_demo() -> None:
    print("3. Measured async CPU throttling (the real Fig. 6c)")
    r = measured_async_savings("kmeans", time_scale=0.15, n_iterations=3)
    print(f"   paper-style emulation : {r.emulated_saving:6.1%}")
    print(f"   actually measured     : {r.measured_saving:6.1%} "
          f"(ondemand reached the lowest P-state: {r.cpu_floor_reached})\n")


def multigpu_demo() -> None:
    print("4. Tier-1 division over several GPUs — one pthread per GPU (§VI)")
    names = ["cpu", "gpu0", "gpu1", "gpu2"]
    unit_times = [5.0, 1.0, 1.2, 1.4]
    divider = WorkloadDivider(GreenGpuConfig(division_step=0.02), cards=3)
    for _ in range(200):
        divider.update(*(s * t for s, t in zip(divider.shares, unit_times)))
    finish = [s * t for s, t in zip(divider.shares, unit_times)]
    for name, share, t in zip(names, divider.shares, finish):
        print(f"   {name:5s}: {share:6.1%} of the work "
              f"(finishes in {t:.3f} relative time)")
    print(f"   finish-time imbalance: {max(finish) / min(finish):.2f}x "
          f"(1.00 = perfect)")

    # The same algorithm on the full co-simulated platform: extra cards
    # come from the testbed config, and the controller divides over all.
    import dataclasses

    from repro.core.policies import GreenGpuPolicy
    from repro.experiments.common import (
        scaled_config,
        scaled_options,
        scaled_workload,
    )
    from repro.runtime.executor import simulate
    from repro.sim.calibration import default_testbed_config
    from repro.sim.platform import HeteroSystem

    scale = 0.05
    times = {}
    for n_gpus in (1, 2):
        system = HeteroSystem(dataclasses.replace(
            default_testbed_config(),
            extra_gpus=tuple(geforce_8800_gtx_spec() for _ in range(n_gpus - 1)),
        ))
        result = simulate(
            scaled_workload("kmeans", scale),
            GreenGpuPolicy(config=scaled_config(scale)),
            n_iterations=8,
            system=system,
            options=scaled_options(scale),
        )
        times[n_gpus] = result.total_s
    print(f"   co-simulated kmeans: 1 GPU {times[1]:.1f} s -> "
          f"2 GPUs {times[2]:.1f} s "
          f"({times[1] / times[2]:.2f}x faster)\n")


def tuner_demo() -> None:
    print("5. Auto-tuning alpha/beta/phi (the paper's future work)")
    result = grid_search_wma_params(
        workloads=["kmeans", "pathfinder"], time_scale=0.05, n_iterations=2
    )
    paper = result.point_for(GreenGpuConfig())
    best = result.best
    assert paper is not None
    print(f"   paper's hand-tuned point: saving {paper.mean_saving:6.1%}, "
          f"slowdown {paper.mean_slowdown:5.1%}")
    print(f"   grid-search winner      : saving {best.mean_saving:6.1%}, "
          f"slowdown {best.mean_slowdown:5.1%} "
          f"(alpha_c={best.alpha_core}, alpha_m={best.alpha_mem}, phi={best.phi})")
    print("   -> the published point is near-optimal under its own "
          "slowdown budget.")


def main() -> None:
    hardware_table_demo()
    dvfs_demo()
    async_demo()
    multigpu_demo()
    tuner_demo()


if __name__ == "__main__":
    main()
