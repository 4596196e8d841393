"""The benchmark's own tests, on a few ops per workload (``--quick``).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.served import ServedJobs, ServedOut
from perfbench.workloads import FleetCaps, PaperRuns, SweepGrid

ROOT = run.ROOT
IN_PROCESS = {"paper_runs": PaperRuns, "sweep_grid": SweepGrid,
              "fleet_caps": FleetCaps}


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_metrics_match_the_code():
    spec = declared()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result = bench(workload, trace)
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == names
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_model_and_count_metrics_repeat_for_a_seed():
    first, second = (bench("fleet_caps", 1, seed=3)["metrics"] for _ in range(2))
    for name, unit in run.PER_LAYER.items():
        if unit == "count" or name.startswith("model."):
            assert first[name] == second[name], name
    assert first["fleet.violation_ticks"]["value"] == 0
    assert first["model.sim_energy_j"]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_gives_one_op_sequence(workload, tmp_path):
    def ops(seed):
        if workload == "served_jobs":
            made = ServedJobs(seed, str(tmp_path), "")
        else:
            made = IN_PROCESS[workload](seed, str(tmp_path))
        return made.make_ops(made.n_ops(15))

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


# -- a corrupted output counts as a failed op ----------------------------


def failures(workload, ops, corrupt) -> int:
    """Failed ops of a pass whose outputs ``corrupt`` tampers with."""
    clean = workload.run_op
    workload.run_op = lambda op: corrupt(clean(op))
    return run.timed_pass(workload, ops).failed


def test_paper_runs_checker(tmp_path):
    workload = PaperRuns(1, str(tmp_path))
    workload.start()
    op = {"program": "pathfinder", "iterations": 3}
    assert run.timed_pass(workload, [op]).failed == 0

    def energy(result):
        result.gpu_energy_j += 1.0
        return result

    def ratio(result):
        result.final_ratio += 0.01
        return result

    assert failures(PaperRuns(1, str(tmp_path)), [op], energy) == 1
    assert failures(workload, [op], ratio) == 1    # differs from its first run


def test_sweep_grid_checker(tmp_path):
    workload = SweepGrid(1, str(tmp_path))
    workload.start()
    op = {"program": "pathfinder", "probe": 4}

    def lane(out):
        out.result.outcomes["r=0.2000"].payload["energy_j"] *= 1.001
        return out

    assert run.timed_pass(workload, [op]).failed == 0
    assert failures(workload, [op], lane) == 1


def test_fleet_caps_checker(tmp_path):
    workload = FleetCaps(1, str(tmp_path))
    op = {"scenario": "diurnal", "allocator": "uniform-cap", "nodes": 8,
          "fleet_seed": 5}
    assert run.timed_pass(workload, [op]).failed == 0
    for change in ({"violation_ticks": 1},
                   {"measured_energy_j": 1.0}):
        assert failures(FleetCaps(1, str(tmp_path)), [op],
                        lambda out: dataclasses.replace(out, **change)) == 1


def test_served_jobs_checker(tmp_path):
    from repro.service.jobs import run_simulation

    workload = ServedJobs(1, str(tmp_path), "")
    job = {"workload": "pathfinder", "policy": "greengpu", "iterations": 3,
           "time_scale": 0.02}
    payload = run_simulation("pathfinder", "greengpu", 3, 0.02)
    fresh = {"kind": "fresh", "fresh": 0, "job": job}
    repeat = {"kind": "repeat", "fresh": 0, "job": job}
    bodies = iter([payload, payload, {**payload, "total_s": 0.0},
                   {**payload, "total_energy_j": 1.0}])
    workload.run_op = lambda op: ServedOut(
        {"job_id": "job-1", "phase": "done", "result": next(bodies)}, 0.0)
    assert run.timed_pass(workload, [fresh, repeat]).failed == 0
    assert run.timed_pass(workload, [repeat]).failed == 1   # hit != its miss
    assert run.timed_pass(workload, [fresh]).failed == 1    # miss != direct run
