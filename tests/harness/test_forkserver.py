"""The forkserver's preload: a forked worker runs no module body.

Every job target runs in a forked worker and must import no ``repro``
module the server had not loaded; the parent's main module runs once in
the parent and once in the server, never once per attempt; and a served
miss still equals a direct run byte for byte.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

import repro.fleet.shard
import repro.harness.suite_jobs
import repro.service.jobs
from repro.fleet import make_scenario
from repro.harness.attempt import SUCCESS, Attempt, wait_any
from repro.harness.suite_jobs import SUITE_ARTIFACTS
from repro.harness.worker import write_artifact
from repro.service.config import ServiceConfig
from repro.service.jobs import run_simulation
from repro.service.models import JOB_TARGET
from repro.service.testing import ServiceThread
from repro.telemetry.tracecontext import TraceContext

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))
TARGET_MODULES = (repro.service.jobs, repro.harness.suite_jobs,
                  repro.fleet.shard)
SUITE = "repro.harness.suite_jobs"
FAST = 0.01
#: ``{tmp}`` in a kwarg becomes the test's temporary directory.
SIM = {"workload": "kmeans", "policy": "greengpu", "n_iterations": 1,
       "time_scale": FAST}
POINT = {"workload": "kmeans", "r": 0.3, "n_iterations": 1,
         "time_scale": FAST}
TARGET_KWARGS = {
    JOB_TARGET: [SIM, {**SIM, "telemetry_dir": "{tmp}", "job_name": "job",
                       "traceparent": TraceContext.root("t").to_traceparent()}],
    **{f"{SUITE}:run_{name}": [{"time_scale": FAST}]
       for name in SUITE_ARTIFACTS},
    f"{SUITE}:run_sweep_point": [POINT, {**POINT, "telemetry_dir": "{tmp}"}],
    f"{SUITE}:run_artifact_module": [{"name": name}
                                     for name in SUITE_ARTIFACTS],
    f"{SUITE}:run_chaos_pair": [{"workload": "kmeans", "time_scale": FAST,
                                 "n_iterations": 2, "seed": 1,
                                 "stall_s": 0.01}],
    "repro.fleet.shard:run_shard": [{
        "scenario": make_scenario("diurnal", n_nodes=2).to_dict(),
        "allocator": "uniform-cap", "node_lo": 0, "node_hi": 2}],
}
CASES = [(target, kwargs) for target, cases in TARGET_KWARGS.items()
         for kwargs in cases]


def test_every_job_target_has_a_case():
    targets = {f"{module.__name__}:{name}"
               for module in TARGET_MODULES
               for name, fn in inspect.getmembers(module, inspect.isfunction)
               if name.startswith("run_") and fn.__module__ == module.__name__}
    assert targets == set(TARGET_KWARGS)


@pytest.mark.parametrize("target,kwargs", CASES,
                         ids=[f"{t.rpartition(':')[2]}-{i}"
                              for i, (t, _) in enumerate(CASES)])
def test_forked_worker_imports_no_repro_module(tmp_path, target, kwargs):
    kwargs = {key: value.format(tmp=tmp_path) if isinstance(value, str)
              else value for key, value in kwargs.items()}
    attempt = Attempt("imports", "repro.harness._testjobs:imports_of",
                      {"target": target, "kwargs": kwargs},
                      str(tmp_path / "job.json"))
    while (outcome := attempt.poll()) is None:
        wait_any([attempt])
    assert outcome.kind == SUCCESS, outcome.error
    assert outcome.payload["imported"] == []


MAIN_BODY = """
import os, sys
with open(os.environ["MAIN_LOG"], "a", encoding="utf-8") as log:
    log.write(f"{os.getpid()}\\n")
if __name__ == "__main__":
    from repro.harness.attempt import SUCCESS, Attempt, wait_any
    for i in range(3):
        attempt = Attempt(f"job{i}", "repro.harness._testjobs:ok",
                          {"value": i}, os.path.join(sys.argv[1], f"{i}.json"))
        while (outcome := attempt.poll()) is None:
            wait_any([attempt])
        assert outcome.kind == SUCCESS, outcome
"""


@pytest.mark.parametrize("how", ["module", "script"])
def test_parent_main_runs_once_in_the_server_not_per_attempt(tmp_path, how):
    (tmp_path / "mainmod.py").write_text(MAIN_BODY, encoding="utf-8")
    log = tmp_path / "runs.log"
    env = dict(os.environ, MAIN_LOG=str(log),
               PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)]))
    main = (["-m", "mainmod"] if how == "module"
            else [str(tmp_path / "mainmod.py")])
    proc = subprocess.run([sys.executable, *main, str(tmp_path)], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = log.read_text(encoding="utf-8").split()
    assert len(runs) == 2, runs  # the parent, then the forkserver
    assert len(set(runs)) == 2


SYS_PATH_BODY = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.harness.attempt import Attempt, wait_any
attempt = Attempt("imports", "repro.harness._testjobs:imports_of",
                  {"target": sys.argv[3], "kwargs": json.loads(sys.argv[4])},
                  sys.argv[2])
while (outcome := attempt.poll()) is None:
    wait_any([attempt])
print(json.dumps(outcome.payload))
"""


def test_preload_reaches_repro_through_a_run_time_sys_path_edit(tmp_path):
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", SYS_PATH_BODY, SRC, str(tmp_path / "job.json"),
         JOB_TARGET, json.dumps(SIM)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"imported": []}


def test_served_miss_equals_a_direct_run_byte_for_byte(tmp_path):
    job = {"workload": "hotspot", "policy": "scaling-only", "iterations": 2,
           "time_scale": 0.02}
    config = ServiceConfig(port=0, workers=1, job_timeout_s=60.0)
    with ServiceThread(config, str(tmp_path / "run")) as svc:
        client = svc.client()
        status, body, _ = client.submit(**job)
        assert status == 202, body
        done = client.wait(body["job_id"], timeout_s=60)
        client.close()
    assert done["phase"] == "done" and not done["served_from_cache"]
    direct = run_simulation(job["workload"], job["policy"],
                            job["iterations"], job["time_scale"])
    assert done["result"] == direct
    served = tmp_path / "run" / "artifacts" / f"{done['job_id']}.json"
    expected = tmp_path / "direct.json"
    write_artifact(str(expected), done["job_id"], JOB_TARGET, direct)
    assert served.read_bytes() == expected.read_bytes()
