"""The ``served_jobs`` workload: a ``greengpu serve`` daemon and one client.

The daemon runs in its own process with its default config (spawn-
isolated workers, journal, cache), so it shares neither the load
generator's GIL nor its reference samples.  Each launch gets a fresh
run directory and cache.  The token bucket is raised so the single
client is never throttled.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

from perfbench.measure import Tracer, proc_peak_rss_mb
from perfbench.workloads import PROGRAMS, CheckFailed, Workload, balanced
from repro.harness.journal import JOURNAL_NAME, Journal, read_journal
from repro.service.client import ServiceClient
from repro.service.jobs import run_simulation

POLICIES = ("greengpu", "scaling-only", "division-only")
ITERATIONS = 3
#: Client poll interval while a job runs (ServiceClient.wait uses 50 ms).
POLL_S = 0.005
READY_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "expired", "cancelled")
#: Outside the ops' time-scale range, so warming up never pre-caches an op.
WARMUP_JOB = {"workload": "kmeans", "policy": "greengpu",
              "iterations": ITERATIONS, "time_scale": 0.06}

_PORT_LINE = re.compile(rb"greengpu service: http://[^:]+:(\d+)")
_PROM_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


@dataclass
class ServedOut:
    body: dict[str, Any]
    seen_unix: float        # when the client saw the job terminal


class ServedJobs(Workload):
    """Blocks of one fresh and three repeat submissions (see README)."""

    name = "served_jobs"
    block = 4
    ops_per_s = 6.0
    ref_every = 4          # one reference sample per block
    # Most of an op runs in other processes (daemon, spawned worker) and
    # in the kernel creating them; full scaling over-corrected it, and
    # half-scaling gave the smallest run-to-run spread (see README).
    ref_elasticity = 0.5

    def __init__(self, seed: int, work_dir: str, src_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.src_dir = src_dir
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None
        self.run_dir = ""
        self._launches = 0
        self._payloads: dict[int, Any] = {}
        self._job_ops: dict[str, int] = {}
        self._server_s: list[float] = []
        self._observe_s: list[float] = []
        self._direct_s: list[float] = []

    # -- ops ------------------------------------------------------------

    def make_ops(self, n_ops):
        picks = balanced(self.rng, [(p, pol) for p in PROGRAMS for pol in POLICIES],
                         n_ops // self.block)
        fresh, seen = [], set()
        for program, policy in picks:
            while True:
                time_scale = round(self.rng.uniform(0.01, 0.05), 4)
                if (program, policy, time_scale) not in seen:
                    break
            seen.add((program, policy, time_scale))
            fresh.append({"workload": program, "policy": policy,
                          "iterations": ITERATIONS, "time_scale": time_scale})
        ops = []
        for b, job in enumerate(fresh):
            kinds = ["fresh", "repeat", "repeat", "repeat"]
            if b:
                self.rng.shuffle(kinds)
            placed = False
            for kind in kinds:
                if kind == "fresh":
                    placed = True
                    ops.append({"kind": "fresh", "fresh": b, "job": job})
                else:
                    j = self.rng.randrange(b + 1 if placed else b)
                    ops.append({"kind": "repeat", "fresh": j, "job": fresh[j]})
        return ops

    def run_op(self, op):
        return self._submit(op, Tracer(enabled=False), -1)

    def traced_op(self, op, index, tracer):
        with tracer.span("op", index):
            return self._submit(op, tracer, index)

    def _submit(self, op, tracer: Tracer, index: int) -> ServedOut:
        assert self.client is not None
        name = "service.admit" if op["kind"] == "fresh" else "service.hit"
        with tracer.span(name, index):
            status, body, _ = self.client.submit(**op["job"])
        if status not in (200, 202):
            raise CheckFailed(f"POST /jobs returned {status}: {body}")
        deadline = time.monotonic() + JOB_TIMEOUT_S
        with tracer.span("service.poll", index):
            while body.get("phase") not in TERMINAL:
                if time.monotonic() > deadline:
                    raise CheckFailed(f"job {body.get('job_id')} not terminal")
                time.sleep(POLL_S)
                status, body, _ = self.client.status(body["job_id"])
                if status != 200:
                    raise CheckFailed(f"GET /jobs returned {status}: {body}")
        return ServedOut(body, time.time())

    def check(self, op, out):
        if out.body.get("phase") != "done":
            raise CheckFailed(f"job ended {out.body.get('phase')}: "
                              f"{out.body.get('error')}")
        payload = out.body.get("result")
        if op["kind"] == "repeat":
            if payload != self._payloads.get(op["fresh"]):
                raise CheckFailed("a hit's payload differs from its miss's")
            return
        job = op["job"]
        t0 = time.perf_counter()
        direct = run_simulation(job["workload"], job["policy"],
                                job["iterations"], job["time_scale"])
        self._direct_s.append(time.perf_counter() - t0)
        if payload != direct:
            raise CheckFailed("a miss differs from a direct run_simulation")
        self._payloads[op["fresh"]] = payload

    def replay(self, op, index, out, tracer):
        self._job_ops[out.body["job_id"]] = index
        if op["kind"] == "fresh":
            body = out.body
            self._server_s.append(body["finished_unix"] - body["submitted_unix"])
            self._observe_s.append(out.seen_unix - body["finished_unix"])

    def model_totals(self, out):
        result = out.body["result"]
        return result["total_energy_j"], result["total_s"]

    def warmup(self, ops):
        for kind in ("fresh", "repeat"):
            self.run_op({"kind": kind, "job": WARMUP_JOB})

    # -- the daemon -----------------------------------------------------

    def _launch(self) -> float:
        """Start a daemon on a fresh run dir and cache; seconds to ready."""
        self._launches += 1
        base = os.path.join(self.work_dir, f"daemon-{self._launches}")
        os.makedirs(base)
        self.run_dir = os.path.join(base, "run")
        log_path = os.path.join(base, "daemon.log")
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        t0 = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--run-dir", self.run_dir,
                 "--cache-dir", os.path.join(base, "cache"),
                 "--rate-per-tenant", "1000", "--burst-per-tenant", "1000"],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=base,
            )
        port = None
        while port is None:
            with open(log_path, "rb") as log:
                match = _PORT_LINE.search(log.read())
            if match:
                port = int(match.group(1))
            elif self.proc.poll() is not None or \
                    time.perf_counter() - t0 > READY_TIMEOUT_S:
                raise RuntimeError(f"daemon did not start; see {log_path}")
            else:
                time.sleep(0.002)
        self.client = ServiceClient(port=port, timeout_s=30.0)
        while self.client.readyz()[0] != 200:
            if time.perf_counter() - t0 > READY_TIMEOUT_S:
                raise RuntimeError("daemon never became ready")
            time.sleep(0.002)
        return time.perf_counter() - t0

    def _shutdown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None

    def launch_to_ready(self, command):
        """A fresh daemon's launch until ``/readyz`` is 200; it stays up."""
        self._shutdown()
        return self._launch()

    def start(self):
        super().start()
        if self.proc is None:
            self._launch()

    def restart(self):
        """A fresh daemon (new run dir and cache) for the traced pass."""
        self._shutdown()
        self._launch()

    def stop(self):
        self._shutdown()

    def peak_rss_mb(self):
        assert self.proc is not None
        return proc_peak_rss_mb(self.proc.pid)

    # -- per-layer numbers ----------------------------------------------

    def layer_metrics(self, tracer):
        assert self.client is not None
        scraped = _scrape(self.client.metrics_text())
        exec_s = scraped.get(("service_job_wall_s", "0.5"), 0.0)
        server_s = statistics.median(self._server_s) if self._server_s else 0.0
        direct_s = statistics.median(self._direct_s) if self._direct_s else 0.0
        observe_s = statistics.median(self._observe_s) if self._observe_s else 0.0
        self._replay_journal(tracer)
        return {
            "service.hit_ms": tracer.per_op_ms("service.hit"),
            "service.admit_ms": tracer.per_op_ms("service.admit"),
            "service.server_ms": server_s * 1e3,
            "service.exec_ms": exec_s * 1e3,
            "service.queue_wait_ms": (server_s - exec_s) * 1e3,
            "harness.spawn_ms": (exec_s - direct_s) * 1e3,
            "service.observe_ms": observe_s * 1e3,
            "service.cache_hits": scraped.get(("service_cache_hits_total", None), 0),
            "service.shed": scraped.get(("service_shed_total", None), 0),
            "service.retries": scraped.get(("service_retries_total", None), 0),
            "harness.journal_ms": tracer.per_op_ms("harness.journal"),
            "runtime.lanes": len(self._server_s),
        }

    def _replay_journal(self, tracer: Tracer) -> None:
        """Time ``Journal.record`` on each of the daemon's records of an
        op, on the same filesystem, as spans of that op."""
        records = read_journal(os.path.join(self.run_dir, JOURNAL_NAME))
        path = os.path.join(self.work_dir, "replay-journal.jsonl")
        with Journal(path) as journal:
            for record in records:
                op = self._job_ops.get(record.get("job"))
                if op is None:
                    continue
                fields = dict(record)
                event = fields.pop("event")
                with tracer.span("harness.journal", op):
                    journal.record(event, **fields)


def _scrape(text: str) -> dict[tuple[str, str | None], float]:
    """Prometheus text -> {(name, quantile): value}, label sets summed."""
    out: dict[tuple[str, str | None], float] = {}
    for line in text.splitlines():
        match = _PROM_LINE.match(line)
        if not match:
            continue
        name, labels, value = match.groups()
        quantile = None
        if labels and 'quantile="' in labels:
            quantile = labels.split('quantile="', 1)[1].split('"', 1)[0]
        key = (name, quantile)
        out[key] = out.get(key, 0.0) + float(value)
    return out
