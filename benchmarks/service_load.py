"""CI gate: the service sustains >= 1000 jobs/min with a warm cache.

Boots a full daemon (real asyncio HTTP front-end, real admission path,
real content-addressed cache) in-process, warms the cache with a small
set of distinct simulations, then hammers it from several keep-alive
client threads for a fixed wall-clock window drawing submissions from
the warm set.  Most of the sustained traffic is therefore cache hits —
exactly the production shape the ROADMAP's serving milestone describes
(heavy repeat traffic, shared content-addressed results).

The gate reads its own numbers back off the Prometheus surface — the
same ``/metrics`` endpoint operators would scrape — rather than from
client-side bookkeeping: p99 admission latency comes from the exported
``service_admission_latency_s`` summary, and the shed rate from
``service_shed_total`` vs ``service_submissions_total``.  Exit 0 iff

    completed_jobs / duration >= --min-rate (jobs/min, default 1000)
    and p99 admission latency <= --max-p99 (default 250 ms)

Run:  python benchmarks/service_load.py [--duration 15] [--clients 4]
          [--min-rate 1000] [--max-p99 0.25]
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
import threading
import time

from repro.cache import ResultCache
from repro.service.config import ServiceConfig
from repro.service.testing import ServiceThread

#: Distinct simulations forming the warm working set.
WARM_SET = [
    {"workload": "kmeans", "policy": "greengpu",
     "iterations": 1, "time_scale": 0.01},
    {"workload": "hotspot", "policy": "greengpu",
     "iterations": 1, "time_scale": 0.01},
    {"workload": "pathfinder", "policy": "scaling-only",
     "iterations": 1, "time_scale": 0.01},
    {"workload": "streamcluster", "policy": "division-only",
     "iterations": 1, "time_scale": 0.01},
]


def scrape(text: str, metric: str, labels: str = "") -> float:
    """Pull one sample out of Prometheus exposition text (0.0 if absent)."""
    pattern = re.compile(
        rf"^{re.escape(metric)}{re.escape(labels)}.* ([0-9.eE+-]+)$",
        re.MULTILINE,
    )
    total = 0.0
    for match in pattern.finditer(text):
        total += float(match.group(1))
    return total


def run_load(svc: ServiceThread, duration_s: float,
             clients: int) -> dict[str, float]:
    stop_at = time.monotonic() + duration_s
    counts = {"completed": 0, "shed": 0, "errors": 0, "submitted": 0}
    lock = threading.Lock()

    def one_client(index: int) -> None:
        client = svc.client(timeout_s=10.0)
        local = {"completed": 0, "shed": 0, "errors": 0, "submitted": 0}
        i = index
        try:
            while time.monotonic() < stop_at:
                job = WARM_SET[i % len(WARM_SET)]
                i += 1
                local["submitted"] += 1
                status, _, _ = client.submit(tenant=f"load-{index}", **job)
                if status == 200:          # cache hit: a completed job
                    local["completed"] += 1
                elif status == 202:        # queued; cheap, will cache-hit next
                    local["completed"] += 1
                elif status == 429:
                    local["shed"] += 1
                else:
                    local["errors"] += 1
        finally:
            client.close()
            with lock:
                for key, value in local.items():
                    counts[key] += value

    threads = [threading.Thread(target=one_client, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=15.0,
                        help="load window, seconds")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--min-rate", type=float, default=1000.0,
                        help="gate: completed jobs per minute")
    parser.add_argument("--max-p99", type=float, default=0.25,
                        help="gate: p99 admission latency, seconds")
    args = parser.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="greengpu-service-load-")
    config = ServiceConfig(
        port=0, workers=2,
        rate_per_tenant=10_000.0, burst_per_tenant=10_000.0,
        tenant_queue_limit=512, global_high_water=2048,
    )
    cache = ResultCache(tmp + "/cache")
    with ServiceThread(config, tmp + "/run", cache=cache) as svc:
        client = svc.client(timeout_s=30.0)
        print(f"warming cache with {len(WARM_SET)} distinct simulations...")
        for job in WARM_SET:
            status, body, _ = client.submit(**job)
            if status == 202:
                client.wait(body["job_id"], timeout_s=120)
        # Every warm-set entry must now be a hit.
        for job in WARM_SET:
            status, body, _ = client.submit(**job)
            assert status == 200 and body["served_from_cache"], \
                f"cache not warm for {job}"
        client.close()

        print(f"load: {args.clients} clients x {args.duration:.0f}s ...")
        counts = run_load(svc, args.duration, args.clients)

        final = svc.client(timeout_s=30.0)
        metrics = final.metrics_text()
        final.close()

    per_min = counts["completed"] / args.duration * 60.0
    p99 = scrape(metrics, "service_admission_latency_s",
                 '{quantile="0.99"}')
    submissions = scrape(metrics, "service_submissions_total")
    shed = scrape(metrics, "service_shed_total")
    shed_rate = shed / submissions if submissions else 0.0
    cache_hits = scrape(metrics, "service_cache_hits_total")

    print(f"completed          : {counts['completed']} jobs "
          f"({per_min:,.0f}/min)")
    print(f"shed (429)         : {counts['shed']} "
          f"(shed rate {shed_rate:.1%}, via Prometheus)")
    print(f"errors             : {counts['errors']}")
    print(f"cache hits         : {cache_hits:,.0f} (via Prometheus)")
    print(f"p99 admission      : {p99 * 1e3:.2f} ms (via Prometheus)")

    ok = True
    if counts["errors"]:
        print(f"FAIL: {counts['errors']} unexpected error responses")
        ok = False
    if per_min < args.min_rate:
        print(f"FAIL: {per_min:,.0f} jobs/min < gate {args.min_rate:,.0f}")
        ok = False
    if p99 > args.max_p99:
        print(f"FAIL: p99 admission {p99:.3f}s > gate {args.max_p99:.3f}s")
        ok = False
    if ok:
        print(f"PASS: sustained {per_min:,.0f} jobs/min "
              f">= {args.min_rate:,.0f} with p99 admission {p99 * 1e3:.2f} ms")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
