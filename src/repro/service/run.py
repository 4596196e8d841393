"""``greengpu serve`` — process entry point with signal-driven drain.

Kept separate from :mod:`repro.cli` so the signal wiring is importable
and testable without argparse, and separate from the daemon so the
daemon itself never touches process-global signal state (the test
suite runs many daemons per process).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.service.config import ServiceConfig
from repro.service.daemon import SimulationService
from repro.service.http import HttpFrontend


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        tenant_queue_limit=args.tenant_queue_limit,
        global_high_water=args.global_high_water,
        rate_per_tenant=args.rate_per_tenant,
        burst_per_tenant=args.burst_per_tenant,
        job_timeout_s=args.job_timeout_s,
        drain_timeout_s=args.drain_timeout_s,
        telemetry_dir=getattr(args, "telemetry", None),
    )


async def serve_until_signalled(args: argparse.Namespace, cache=None) -> int:
    """Boot the daemon over ``cache`` (None: uncached), serve until
    SIGTERM/SIGINT, drain, exit 0."""
    config = config_from_args(args)
    service = SimulationService(config, args.run_dir, cache=cache)
    await service.start()
    frontend = HttpFrontend(service)
    await frontend.start()

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)

    print(f"greengpu service: http://{config.host}:{frontend.port} "
          f"({config.workers} workers, run dir {service.run_dir.root})",
          file=sys.stderr, flush=True)
    await stop.wait()
    print("greengpu service: draining...", file=sys.stderr, flush=True)
    await frontend.stop()          # stop accepting connections first
    await service.shutdown(reason="signal")
    print("greengpu service: stopped.", file=sys.stderr, flush=True)
    return 0
