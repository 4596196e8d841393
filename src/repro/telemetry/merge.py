"""Cross-process aggregation: per-worker telemetry -> one run-level view.

Harness workers are separate processes; each writes its own
telemetry under ``<dir>/workers/<job>/`` (a ``snapshot.json`` plus an
``events.jsonl``).  The supervisor — or anyone holding the run
directory — merges those into the run-level exports at ``<dir>/``.

The merge is deterministic and **order-independent of completion**:
worker directories are folded in sorted name order, counters add,
gauges resolve last-writer-wins by *simulated* update time, and
histograms concatenate.  Because each harness job carries its own label
domain, a parallel run's merged view is identical to a serial run's —
modulo wall-clock fields, which by contract all end in ``wall_s``.

Worker ``audit.jsonl`` decision trails merge the same way: records are
concatenated in sorted worker order, each annotated with a ``job`` field
naming its worker, into a run-level ``audit.jsonl``.
"""

from __future__ import annotations

import os
import re
from typing import Any

from repro.ioutil import atomic_write_text
from repro.telemetry.audit import (
    AUDIT_NAME,
    audit_path,
    read_audit,
    render_audit_jsonl,
)
from repro.telemetry.core import Telemetry
from repro.telemetry.exporters import (
    EVENTS_NAME,
    SNAPSHOT_NAME,
    read_events,
    read_snapshot,
    write_exports,
)
from repro.telemetry.registry import MetricsRegistry

WORKERS_SUBDIR = "workers"

_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._=-]")


def worker_dir(telemetry_dir: str | os.PathLike[str], name: str) -> str:
    """Directory a named worker writes its telemetry files into."""
    return os.path.join(os.fspath(telemetry_dir), WORKERS_SUBDIR,
                        _UNSAFE_RE.sub("_", name))


def export_worker(telemetry: Telemetry,
                  telemetry_dir: str | os.PathLike[str], name: str) -> str:
    """Write one worker's telemetry under ``<dir>/workers/<name>/``."""
    target = worker_dir(telemetry_dir, name)
    write_exports(target, telemetry.registry, telemetry.events)
    return target


def merge_directory(
    telemetry_dir: str | os.PathLike[str],
    extra: list[Telemetry] | None = None,
) -> MetricsRegistry:
    """Merge worker telemetry (plus in-process extras) into run-level files.

    Returns the merged registry.  With no workers and no extras the
    run-level exports are still written (empty), so ``repro metrics``
    always has something to read.
    """
    telemetry_dir = os.fspath(telemetry_dir)
    merged = MetricsRegistry()
    events: list[dict[str, Any]] = []
    audit_records: list[dict[str, Any]] = []
    saw_worker_audit = False

    workers_root = os.path.join(telemetry_dir, WORKERS_SUBDIR)
    if os.path.isdir(workers_root):
        for name in sorted(os.listdir(workers_root)):
            wdir = os.path.join(workers_root, name)
            snapshot_path = os.path.join(wdir, SNAPSHOT_NAME)
            if not os.path.isdir(wdir) or not os.path.exists(snapshot_path):
                continue
            merged.merge_snapshot(read_snapshot(snapshot_path))
            # Annotate each worker's events with the worker that emitted
            # them (mirroring the audit merge) so trace stitching and the
            # Chrome-trace exporter can attribute spans to processes.
            events.extend({**event, "job": name}
                          for event in read_events(os.path.join(wdir,
                                                                EVENTS_NAME)))
            worker_audit = read_audit(audit_path(wdir), missing_ok=True)
            if os.path.exists(audit_path(wdir)):
                saw_worker_audit = True
            audit_records.extend({**record, "job": name}
                                 for record in worker_audit)

    for telemetry in extra or []:
        if not telemetry.enabled:
            continue
        merged.merge_snapshot(telemetry.registry.snapshot())
        events.extend(telemetry.events)

    write_exports(telemetry_dir, merged, events)
    if saw_worker_audit:
        atomic_write_text(os.path.join(telemetry_dir, AUDIT_NAME),
                          render_audit_jsonl(audit_records))
    return merged


def strip_wall_clock(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Snapshot copy with every wall-clock metric removed.

    The parity contract: a ``--parallel N`` harness run merged with this
    module equals the serial run on the same seeds after dropping
    metrics whose name ends in ``wall_s`` — nothing else may differ.
    """
    return {
        "schema": snapshot["schema"],
        "counters": [dict(r) for r in snapshot["counters"]
                     if not r["name"].endswith("wall_s")],
        "gauges": [dict(r) for r in snapshot["gauges"]
                   if not r["name"].endswith("wall_s")],
        "histograms": [dict(r) for r in snapshot["histograms"]
                       if not r["name"].endswith("wall_s")],
    }
