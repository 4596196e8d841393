"""Unified observability for the GreenGPU reproduction.

One subsystem replaces the three ad-hoc counting mechanisms that grew
alongside the control loop (``GreenGpuController._record_event`` string
channels, the ``ControlHealth`` tallies, the harness journal's per-job
fields) with a single instrumented path:

- :class:`MetricsRegistry` — labeled counters, gauges, and histograms
  with streaming p50/p95/p99 percentiles (:mod:`repro.telemetry.registry`);
- structured span tracing with sim-clock *and* wall-clock timestamps
  (:mod:`repro.telemetry.spans`);
- pluggable exporters — JSONL event stream, Prometheus text exposition,
  CSV/markdown summaries (:mod:`repro.telemetry.exporters`);
- cross-process aggregation of isolated harness workers into one
  run-level view (:mod:`repro.telemetry.merge`);
- the ``repro metrics`` inspector (:mod:`repro.telemetry.inspect`);
- the per-decision audit trail and the ``repro explain`` narrative
  renderer (:mod:`repro.telemetry.audit`);
- the run-diff engine behind ``repro diff`` and the CI regression gate
  (:mod:`repro.telemetry.diff`);
- deterministic distributed tracing: W3C-style trace-context propagation
  across process boundaries (:mod:`repro.telemetry.tracecontext`), trace
  stitching and waterfall rendering (:mod:`repro.telemetry.traceview`);
- declared SLOs with multi-window burn-rate evaluation
  (:mod:`repro.telemetry.slo`).

Instrumented code takes an optional ``telemetry`` argument and
normalizes it with ``telemetry or NOOP``: the disabled backend has the
same surface, does nothing, and allocates nothing on the hot path, so
observability is strictly opt-in.
"""

from repro.telemetry.audit import AuditTrail, format_explanation, read_audit
from repro.telemetry.core import NOOP, NullTelemetry, Telemetry
from repro.telemetry.diff import RunDelta, diff_runs
from repro.telemetry.exporters import export_telemetry, write_exports
from repro.telemetry.inspect import format_metrics_report
from repro.telemetry.merge import export_worker, merge_directory
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.slo import (
    DEFAULT_SLOS,
    SloResult,
    SloSpec,
    evaluate_slos,
)
from repro.telemetry.spans import Span, SpanTracer
from repro.telemetry.tracecontext import (
    TRACEPARENT_ENV,
    TraceContext,
    default_context,
    derive_id,
    propagation_env,
)
from repro.telemetry.traceview import (
    format_trace_report,
    stitch_spans,
    tree_signature,
)

__all__ = [
    "DEFAULT_SLOS",
    "TRACEPARENT_ENV",
    "TraceContext",
    "SloResult",
    "SloSpec",
    "default_context",
    "derive_id",
    "evaluate_slos",
    "format_trace_report",
    "propagation_env",
    "stitch_spans",
    "tree_signature",
    "NOOP",
    "NullTelemetry",
    "Telemetry",
    "AuditTrail",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunDelta",
    "Span",
    "SpanTracer",
    "diff_runs",
    "export_telemetry",
    "write_exports",
    "export_worker",
    "merge_directory",
    "format_explanation",
    "format_metrics_report",
    "read_audit",
]
