"""End-to-end distributed tracing through the served-job pipeline.

Boots the real daemon with a telemetry directory, submits over real
HTTP, and asserts the headline property of the tracing tentpole: the
merged event stream stitches into ONE trace, every worker span
reachable from the admitting HTTP request's root span.  Also covers
the wire surfaces (traceparent accept/echo), the Chrome-trace export,
and the SLO gauges on /metrics.
"""

import json
import os

import pytest

from repro.service.config import ServiceConfig
from repro.service.testing import ServiceThread
from repro.telemetry.exporters import (
    CHROME_TRACE_NAME,
    EVENTS_NAME,
    read_events,
)
from repro.telemetry.tracecontext import TraceContext
from repro.telemetry.traceview import stitch_spans

FAST_JOB = dict(workload="kmeans", policy="greengpu",
                iterations=1, time_scale=0.01)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One served job end-to-end; yields (telemetry_dir, submit response)."""
    tmp = tmp_path_factory.mktemp("traced")
    telemetry_dir = str(tmp / "tel")
    config = ServiceConfig(port=0, workers=1,
                           telemetry_dir=telemetry_dir,
                           drain_timeout_s=10.0)
    with ServiceThread(config, str(tmp / "run")) as svc:
        client = svc.client()
        status, body, headers = client.submit(**FAST_JOB)
        assert status == 202
        done = client.wait(body["job_id"], timeout_s=60)
        assert done["phase"] == "done"
        metrics = client.metrics_text()
        client.close()
    yield telemetry_dir, body, headers, metrics


class TestStitchedTrace:
    def test_single_connected_trace(self, traced_run):
        telemetry_dir, _, _, _ = traced_run
        events = read_events(os.path.join(telemetry_dir, EVENTS_NAME))
        roots = stitch_spans(events)
        assert len(roots) == 1, [r.name for r in roots]
        root = roots[0]
        assert root.name == "http_request"

        names = set()

        def walk(node):
            names.add(node.name)
            for child in node.children:
                walk(child)
        walk(root)
        # Daemon-side job spans AND the worker's own simulation spans
        # all hang off the one HTTP root: the stitch crossed the
        # service -> executor -> run_workload boundary.
        assert {"service_job", "service_queue_wait", "service_execute",
                "run", "iteration"} <= names

    def test_worker_spans_share_the_trace_id(self, traced_run):
        telemetry_dir, _, _, _ = traced_run
        events = read_events(os.path.join(telemetry_dir, EVENTS_NAME))
        trace_ids = {e["trace_id"] for e in events
                     if e.get("type") == "span" and e.get("trace_id")}
        assert len(trace_ids) == 1

    def test_traceparent_echoed_and_statused(self, traced_run):
        _, body, headers, _ = traced_run
        echoed = TraceContext.parse(headers.get("traceparent"))
        assert echoed is not None
        statused = TraceContext.parse(body.get("traceparent"))
        assert statused is not None
        assert statused.span_id == echoed.span_id


class TestChromeTraceExport:
    def test_trace_json_perfetto_shape(self, traced_run):
        telemetry_dir, _, _, _ = traced_run
        path = os.path.join(telemetry_dir, CHROME_TRACE_NAME)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        assert set(data) == {"traceEvents", "displayTimeUnit"}
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["ts"] >= 0.0 and event["dur"] > 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_worker_spans_have_their_own_process_lane(self, traced_run):
        telemetry_dir, body, _, _ = traced_run
        path = os.path.join(telemetry_dir, CHROME_TRACE_NAME)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        meta = {e["args"]["name"]: e["pid"]
                for e in data["traceEvents"] if e["ph"] == "M"}
        assert body["job_id"] in meta


class TestSloSurface:
    def test_slo_gauges_on_metrics(self, traced_run):
        _, _, _, metrics = traced_run
        assert 'slo_compliance{slo="span-success"}' in metrics
        assert 'slo_burn_rate{slo="span-success",window="run"}' in metrics
        assert 'slo_violated{slo="deadline-hit-rate"}' in metrics

    def test_slo_check_passes_on_the_run(self, traced_run):
        telemetry_dir, _, _, _ = traced_run
        from repro.telemetry.slo import (
            check_slos,
            evaluate_directory,
            parse_fail_on,
        )

        results = evaluate_directory(telemetry_dir)
        deadline = next(r for r in results
                        if r.spec.name == "deadline-hit-rate")
        assert deadline.compliance == pytest.approx(1.0)
        assert check_slos(results,
                          parse_fail_on(["violations=0,burn=14"])) == []


class TestRecoveryKeepsTrace:
    def test_journal_round_trips_traceparent(self, tmp_path):
        """A journaled trace position survives daemon recovery."""
        telemetry_dir = str(tmp_path / "tel")
        config = ServiceConfig(port=0, workers=1,
                               telemetry_dir=telemetry_dir,
                               drain_timeout_s=5.0)
        run_dir = str(tmp_path / "run")
        with ServiceThread(config, run_dir) as svc:
            client = svc.client()
            _, body, _ = client.submit(**FAST_JOB)
            client.wait(body["job_id"], timeout_s=60)
            client.close()
        with ServiceThread(config, run_dir) as svc:
            client = svc.client()
            status, recovered, _ = client.status(body["job_id"])
            client.close()
        assert status == 200
        assert recovered.get("traceparent") == body.get("traceparent")
