"""End-to-end HTTP tests against a live in-process daemon.

These run the real asyncio front-end + daemon on a background thread
with the default worker processes, forked from a preloaded forkserver,
so the whole file stays fast while still exercising every HTTP surface.
Process-level violence (kills, timeouts, breaker trips) lives in
``test_chaos.py``.
"""

import json
import socket
import time

import pytest

from repro.cache import ResultCache
from repro.service.config import ServiceConfig
from repro.service.testing import ServiceThread

FAST_JOB = dict(workload="kmeans", policy="greengpu",
                iterations=1, time_scale=0.01)


def make_config(**overrides):
    defaults = dict(port=0, workers=2, job_timeout_s=60.0,
                    slow_client_timeout_s=0.4, keepalive_timeout_s=2.0,
                    drain_timeout_s=10.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("service")
    cache = ResultCache(str(tmp / "cache"))
    with ServiceThread(make_config(), str(tmp / "run"), cache=cache) as svc:
        yield svc


@pytest.fixture()
def client(service):
    c = service.client()
    yield c
    c.close()


class TestSubmitAndResult:
    def test_submit_runs_and_returns_result(self, client):
        status, body, _ = client.submit(**FAST_JOB)
        assert status == 202
        assert body["phase"] == "queued"
        done = client.wait(body["job_id"], timeout_s=60)
        assert done["phase"] == "done"
        assert done["result"]["workload"] == "kmeans"
        assert done["result"]["total_energy_j"] > 0.0

    def test_identical_resubmission_served_from_cache(self, client):
        status, first, _ = client.submit(**FAST_JOB)
        assert status in (200, 202)
        if status == 202:
            client.wait(first["job_id"], timeout_s=60)
        status, body, _ = client.submit(**FAST_JOB)
        assert status == 200
        assert body["served_from_cache"] is True
        assert body["phase"] == "done"
        assert body["result"]["total_energy_j"] > 0.0

    def test_unknown_job_is_404(self, client):
        status, body, _ = client.status("job-999999")
        assert status == 404

    def test_malformed_json_is_400(self, client):
        status, body, _ = client.request("POST", "/jobs")
        # No body at all -> empty submission -> valid defaults; send junk.
        conn_status, conn_body, _ = client.request("POST", "/jobs", body=None)
        raw = client._connection()
        raw.request("POST", "/jobs", body=b"{not json",
                    headers={"Content-Type": "application/json"})
        response = raw.getresponse()
        assert response.status == 400
        assert b"JSON" in response.read()

    def test_unknown_workload_is_400(self, client):
        status, body, _ = client.submit(workload="no-such-kernel")
        assert status == 400
        assert "unknown workload" in body["error"]

    @pytest.mark.parametrize("hostile", [{"policy": ["x"]},
                                         {"deadline_s": float("nan")}],
                             ids=["unhashable-policy", "nan-deadline"])
    def test_hostile_body_is_typed_400(self, client, hostile):
        status, body, _ = client.submit(**{**FAST_JOB, **hostile})
        assert status == 400, body
        assert next(iter(hostile)) in body["error"]

    def test_unknown_route_is_404_and_bad_method_405(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("PUT", "/jobs/job-000001")[0] == 405


class TestOpsSurfaces:
    def test_healthz_always_answers(self, client):
        status, body, _ = client.healthz()
        assert status == 200
        assert body["breaker"] == "closed"
        assert {"queue_depth", "running", "workers"} <= set(body)

    def test_readyz_ready_when_healthy(self, client):
        status, body, _ = client.readyz()
        assert status == 200 and body["ready"] is True

    def test_metrics_exposes_prometheus_text(self, client):
        client.submit(**FAST_JOB)
        text = client.metrics_text()
        assert "# TYPE" in text
        assert "service_submissions_total" in text
        assert "service_admission_latency_s" in text

    def test_keepalive_reuses_one_connection(self, client):
        conn_before = client._connection()
        client.healthz()
        client.healthz()
        assert client._connection() is conn_before


class TestBackpressure:
    def test_rate_limit_sheds_with_retry_after(self, tmp_path):
        config = make_config(rate_per_tenant=5.0, burst_per_tenant=3.0,
                             workers=1)
        with ServiceThread(config, str(tmp_path / "run")) as svc:
            client = svc.client()
            seen_429 = None
            for i in range(10):
                status, body, headers = client.submit(
                    tenant="flooder", iterations=1 + i, **{
                        k: v for k, v in FAST_JOB.items() if k != "iterations"})
                if status == 429:
                    seen_429 = (body, headers)
                    break
            assert seen_429 is not None, "bucket never emptied"
            body, headers = seen_429
            assert body["error"] == "rate_limited"
            assert "retry-after" in headers
            assert int(headers["retry-after"]) >= 1
            client.close()

    def test_queue_overflow_sheds_that_tenant_only(self, tmp_path):
        config = make_config(workers=1, tenant_queue_limit=2,
                             rate_per_tenant=10_000.0,
                             burst_per_tenant=10_000.0)
        with ServiceThread(config, str(tmp_path / "run")) as svc:
            client = svc.client()
            # A slow-ish job pins the single worker...
            client.submit(workload="hotspot", iterations=4, time_scale=0.05,
                          tenant="a")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                _, health, _ = client.healthz()
                if health["running"] >= 1:
                    break
                time.sleep(0.01)
            # ... then tenant a fills its bounded queue.
            statuses = []
            for i in range(6):
                status, body, headers = client.submit(
                    workload="kmeans", iterations=2 + i, time_scale=0.01,
                    tenant="a")
                statuses.append(status)
                if status == 429:
                    assert body["error"] in ("queue_full", "high_water")
                    assert "retry-after" in headers
            assert 429 in statuses
            # Tenant b still gets in.
            status, _, _ = client.submit(workload="kmeans", iterations=60,
                                         time_scale=0.01, tenant="b")
            assert status == 202
            client.close()


class TestSlowClients:
    def test_stalled_request_times_out_with_408(self, service):
        sock = socket.create_connection(("127.0.0.1", service.port), timeout=5)
        try:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
            # ... and then never send the body.
            sock.settimeout(5.0)
            data = sock.recv(4096)
            assert b"408" in data.split(b"\r\n", 1)[0]
        finally:
            sock.close()

    def test_stalled_client_does_not_block_others(self, service, client):
        stalled = socket.create_connection(("127.0.0.1", service.port),
                                           timeout=5)
        try:
            stalled.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
            status, _, _ = client.healthz()  # concurrent healthy client
            assert status == 200
        finally:
            stalled.close()

    def test_oversized_body_is_413(self, service):
        sock = socket.create_connection(("127.0.0.1", service.port), timeout=5)
        try:
            sock.sendall(b"POST /jobs HTTP/1.1\r\n"
                         b"Content-Length: 999999999\r\n\r\n")
            data = sock.recv(4096)
            assert b"413" in data.split(b"\r\n", 1)[0]
        finally:
            sock.close()

    def test_garbage_request_line_is_400(self, service):
        sock = socket.create_connection(("127.0.0.1", service.port), timeout=5)
        try:
            sock.sendall(b"GARBAGE\r\n\r\n")
            data = sock.recv(4096)
            assert b"400" in data.split(b"\r\n", 1)[0]
        finally:
            sock.close()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        config = make_config(workers=1, rate_per_tenant=10_000.0,
                             burst_per_tenant=10_000.0)
        with ServiceThread(config, str(tmp_path / "run")) as svc:
            client = svc.client()
            client.submit(workload="hotspot", iterations=4, time_scale=0.05)
            status, queued, _ = client.submit(workload="kmeans",
                                              iterations=50, time_scale=0.01)
            assert status == 202
            status, body, _ = client.cancel(queued["job_id"])
            assert status == 200
            assert body["phase"] == "cancelled"
            status, body, _ = client.status(queued["job_id"])
            assert body["phase"] == "cancelled"
            client.close()

    def test_cancel_finished_job_is_409(self, client):
        status, body, _ = client.submit(**FAST_JOB)
        job_id = body["job_id"]
        if status == 202:
            client.wait(job_id, timeout_s=60)
        status, body, _ = client.cancel(job_id)
        assert status == 409

    def test_cancel_unknown_job_is_404(self, client):
        assert client.cancel("job-424242")[0] == 404


class TestDraining:
    def test_draining_service_rejects_with_503(self, tmp_path):
        config = make_config(drain_timeout_s=5.0)
        svc = ServiceThread(config, str(tmp_path / "run")).start()
        client = svc.client()
        try:
            svc.call(lambda s: setattr(s, "draining", True))
            status, body, headers = client.submit(**FAST_JOB)
            assert status == 503
            assert body["error"] == "draining"
            assert "retry-after" in headers
            status, body, _ = client.readyz()
            assert status == 503 and body["ready"] is False
        finally:
            client.close()
            svc.stop()
