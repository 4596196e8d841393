"""Unit tests for submission parsing and the job record model."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service.config import ServiceConfig
from repro.service.models import (
    JobPhase,
    JobRecord,
    JobRequest,
    parse_request,
    request_from_dict,
)

CONFIG = ServiceConfig(port=0)


class TestParseRequest:
    def test_defaults_fill_in(self):
        request = parse_request({}, CONFIG)
        assert request.workload == "kmeans"
        assert request.policy == "greengpu"
        assert request.tenant == "public"
        assert request.cache_key is not None

    def test_alias_canonicalized_to_shared_cache_key(self):
        a = parse_request({"workload": "PF"}, CONFIG)
        b = parse_request({"workload": "pathfinder"}, CONFIG)
        assert a.workload == b.workload == "pathfinder"
        assert a.cache_key == b.cache_key

    def test_distinct_submissions_get_distinct_keys(self):
        a = parse_request({"iterations": 2}, CONFIG)
        b = parse_request({"iterations": 3}, CONFIG)
        assert a.cache_key != b.cache_key

    def test_tenant_does_not_affect_cache_key(self):
        # The result of a simulation is tenant-independent; sharing the
        # content address across tenants is what makes a warm cache warm.
        a = parse_request({"tenant": "team-a"}, CONFIG)
        b = parse_request({"tenant": "team-b"}, CONFIG)
        assert a.cache_key == b.cache_key

    @pytest.mark.parametrize("body,fragment", [
        ([], "JSON object"),
        ({"workload": "no-such-kernel"}, "unknown workload"),
        ({"workload": 7}, "workload must be a string"),
        ({"policy": "no-such-policy"}, "unknown policy"),
        ({"tenant": ""}, "tenant"),
        ({"tenant": "x" * 65}, "tenant"),
        ({"iterations": 0}, "iterations"),
        ({"iterations": 10_000}, "iterations"),
        ({"iterations": True}, "iterations"),
        ({"time_scale": 0.0}, "time_scale"),
        ({"time_scale": 99.0}, "time_scale"),
        ({"deadline_s": -1.0}, "deadline_s"),
        ({"deadline_s": "soon"}, "deadline_s"),
        ({"deadline_s": float("nan")}, "deadline_s"),
        ({"policy": ["x"]}, "policy must be a string"),
        ({"policy": {"x": 1}}, "policy must be a string"),
        ({"time_scale": float("nan")}, "time_scale"),
        ({"time_scale": 10**400}, "time_scale"),
    ])
    def test_rejects_malformed(self, body, fragment):
        with pytest.raises(ServiceError, match=fragment):
            parse_request(body, CONFIG)

    def test_deadline_clamped_to_ceiling(self):
        request = parse_request({"deadline_s": 10_000_000.0}, CONFIG)
        assert request.deadline_s == CONFIG.max_deadline_s

    @pytest.mark.parametrize("deadline_s", [float("inf"), 10**400],
                             ids=["inf", "huge-int"])
    def test_unbounded_deadline_clamped_to_a_float_ceiling(self, deadline_s):
        request = parse_request({"deadline_s": deadline_s}, CONFIG)
        assert request.deadline_s == CONFIG.max_deadline_s
        assert isinstance(request.deadline_s, float)

    def test_journal_round_trip_is_identity(self):
        request = parse_request(
            {"workload": "srad", "policy": "scaling-only", "iterations": 3,
             "time_scale": 0.1, "tenant": "t", "deadline_s": 9.0},
            CONFIG,
        )
        assert request_from_dict(request.as_dict()) == request


#: Any value ``json.loads`` can return, NaN and infinities included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=8,
)
#: Values of the right shape, so draws also reach the later checks.
PLAUSIBLE = {
    "workload": st.sampled_from(["kmeans", "PF", "srad", "nope"]),
    "policy": st.sampled_from(["greengpu", "scaling-only", "nope"]),
    "tenant": st.text(max_size=70),
    "iterations": st.integers(-2, 70),
    "time_scale": st.floats(-0.5, 1.5) | st.integers(-1, 2),
    "deadline_s": st.floats() | st.integers(),
}
BODIES = JSON_VALUES | st.fixed_dictionaries(
    {}, optional={name: values | JSON_VALUES
                  for name, values in PLAUSIBLE.items()})


class TestParseRequestProperty:
    @settings(max_examples=300, deadline=None)
    @given(body=BODIES)
    def test_any_json_body_parses_or_raises_service_error(self, body):
        try:
            request = parse_request(body, CONFIG)
        except ServiceError:
            return
        assert isinstance(request, JobRequest)
        assert 0.0 < request.time_scale <= CONFIG.max_time_scale
        assert request.deadline_s is None or \
            0.0 < request.deadline_s <= CONFIG.max_deadline_s
        json.dumps(request.as_dict(), allow_nan=False)  # finite: journal-safe
        assert request_from_dict(request.as_dict()) == request


class TestJobRecord:
    def test_expiry_against_monotonic_deadline(self):
        request = parse_request({"deadline_s": 5.0}, CONFIG)
        record = JobRecord(job_id="job-000001", request=request)
        record.deadline_monotonic = 100.0
        assert not record.expired(99.9)
        assert record.expired(100.0)

    def test_no_deadline_never_expires(self):
        record = JobRecord(job_id="j", request=parse_request({}, CONFIG))
        assert not record.expired(1e12)

    def test_status_dict_shape(self):
        record = JobRecord(job_id="j", request=parse_request({}, CONFIG))
        status = record.status_dict()
        assert status["phase"] == "queued"
        assert "result" not in status and "error" not in status
        record.phase = JobPhase.DONE
        record.result = {"total_energy_j": 1.0}
        assert record.status_dict()["result"] == {"total_energy_j": 1.0}
