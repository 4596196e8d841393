"""Deterministic trace contexts: derivation, wire format, propagation."""

import os

from repro.telemetry.core import NOOP
from repro.telemetry.tracecontext import (
    DEFAULT_ROOT,
    TRACEPARENT_ENV,
    TraceContext,
    context_from_env,
    default_context,
    derive_id,
    format_span_id,
    format_trace_id,
    propagation_env,
)


class TestDeriveId:
    def test_deterministic_across_calls(self):
        assert derive_id("a", 1, "b") == derive_id("a", 1, "b")

    def test_sensitive_to_parts_and_order(self):
        assert derive_id("a", "b") != derive_id("b", "a")
        assert derive_id("a") != derive_id("a", "a")

    def test_never_zero(self):
        # Zero ids are invalid on the wire; every derivation avoids it.
        assert derive_id() != 0
        assert all(derive_id(i) != 0 for i in range(1000))

    def test_fits_64_bits(self):
        assert 0 < derive_id("x", 2**70, "y") < 2**64

    def test_bool_parts_hash_as_text_not_int(self):
        # bool is an int subclass; True must not collide with 1.
        assert derive_id(True) != derive_id(1)


class TestTraceContext:
    def test_child_chains_parent(self):
        root = TraceContext.root("test")
        child = root.child("job", "j1")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_distinct_parts_distinct_children(self):
        root = TraceContext.root("test")
        assert root.child("job", "a").span_id != root.child("job", "b").span_id

    def test_traceparent_round_trip(self):
        context = TraceContext.root("test").child("job", 7)
        parsed = TraceContext.parse(context.to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id == context.span_id
        # parent_id is a local fact; the wire format carries position only.
        assert parsed.parent_id is None

    def test_parse_rejects_garbage(self):
        for header in (None, "", "nope", "00-xyz-abc-01",
                       "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # zero trace
                       "00-" + "1" * 32 + "-" + "0" * 16 + "-01",   # zero span
                       "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",   # bad version
                       "00-" + "1" * 31 + "-" + "2" * 16 + "-01"):  # short
            assert TraceContext.parse(header) is None, header

    def test_formatting_widths(self):
        assert len(format_trace_id(1)) == 32
        assert len(format_span_id(1)) == 16


class TestPropagation:
    def test_default_context_is_fixed_root(self, monkeypatch):
        monkeypatch.delenv(TRACEPARENT_ENV, raising=False)
        assert context_from_env({}) is None
        assert default_context() == DEFAULT_ROOT

    def test_env_round_trip(self):
        context = TraceContext.root("worker-test").child("job", "j1")
        with propagation_env(context):
            ambient = context_from_env(os.environ)
            assert ambient is not None
            assert ambient.trace_id == context.trace_id
            assert ambient.span_id == context.span_id
        assert TRACEPARENT_ENV not in os.environ

    def test_propagation_env_restores_previous(self):
        outer = TraceContext.root("outer")
        inner = TraceContext.root("inner")
        with propagation_env(outer):
            with propagation_env(inner):
                assert context_from_env(os.environ).trace_id == inner.trace_id
            assert context_from_env(os.environ).trace_id == outer.trace_id

    def test_disabled_facade_follows_the_env_and_keeps_its_bytes(
            self, monkeypatch):
        # The disabled daemon journals and returns these traceparents, so
        # memoizing the env parse must change no byte of them.
        monkeypatch.delenv(TRACEPARENT_ENV, raising=False)
        unset = "00-0000000000000000388b0e6f4aa2eebc-c2832103dc44ba0f-01"
        client = "00-0000000000000000f23b5f5135e6140d-186fd92a603462da-01"
        under = "00-0000000000000000f23b5f5135e6140d-4a61e3351558976e-01"
        for header, child in ((None, unset), (client, under), (None, unset),
                              (client, under)):
            if header is None:
                monkeypatch.delenv(TRACEPARENT_ENV, raising=False)
            else:
                monkeypatch.setenv(TRACEPARENT_ENV, header)
            assert NOOP.current_context() == (
                DEFAULT_ROOT if header is None else TraceContext.parse(header))
            assert NOOP.child_context("job", "job-000001").to_traceparent() \
                == child

    def test_none_context_is_noop(self):
        with propagation_env(None):
            assert TRACEPARENT_ENV not in os.environ
