"""Deterministic trace-context propagation across process boundaries.

Distributed tracing normally mints random trace/span ids; this repo
cannot — runs must be bit-reproducible, and a ``--parallel 4`` harness
run must stitch into the *same* trace tree as the serial run on the same
seeds.  So every id here is **derived, never drawn**: a 64-bit value
produced by folding the causal path (parent ids, span names, occurrence
counters) through the same SplitMix64 finalizer the seeding module uses
(:func:`repro.seeding.spawn_seed`).  Two processes that agree on the
path agree on the id, with no coordination and no shared state.

The wire format is W3C ``traceparent``-shaped::

    00-<trace_id as 032x>-<span_id as 016x>-01

which Perfetto, service clients, and plain ``curl`` all understand as an
opaque correlation header.  Propagation channels:

- **HTTP**: a ``traceparent`` request/response header
  (:mod:`repro.service.http`, :mod:`repro.service.client`);
- **worker processes**: the :data:`TRACEPARENT_ENV` environment variable,
  set by :func:`repro.harness.worker.run_job_inline` in the child before
  the job target runs (the header travels as a ``worker_main`` argument,
  so forked and inline execution agree);
- **explicit kwargs**: service job targets receive ``traceparent=`` so
  content-addressed cache keys (computed from the *request* kwargs)
  stay pure.

Builtin ``hash()`` is per-process salted and must never feed an id;
string parts are digested with SHA-256 (cached) instead.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator

from repro.seeding import _GOLDEN, _MASK64, _mix64

#: Environment variable carrying the serialized context into workers.
TRACEPARENT_ENV = "GREENGPU_TRACEPARENT"

_VERSION = "00"
_FLAGS = "01"  # always sampled: tracing is on iff telemetry is on


@lru_cache(maxsize=4096)
def _text_digest(text: str) -> int:
    """Stable (cross-process, cross-run) 64-bit digest of a string."""
    raw = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "big")


def derive_id(*parts: Any) -> int:
    """Fold ``parts`` (ints and strings) into a nonzero 64-bit id.

    Deterministic and order-sensitive: ``derive_id(a, b)`` differs from
    ``derive_id(b, a)``.  Ints mix directly; everything else mixes via
    its stable SHA-256 digest.  Zero is reserved (W3C treats an all-zero
    id as invalid), so a zero result maps to 1.
    """
    state = 0x6A09E667F3BCC909  # sqrt(2) fractional bits, arbitrary anchor
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, int):
            value = _text_digest(str(part))
        else:
            value = part & _MASK64
        state = _mix64((state ^ value) + _GOLDEN & _MASK64)
    return state or 1


@dataclass(frozen=True)
class TraceContext:
    """Position in a trace: which tree, which node, which parent."""

    trace_id: int
    span_id: int
    parent_id: int | None = None

    def child(self, *parts: Any) -> "TraceContext":
        """Context for a child span derived from this node and ``parts``."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=derive_id(self.trace_id, self.span_id, *parts),
            parent_id=self.span_id,
        )

    def to_traceparent(self) -> str:
        """Serialize as a W3C-style ``traceparent`` header value."""
        return (f"{_VERSION}-{self.trace_id:032x}-"
                f"{self.span_id:016x}-{_FLAGS}")

    @classmethod
    def root(cls, *parts: Any) -> "TraceContext":
        """A new root context named by ``parts`` (deterministic)."""
        trace_id = derive_id("trace", *parts)
        return cls(trace_id=trace_id,
                   span_id=derive_id(trace_id, "root", *parts))

    @classmethod
    def parse(cls, header: str | None) -> "TraceContext | None":
        """Parse a ``traceparent`` value; ``None`` if absent or invalid."""
        if not header:
            return None
        fields = header.strip().split("-")
        if len(fields) != 4:
            return None
        version, trace_hex, span_hex, _flags = fields
        if len(version) != 2 or len(trace_hex) != 32 or len(span_hex) != 16:
            return None
        try:
            trace_id = int(trace_hex, 16)
            span_id = int(span_hex, 16)
        except ValueError:
            return None
        if trace_id == 0 or span_id == 0 or version == "ff":
            return None
        return cls(trace_id=trace_id, span_id=span_id)


#: Root used when no context was propagated.  A *constant*, so detached
#: processes (CLI runs, tests) still agree on ids for identical work.
DEFAULT_ROOT = TraceContext.root("greengpu")


#: Memo of :meth:`TraceContext.parse` on the raw header: the disabled
#: telemetry facade asks for the ambient context on every call.
_parse_header = lru_cache(maxsize=64)(TraceContext.parse)


def context_from_env(environ: "os._Environ[str] | dict[str, str] | None" = None,
                     ) -> TraceContext | None:
    """Context propagated via :data:`TRACEPARENT_ENV`, if any."""
    header = (os.environ if environ is None else environ).get(TRACEPARENT_ENV)
    return None if header is None else _parse_header(header)


def default_context() -> TraceContext:
    """The ambient context: the env-propagated one, else the fixed root."""
    return context_from_env() or DEFAULT_ROOT


@contextmanager
def propagation_env(context: TraceContext | None) -> Iterator[None]:
    """Set :data:`TRACEPARENT_ENV` for the duration of the block.

    ``None`` is a no-op, so call sites can pass an optional context
    straight through.  Restores the previous value on exit.
    """
    if context is None:
        yield
        return
    previous = os.environ.get(TRACEPARENT_ENV)
    os.environ[TRACEPARENT_ENV] = context.to_traceparent()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(TRACEPARENT_ENV, None)
        else:
            os.environ[TRACEPARENT_ENV] = previous


def format_span_id(span_id: int) -> str:
    """Canonical hex rendering used in span events (16 hex chars)."""
    return f"{span_id & _MASK64:016x}"


def format_trace_id(trace_id: int) -> str:
    """Canonical hex rendering of a trace id (32 hex chars)."""
    return f"{trace_id:032x}"
