"""Admission control: token buckets, bounded tenant queues, fair dequeue.

The backpressure design mirrors the controller's holistic philosophy —
keep the system inside its envelope by shaping load at the edge rather
than letting overload propagate:

- Each tenant owns a **token bucket** (rate + burst).  An empty bucket
  is a per-tenant 429 with a ``Retry-After`` telling the client exactly
  when a token lands.
- Each tenant owns a **bounded queue**.  A full queue is that tenant's
  problem alone; other tenants keep flowing.
- A **global high-water mark** across all queues triggers load-shedding
  for everyone, with ``Retry-After`` derived from queue depth and the
  observed service rate (how long until the backlog drains below the
  mark).
- Workers pull via **smooth weighted round-robin** across tenants, so a
  tenant with weight 3 gets three dequeues for every one of a weight-1
  tenant regardless of how deep either queue is — no tenant can starve
  another by flooding.

Everything takes an injectable ``clock`` (``time.monotonic`` shaped) so
the unit tests are deterministic.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from typing import Any, Callable, Iterator

from repro.errors import ServiceError
from repro.service.config import ServiceConfig


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate <= 0.0 or burst <= 0.0:
            raise ServiceError("token bucket rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._updated) * self.rate)
        self._updated = now

    def try_take(self, amount: float = 1.0) -> tuple[bool, float]:
        """Take ``amount`` tokens; returns ``(ok, retry_after_s)``.

        On refusal ``retry_after_s`` is the exact wait until the bucket
        holds ``amount`` again — the 429's ``Retry-After``.
        """
        self._refill()
        if self._tokens >= amount:
            self._tokens -= amount
            return True, 0.0
        return False, (amount - self._tokens) / self.rate


class FairTenantQueues:
    """Bounded per-tenant FIFO queues with smooth weighted round-robin.

    ``put`` enforces the per-tenant bound and the global high-water mark
    (both raise typed refusals carrying a retry hint); ``take`` returns
    the next item under smooth WRR — each active tenant's ``current``
    weight grows by its configured weight every round and the largest
    ``current`` wins and pays the total back, which interleaves heavy
    and light tenants instead of bursting.
    """

    def __init__(self, config: ServiceConfig,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config
        self.clock = clock
        self._queues: "OrderedDict[str, deque[Any]]" = OrderedDict()
        self._current: dict[str, float] = {}
        self._buckets: dict[str, TokenBucket] = {}
        #: EWMA of observed job service seconds; seeds the drain estimate
        #: behind Retry-After before any job has completed.
        self.service_rate_ewma_s = 0.5

    # -- admission ------------------------------------------------------

    def depth(self, tenant: str | None = None) -> int:
        if tenant is not None:
            queue = self._queues.get(tenant)
            return len(queue) if queue is not None else 0
        return sum(len(q) for q in self._queues.values())

    def bucket(self, tenant: str) -> TokenBucket:
        if tenant not in self._buckets:
            self._buckets[tenant] = TokenBucket(
                self.config.rate_per_tenant, self.config.burst_per_tenant,
                clock=self.clock,
            )
        return self._buckets[tenant]

    def observe_service_time(self, seconds: float) -> None:
        """Feed one completed job's wall seconds into the drain estimate."""
        self.service_rate_ewma_s = (
            0.8 * self.service_rate_ewma_s + 0.2 * max(seconds, 1e-3)
        )

    def shed_retry_after_s(self) -> float:
        """How long until the backlog drains below the high-water mark."""
        overflow = self.depth() - self.config.global_high_water + 1
        per_slot = self.service_rate_ewma_s / max(self.config.workers, 1)
        return max(overflow, 1) * per_slot

    def admit(self, tenant: str, item: Any) -> None:
        """Enqueue ``item`` for ``tenant`` or raise a typed refusal.

        Raises :class:`AdmissionRefused` with ``reason`` in
        ``{"rate_limited", "queue_full", "high_water"}`` and a
        ``retry_after_s`` hint.
        """
        ok, retry_after = self.bucket(tenant).try_take()
        if not ok:
            raise AdmissionRefused("rate_limited", retry_after, tenant)
        if self.depth() >= self.config.global_high_water:
            raise AdmissionRefused("high_water", self.shed_retry_after_s(),
                                   tenant)
        queue = self._queues.get(tenant)
        if queue is not None and len(queue) >= self.config.tenant_queue_limit:
            per_slot = self.service_rate_ewma_s / max(self.config.workers, 1)
            raise AdmissionRefused("queue_full", max(per_slot, 0.05), tenant)
        if queue is None:
            queue = self._queues.setdefault(tenant, deque())
        queue.append(item)

    def requeue(self, tenant: str, item: Any) -> None:
        """Re-enqueue an item that was already admitted once (crash
        recovery): bypasses the token bucket and the high-water mark —
        rejecting previously-accepted work would turn a restart into
        data loss — but still lands in the tenant's own queue for fair
        dequeue."""
        self._queues.setdefault(tenant, deque()).append(item)

    # -- dequeue --------------------------------------------------------

    def take(self) -> Any | None:
        """Next item under smooth weighted round-robin, or None if empty."""
        active = [t for t, q in self._queues.items() if q]
        if not active:
            return None
        total = 0.0
        best: str | None = None
        for tenant in active:
            weight = self.config.weight(tenant)
            total += weight
            self._current[tenant] = self._current.get(tenant, 0.0) + weight
            if best is None or self._current[tenant] > self._current[best]:
                best = tenant
        assert best is not None
        self._current[best] -= total
        queue = self._queues[best]
        item = queue.popleft()
        if not queue:
            # Drop empty queues (and their WRR credit) so an idle tenant
            # doesn't bank unfair priority for later.
            del self._queues[best]
            self._current.pop(best, None)
        return item

    def items(self) -> Iterator[Any]:
        """Every queued item, in no particular order."""
        for queue in self._queues.values():
            yield from queue

    def drain_expired(self, is_expired: Callable[[Any], bool]) -> list[Any]:
        """Remove and return every queued item ``is_expired`` flags."""
        removed: list[Any] = []
        for tenant in list(self._queues):
            queue = self._queues[tenant]
            keep = deque(item for item in queue if not is_expired(item))
            if len(keep) != len(queue):
                removed.extend(item for item in queue if is_expired(item))
                if keep:
                    self._queues[tenant] = keep
                else:
                    del self._queues[tenant]
                    self._current.pop(tenant, None)
        return removed

    def drain_all(self) -> list[Any]:
        """Remove and return everything (shutdown abandonment path)."""
        removed: list[Any] = []
        for queue in self._queues.values():
            removed.extend(queue)
        self._queues.clear()
        self._current.clear()
        return removed


class AdmissionRefused(ServiceError):
    """A submission was refused at the door (the HTTP 429 family)."""

    def __init__(self, reason: str, retry_after_s: float, tenant: str) -> None:
        super().__init__(f"{reason} (tenant {tenant!r}, "
                         f"retry after {retry_after_s:.2f}s)")
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.tenant = tenant
