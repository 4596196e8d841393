"""Retry-with-capped-backoff for flaky actuations and reads.

The paper's daemon shelled out to ``nvidia-settings`` for every frequency
write; on the real testbed those writes occasionally fail and the fix is
simply to try again.  :func:`call_with_retry` packages that: bounded
attempts, exponential backoff capped at a ceiling.

Backoff semantics under simulation: controller callbacks run *inside* a
sim-clock dispatch and must not advance time, so the computed backoff is
not slept — it is reported to the ``on_retry`` hook (the controller logs
it to the trace), exactly what a real daemon would sleep.  The attempt
bound, not the sleep, is what the simulated robustness results depend on.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import ActuationError, ConfigError, MonitorError

#: Accepted values of :attr:`RetryPolicy.jitter`.
JITTER_MODES = ("none", "decorrelated")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry schedule with capped exponential backoff.

    ``jitter="decorrelated"`` replaces the deterministic exponential
    schedule with decorrelated jitter (*Exponential Backoff and Jitter*,
    AWS Architecture Blog): each backoff is drawn uniformly from
    ``[base, 3 * previous]`` and capped.  A fleet of workers that all
    failed at the same instant then retries at spread-out times instead
    of stampeding in lockstep.  With ``jitter_seed`` set, the draw
    stream is deterministic (per ``salt``, typically the job name), so
    tests and resumed runs can pin the exact schedule.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    jitter: str = "none"
    jitter_seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("need at least one attempt")
        if self.base_backoff_s < 0.0 or self.max_backoff_s < 0.0:
            raise ConfigError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff factor must be >= 1")
        if self.jitter not in JITTER_MODES:
            raise ConfigError(
                f"unknown jitter mode {self.jitter!r}; choose from {JITTER_MODES}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Jitter-free backoff after failed attempt ``attempt`` (0-based)."""
        return min(
            self.base_backoff_s * self.backoff_factor ** attempt,
            self.max_backoff_s,
        )

    def backoff_state(self, salt: str | None = None) -> "BackoffState":
        """A fresh per-retry-loop backoff sequence (see :class:`BackoffState`).

        ``salt`` decorrelates seeded streams that share one policy object
        — the supervisor passes the job name, so two jobs retrying under
        the same seeded policy still draw distinct schedules.
        """
        return BackoffState(self, salt=salt)


class BackoffState:
    """One retry loop's backoff sequence; stateful because decorrelated
    jitter draws each interval from the *previous* one."""

    def __init__(self, policy: RetryPolicy, salt: str | None = None) -> None:
        self.policy = policy
        self._attempt = 0
        self._prev = policy.base_backoff_s
        if policy.jitter == "none":
            self._rng = None
        elif policy.jitter_seed is None:
            self._rng = random.Random()
        else:
            material = f"{policy.jitter_seed}:{salt or ''}".encode()
            digest = hashlib.sha256(material).digest()
            self._rng = random.Random(int.from_bytes(digest[:8], "big"))

    def next_backoff(self) -> float:
        """The backoff to wait after the next failed attempt."""
        attempt = self._attempt
        self._attempt += 1
        if self._rng is None:
            return self.policy.backoff_s(attempt)
        low = self.policy.base_backoff_s
        high = max(self._prev * 3.0, low)
        backoff = min(self._rng.uniform(low, high), self.policy.max_backoff_s)
        self._prev = backoff
        return backoff


def call_with_retry(
    fn: Callable[[], Any],
    policy: RetryPolicy | None = None,
    on_retry: Callable[[int, float, Exception], None] | None = None,
    retry_on: tuple[type[Exception], ...] = (ActuationError, MonitorError),
) -> tuple[Any, int]:
    """Call ``fn`` with up to ``policy.max_attempts`` attempts.

    Returns ``(result, retries_used)``.  After each failed attempt that
    leaves budget, ``on_retry(attempt, backoff_s, exc)`` is invoked; when
    the budget is exhausted the last exception propagates.  Exceptions
    outside ``retry_on`` propagate immediately (a programming error is
    not a transient fault).
    """
    policy = policy or RetryPolicy()
    backoff: BackoffState | None = None  # built on the first failure
    last: Exception | None = None
    for attempt in range(policy.max_attempts):
        try:
            return fn(), attempt
        except retry_on as exc:
            last = exc
            if backoff is None:
                backoff = policy.backoff_state()
            backoff_s = backoff.next_backoff()
            if attempt + 1 < policy.max_attempts and on_retry is not None:
                on_retry(attempt, backoff_s, exc)
    assert last is not None
    raise last
