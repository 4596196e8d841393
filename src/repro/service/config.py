"""Configuration for the simulation-as-a-service daemon.

Every robustness knob of the serving layer lives here so a deployment
(or a chaos test) can shape the whole degradation ladder from one
object: queue bounds and the global high-water mark (admission control),
token-bucket rates (per-tenant throttling), deadline and timeout
ceilings, circuit-breaker thresholds, and drain behavior.

The defaults are sized for the CI smoke environment — small queues that
overflow quickly under the chaos suite — not for production; a real
deployment raises them via ``serve`` CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Tenant identifier for requests that do not name one.
DEFAULT_TENANT = "public"


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving layer (see module docstring)."""

    host: str = "127.0.0.1"
    port: int = 8100                  # 0 = pick an ephemeral port
    workers: int = 2                  # concurrent simulation executions

    # -- admission control / backpressure ------------------------------
    tenant_queue_limit: int = 64      # bounded per-tenant queue depth
    global_high_water: int = 256      # total queued jobs before load-shed
    rate_per_tenant: float = 50.0     # token-bucket refill, jobs/second
    burst_per_tenant: float = 100.0   # token-bucket capacity
    tenant_weights: dict[str, float] = field(default_factory=dict)
    default_weight: float = 1.0       # weighted-fair share of unlisted tenants

    # -- deadlines and timeouts ----------------------------------------
    job_timeout_s: float = 120.0      # per-attempt wall-clock kill deadline
    max_deadline_s: float = 3600.0    # largest client deadline accepted
    retry_max_attempts: int = 3
    retry_base_backoff_s: float = 0.05
    retry_max_backoff_s: float = 1.0
    retry_jitter_seed: int | None = None  # None = entropy; set for tests

    # -- circuit breaker / degradation ladder --------------------------
    breaker_cache_only_after: int = 3   # consecutive worker failures
    breaker_hard_open_after: int = 6    # ... before hard-rejecting
    breaker_cooldown_s: float = 5.0     # dwell before a half-open probe

    # -- validation guards on submissions ------------------------------
    max_iterations: int = 64
    max_time_scale: float = 1.0

    # -- lifecycle ------------------------------------------------------
    drain_timeout_s: float = 30.0     # SIGTERM: finish in-flight work
    slow_client_timeout_s: float = 5.0   # per-read header/body deadline
    keepalive_timeout_s: float = 10.0    # idle persistent connections

    # -- observability ---------------------------------------------------
    # When set, served jobs export per-worker telemetry under this
    # directory (workers/<job-id>/) and shutdown merges them, plus the
    # daemon's own stream, into run-level exports — one stitched trace.
    telemetry_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.tenant_queue_limit < 1 or self.global_high_water < 1:
            raise ConfigError("queue bounds must be positive")
        if self.rate_per_tenant <= 0.0 or self.burst_per_tenant <= 0.0:
            raise ConfigError("token-bucket rate and burst must be positive")
        if self.default_weight <= 0.0 or any(
            w <= 0.0 for w in self.tenant_weights.values()
        ):
            raise ConfigError("tenant weights must be positive")
        if self.job_timeout_s <= 0.0 or self.max_deadline_s <= 0.0:
            raise ConfigError("timeouts must be positive")
        if not 0 < self.breaker_cache_only_after <= self.breaker_hard_open_after:
            raise ConfigError(
                "breaker thresholds must satisfy 0 < cache_only <= hard_open"
            )
        if self.breaker_cooldown_s <= 0.0:
            raise ConfigError("breaker cooldown must be positive")
        if self.max_iterations < 1 or self.max_time_scale <= 0.0:
            raise ConfigError("submission guards must be positive")
        if self.drain_timeout_s < 0.0:
            raise ConfigError("drain timeout must be non-negative")

    def weight(self, tenant: str) -> float:
        return self.tenant_weights.get(tenant, self.default_weight)
