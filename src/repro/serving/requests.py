"""Online request streams: seeded arrival processes and topic drift.

Training replays offline traces; serving faces a *stream*: requests
arrive at their own times, carry their own token counts, and their topic
mix drifts -- which shifts expert popularity, the exact signal FlexMoE's
dynamic placement feeds on. :class:`RequestStream` generates such a
stream deterministically from a seed:

* **Arrival processes** -- ``poisson`` (memoryless constant rate),
  ``bursty`` (a two-state modulated Poisson process: quiet periods
  interleaved with episodes running at ``burst_factor`` times the base
  rate, with the base rate chosen so the *long-run* offered rate still
  equals ``rate_rps``), and ``diurnal`` (sinusoidal rate modulation with
  period ``diurnal_period_s``, modelling the day/night cycle of a user
  population, compressed to simulation scale).
* **Token counts** -- per-request lognormal lengths around
  ``mean_tokens``, clipped to ``[1, max_tokens]``.
* **Topics** -- each request carries a topic id drawn from a categorical
  distribution whose logits follow a mean-reverting random walk, so the
  popular topics (and through them the hot experts -- see
  :class:`~repro.serving.engine.TopicRoutingModel`) churn smoothly over
  the stream, the serving analogue of Figure 3b's routing fluctuation.

The same seed always yields the identical request sequence (arrival
times, token counts and topics), asserted by
``tests/test_serving_requests.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
import dataclasses
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only (slo imports requests)
    from repro.serving.slo import TenantClass

#: Arrival processes understood by :class:`RequestStream`.
ARRIVAL_MODELS = ("poisson", "bursty", "diurnal")

#: Mean-reversion rate of the topic-logit random walk (kept well below 1
#: so the topic mix drifts smoothly, mirroring the routing generator).
TOPIC_THETA = 0.05


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class RequestStreamConfig:
    """Parameters of one seeded request stream.

    Attributes:
        arrival: One of :data:`ARRIVAL_MODELS`.
        rate_rps: Long-run mean arrival rate in requests per second of
            *simulated* time (the serving engine's clock runs on modelled
            step seconds, so rates are calibrated against modelled
            service times -- see ``repro.bench.serving``).
        num_requests: Stream length.
        mean_tokens: Median request length in tokens (the lognormal's
            scale parameter).
        token_sigma: Lognormal shape parameter; 0 makes every request
            exactly ``mean_tokens`` long.
        max_tokens: Hard per-request length cap.
        burst_factor: Rate multiplier during burst episodes (bursty only).
        burst_fraction: Long-run fraction of requests arriving inside
            burst episodes (bursty only).
        burst_mean_length: Mean number of requests per burst episode
            (bursty only).
        diurnal_period_s: Period of the sinusoidal rate modulation in
            simulated seconds (diurnal only).
        diurnal_amplitude: Relative swing of the diurnal rate in
            ``[0, 1)``: the instantaneous rate oscillates between
            ``rate * (1 - a)`` and ``rate * (1 + a)`` (diurnal only).
        num_topics: Size of the topic vocabulary.
        topic_drift: Per-request noise scale of the topic-logit walk; 0
            freezes the topic mix.
        seed: RNG seed; the full request sequence is a pure function of
            the config.
    """

    arrival: str = "poisson"
    rate_rps: float = 100.0
    num_requests: int = 512
    mean_tokens: int = 256
    token_sigma: float = 0.35
    max_tokens: int = 4096
    burst_factor: float = 4.0
    burst_fraction: float = 0.25
    burst_mean_length: float = 16.0
    diurnal_period_s: float = 60.0
    diurnal_amplitude: float = 0.8
    num_topics: int = 8
    topic_drift: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        _require(
            self.arrival in ARRIVAL_MODELS,
            f"arrival must be one of {ARRIVAL_MODELS}, got {self.arrival!r}",
        )
        _require(self.rate_rps > 0, "rate_rps must be > 0")
        _require(self.num_requests >= 1, "num_requests must be >= 1")
        _require(self.mean_tokens >= 1, "mean_tokens must be >= 1")
        _require(self.token_sigma >= 0, "token_sigma must be >= 0")
        _require(
            self.max_tokens >= self.mean_tokens,
            "max_tokens must be >= mean_tokens",
        )
        _require(self.burst_factor >= 1, "burst_factor must be >= 1")
        _require(
            0 < self.burst_fraction < 1, "burst_fraction must be in (0, 1)"
        )
        _require(self.burst_mean_length >= 1, "burst_mean_length must be >= 1")
        _require(self.diurnal_period_s > 0, "diurnal_period_s must be > 0")
        _require(
            0 <= self.diurnal_amplitude < 1,
            "diurnal_amplitude must be in [0, 1)",
        )
        _require(self.num_topics >= 1, "num_topics must be >= 1")
        _require(self.topic_drift >= 0, "topic_drift must be >= 0")


@dataclass(frozen=True)
class Request:
    """One inference request.

    Attributes:
        index: Position in the stream (stable request id).
        arrival: Arrival time in simulated seconds.
        tokens: Request length in tokens.
        topic: Topic id in ``[0, num_topics)``, driving which experts the
            request's tokens prefer.
        tenant: Tenant id in a multi-tenant stream (position of the
            owning :class:`TenantSpec` in the spec sequence). Single
            stream runs leave the default ``0``.
    """

    index: int
    arrival: float
    tokens: int
    topic: int
    tenant: int = 0

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ConfigurationError("arrival must be >= 0")
        if self.tokens < 1:
            raise ConfigurationError("tokens must be >= 1")
        if self.topic < 0:
            raise ConfigurationError("topic must be >= 0")
        if self.tenant < 0:
            raise ConfigurationError("tenant must be >= 0")


class RequestStream:
    """Seeded generator of an online request sequence.

    Args:
        config: Stream parameters; the generated sequence is a pure
            function of this config (same seed, same stream).
    """

    def __init__(self, config: RequestStreamConfig) -> None:
        self._config = config

    # ------------------------------------------------------------------
    # Arrival-rate models
    # ------------------------------------------------------------------
    def _bursty_base_rate(self) -> float:
        """Base (quiet) rate keeping the long-run mean at ``rate_rps``.

        Episode membership is decided per request, so fraction ``f`` of
        *requests* arrive inside episodes running at ``k`` times the base
        rate. The expected stream duration for ``n`` requests is then
        ``n * ((1 - f) / base + f / (k * base))``, and the long-run
        (time-averaged) rate equals ``rate_rps`` when
        ``base = rate_rps * (1 - f + f / k)``.
        """
        cfg = self._config
        return cfg.rate_rps * (
            1.0 - cfg.burst_fraction + cfg.burst_fraction / cfg.burst_factor
        )

    def _diurnal_rate(self, now: float) -> float:
        cfg = self._config
        phase = 2.0 * np.pi * now / cfg.diurnal_period_s
        return cfg.rate_rps * (1.0 + cfg.diurnal_amplitude * np.sin(phase))

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self) -> tuple[Request, ...]:
        """Materialize the request sequence (sorted by arrival time)."""
        cfg = self._config
        rng = np.random.default_rng(cfg.seed)
        # Topic logits walk with mean reversion to the flat mix.
        topic_logits = np.zeros(cfg.num_topics)
        in_burst = False
        # Episode-transition probabilities per request: leaving a burst
        # after ``burst_mean_length`` requests on average; entering one
        # at the rate that makes ``burst_fraction`` the stationary share.
        p_exit = 1.0 / cfg.burst_mean_length
        p_enter = p_exit * cfg.burst_fraction / (1.0 - cfg.burst_fraction)
        base_rate = self._bursty_base_rate()

        now = 0.0
        requests: list[Request] = []
        for index in range(cfg.num_requests):
            if cfg.arrival == "poisson":
                rate = cfg.rate_rps
            elif cfg.arrival == "bursty":
                if in_burst:
                    in_burst = rng.random() >= p_exit
                else:
                    in_burst = rng.random() < p_enter
                rate = base_rate * (cfg.burst_factor if in_burst else 1.0)
            else:  # diurnal: rate evaluated at the current clock
                rate = max(self._diurnal_rate(now), 1e-9)
            now += rng.exponential(1.0 / rate)

            if cfg.token_sigma == 0:
                tokens = cfg.mean_tokens
            else:
                drawn = rng.lognormal(
                    mean=np.log(cfg.mean_tokens), sigma=cfg.token_sigma
                )
                tokens = int(np.clip(round(drawn), 1, cfg.max_tokens))

            if cfg.topic_drift > 0 and cfg.num_topics > 1:
                noise = rng.normal(0.0, cfg.topic_drift, cfg.num_topics)
                topic_logits += noise - TOPIC_THETA * topic_logits
            z = topic_logits - topic_logits.max()
            probs = np.exp(z)
            probs /= probs.sum()
            topic = int(rng.choice(cfg.num_topics, p=probs))

            requests.append(
                Request(index=index, arrival=float(now), tokens=tokens, topic=topic)
            )
        return tuple(requests)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a multi-tenant serving scenario.

    A tenant owns its own seeded arrival stream, belongs to a
    :class:`~repro.serving.slo.TenantClass` (which carries the SLO,
    priority level and preemptibility shared by every tenant of that
    class), and may carry per-tenant resource bounds the
    :class:`~repro.serving.admission.PriorityAdmissionQueue` enforces.

    Attributes:
        name: Tenant identifier (unique within a scenario).
        stream: The tenant's seeded arrival stream.
        tenant_class: Service class: SLO, priority and preemptibility.
        weight: Weighted-fair share within a priority level; the batcher
            favours the tenant with the smallest
            ``dispatched_tokens / weight`` when several same-priority
            tenants have work queued.
        quota_tokens: Per-micro-batch token quota; a tenant already
            holding ``quota_tokens`` of the forming batch is skipped in
            favour of other tenants (its *first* request in a batch is
            always eligible, mirroring the oversized-request rule --
            quotas bound sharing, they never starve a tenant outright).
            ``None`` disables the quota.
        max_queue_tokens: Per-tenant backpressure bound on queued
            tokens; the tenant's arrivals are rejected past it even when
            the global queue bound still has room. ``None`` leaves only
            the global bound.
    """

    name: str
    stream: RequestStreamConfig
    tenant_class: "TenantClass"
    weight: float = 1.0
    quota_tokens: int | None = None
    max_queue_tokens: int | None = None

    def __post_init__(self) -> None:
        _require(bool(self.name), "tenant name must not be empty")
        _require(self.weight > 0, "weight must be > 0")
        _require(
            self.quota_tokens is None or self.quota_tokens >= 1,
            "quota_tokens must be >= 1",
        )
        _require(
            self.max_queue_tokens is None or self.max_queue_tokens >= 1,
            "max_queue_tokens must be >= 1",
        )
        # Duck-typed (slo.py imports this module, so the class itself
        # cannot be imported here at runtime).
        _require(
            hasattr(self.tenant_class, "priority")
            and hasattr(self.tenant_class, "slo"),
            "tenant_class must be a TenantClass (priority + slo)",
        )


def merge_tenant_requests(specs: Sequence[TenantSpec]) -> tuple[Request, ...]:
    """Materialize and merge every tenant's stream into one sequence.

    Each request is tagged with its tenant id (the spec's position),
    the merged sequence is sorted by ``(arrival, tenant, index)`` and
    re-indexed globally. With a single tenant this is the identity: the
    merged sequence equals the tenant's own stream (its requests already
    arrive in index order and carry ``tenant=0``), which is what the
    single-tenant reduction identity test pins.
    """
    if not specs:
        raise ConfigurationError("specs must not be empty")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"tenant names must be unique, got {names}")
    tagged: list[Request] = []
    for tenant, spec in enumerate(specs):
        for request in RequestStream(spec.stream).generate():
            tagged.append(dataclasses.replace(request, tenant=tenant))
    tagged.sort(key=lambda r: (r.arrival, r.tenant, r.index))
    return tuple(
        dataclasses.replace(request, index=index)
        for index, request in enumerate(tagged)
    )
