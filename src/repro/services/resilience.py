"""Resilient transport: deadlines, retries, backoff, circuit breaking.

The prototype's SOAP calls through Tomcat against Oracle could time
out, drop, or die mid-negotiation; grid deployments of this
architecture treat partial failure as the norm.  This module supplies
the client-side survival kit as a transport decorator::

    client → ResilientTransport → (FaultInjector →) SimTransport

- **Per-call deadline** — a budget of simulated milliseconds across
  all attempts of one logical call; exceeding it raises
  :class:`~repro.errors.TimeoutError`.  The budget is checked before
  each attempt *and* before each backoff wait (a retry whose backoff
  alone would overrun the deadline is abandoned immediately); it is
  best-effort within a single attempt — an in-flight attempt runs to
  completion even if its simulated wait crosses the deadline.
- **Bounded retries** — transient failures (timeouts, transport
  errors, database-connect failures) are retried up to
  ``max_attempts`` with exponential backoff and *deterministic*
  jitter (CRC-derived, no wall-clock randomness); every backoff is
  charged to the :class:`~repro.services.clock.SimClock`.
- **Circuit breaker** — per-endpoint CLOSED → OPEN → HALF_OPEN state
  machine: after ``failure_threshold`` consecutive transient failures
  the breaker opens and calls fail fast with
  :class:`~repro.errors.CircuitOpenError`; after ``reset_timeout_ms``
  of simulated time exactly **one** half-open probe is allowed
  through (concurrent callers fail fast) — success closes the
  breaker, failure re-opens it.

Application-level errors (:class:`~repro.errors.ServiceError`
subclasses that are not transport failures, e.g. an unknown session
id) are *not* retried and do not trip the breaker: the endpoint
answered, the answer was just "no".  Two exceptions interact with the
hardening layer (:mod:`repro.hardening`):

- :class:`~repro.errors.OverloadError` sheds **are** retried, waiting
  at least the server's ``retry_after_ms`` backpressure hint, and do
  not trip the breaker (a shedding peer is alive, not down);
- when a ``deadline_ms`` budget is set, it is propagated to the
  service as a ``deadlineMs`` payload field so admission control can
  shed already-expired work *before* evaluation (stale or looser
  caller-supplied deadlines are re-stamped; valid tighter ones pass
  through).

:class:`ResilientTransport` is proven bit-identical to the frozen
original loop — stats, clock charges, obs signals, exception types,
messages and chaining — by ``tests/faults/test_resilience_parity.py``,
apart from the single half-open probe and the deadline re-stamping
above (see ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.errors import (
    CircuitOpenError,
    DatabaseUnavailableError,
    OverloadError,
    RetryExhaustedError,
    TimeoutError,
    TransportError,
)
from repro.obs import (
    count as obs_count,
    enabled as obs_enabled,
    event as obs_event,
    observe as obs_observe,
)
from repro.services.clock import SimClock
from repro.services.transport import LatencyModel, SimTransport

__all__ = [
    "RetryPolicy",
    "CircuitBreakerPolicy",
    "CircuitState",
    "CircuitBreaker",
    "ResilienceStats",
    "ResilientTransport",
    "TRANSIENT_ERRORS",
]

#: Failures worth retrying: the endpoint may answer next time.
TRANSIENT_ERRORS = (TimeoutError, TransportError, DatabaseUnavailableError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter."""

    max_attempts: int = 4
    base_backoff_ms: float = 100.0
    multiplier: float = 2.0
    max_backoff_ms: float = 2000.0
    jitter_ms: float = 50.0
    #: Seed folded into the jitter hash so distinct runs can decorrelate
    #: while staying reproducible.
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if not self.max_attempts >= 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        for name in ("base_backoff_ms", "multiplier", "max_backoff_ms",
                     "jitter_ms"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def backoff_ms(self, url: str, operation: str, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        base = min(
            self.max_backoff_ms,
            self.base_backoff_ms * self.multiplier ** (attempt - 1),
        )
        if self.jitter_ms <= 0:
            return base
        token = f"{self.jitter_seed}|{url}|{operation}|{attempt}"
        fraction = (zlib.crc32(token.encode("utf-8")) % 1000) / 999.0
        return base + fraction * self.jitter_ms


@dataclass(frozen=True)
class CircuitBreakerPolicy:
    failure_threshold: int = 5
    reset_timeout_ms: float = 5000.0

    def __post_init__(self) -> None:
        if not self.failure_threshold >= 1:
            raise ValueError(
                f"failure_threshold must be >= 1, "
                f"got {self.failure_threshold}"
            )
        if not self.reset_timeout_ms >= 0:
            raise ValueError(
                f"reset_timeout_ms must be >= 0, got {self.reset_timeout_ms}"
            )


class CircuitState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Per-endpoint breaker over simulated time.

    HALF_OPEN admits exactly **one** probe per reset window: the first
    caller through :meth:`allow` takes the probe token
    (``probe_in_flight``); everyone else fails fast until the probe
    resolves.  A success closes the breaker, a transient failure
    re-opens it, and a probe that ends without a breaker verdict
    (application-level error) must hand the token back via
    :meth:`release_probe` — :meth:`ResilientTransport.call` does this
    automatically.
    """

    policy: CircuitBreakerPolicy = field(default_factory=CircuitBreakerPolicy)
    state: CircuitState = CircuitState.CLOSED
    consecutive_failures: int = 0
    opened_at_ms: float = 0.0
    opens: int = 0
    probe_in_flight: bool = False

    def allow(self, now_ms: float) -> bool:
        """Whether a call may go through right now."""
        if self.state is CircuitState.OPEN:
            if now_ms - self.opened_at_ms >= self.policy.reset_timeout_ms:
                self.state = CircuitState.HALF_OPEN
                self.probe_in_flight = True
                return True
            return False
        if self.state is CircuitState.HALF_OPEN:
            if self.probe_in_flight:
                return False  # one probe at a time; don't stampede
            self.probe_in_flight = True
            return True
        return True  # CLOSED

    def record_success(self) -> None:
        self.state = CircuitState.CLOSED
        self.consecutive_failures = 0
        self.probe_in_flight = False

    def record_failure(self, now_ms: float) -> None:
        self.consecutive_failures += 1
        self.probe_in_flight = False
        if self.state is CircuitState.HALF_OPEN:
            self._open(now_ms)  # failed probe: straight back to OPEN
        elif self.consecutive_failures >= self.policy.failure_threshold:
            self._open(now_ms)

    def release_probe(self) -> None:
        """Hand back the half-open probe token without a verdict."""
        if self.state is CircuitState.HALF_OPEN:
            self.probe_in_flight = False

    def _open(self, now_ms: float) -> None:
        self.state = CircuitState.OPEN
        self.opened_at_ms = now_ms
        self.opens += 1
        self.probe_in_flight = False


@dataclass
class ResilienceStats:
    calls: int = 0
    attempts: int = 0
    retries: int = 0
    backoff_ms_total: float = 0.0
    deadline_expiries: int = 0
    breaker_rejections: int = 0
    exhausted: int = 0
    #: Retries that honored a server ``retry_after_ms`` overload hint.
    backpressure_waits: int = 0


def _valid_deadline(supplied: object, started_ms: float,
                    stamped_ms: float) -> bool:
    """A caller-supplied ``deadlineMs`` is honored only when it is a
    real number, not already expired, and no looser than this call's
    own budget."""
    if isinstance(supplied, bool) or not isinstance(supplied, (int, float)):
        return False
    return started_ms < supplied <= stamped_ms


@dataclass
class ResilientTransport:
    """Retry/backoff/circuit-breaker decorator over a transport."""

    inner: SimTransport  # or any transport-shaped decorator
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_policy: CircuitBreakerPolicy = field(
        default_factory=CircuitBreakerPolicy
    )
    #: Simulated-ms budget for one logical call across all attempts;
    #: ``None`` disables the deadline.
    deadline_ms: float | None = 30_000.0
    stats: ResilienceStats = field(default_factory=ResilienceStats)
    _breakers: dict[str, CircuitBreaker] = field(default_factory=dict)

    # -- transport interface (delegation) ------------------------------------------

    @property
    def clock(self):
        return self.inner.clock

    @property
    def base_clock(self) -> SimClock:
        return self.inner.base_clock

    def clock_branch(self, source: Optional[SimClock] = None):
        return self.inner.clock_branch(source)

    @property
    def model(self) -> LatencyModel:
        return self.inner.model

    @property
    def calls(self) -> int:
        return self.inner.calls

    @property
    def charges(self):
        return self.inner.charges

    def bind(self, url: str, handler) -> None:
        self.inner.bind(url, handler)

    def unbind(self, url: str) -> None:
        self.inner.unbind(url)

    def is_bound(self, url: str) -> bool:
        return self.inner.is_bound(url)

    def endpoints(self) -> list[str]:
        return self.inner.endpoints()

    def charge_messages(self, count: int) -> None:
        self.inner.charge_messages(count)

    def charge_db(self, reads: int = 0, writes: int = 0,
                  connect: bool = False) -> None:
        self.inner.charge_db(reads=reads, writes=writes, connect=connect)

    def charge_crypto(self, signs: int = 0, verifies: int = 0) -> None:
        self.inner.charge_crypto(signs=signs, verifies=verifies)

    def charge_ui(self, interactions: int = 1) -> None:
        self.inner.charge_ui(interactions)

    def charge_mail(self, deliveries: int = 1) -> None:
        self.inner.charge_mail(deliveries)

    # -- breakers ---------------------------------------------------------------------

    def breaker(self, url: str) -> CircuitBreaker:
        breaker = self._breakers.get(url)
        if breaker is None:
            breaker = CircuitBreaker(policy=self.breaker_policy)
            self._breakers[url] = breaker
        return breaker

    # -- invocation -------------------------------------------------------------------

    def call(self, url: str, operation: str, payload: dict) -> dict:
        clock = self.clock
        retry = self.retry
        deadline_ms = self.deadline_ms
        stats = self.stats
        breaker = self.breaker(url)
        started_ms = clock.elapsed_ms
        stats.calls += 1
        obs_count("resilience.calls")
        if deadline_ms is not None and isinstance(payload, dict):
            # Propagate the client's deadline to the service so expired
            # work is shed there *before* evaluation, not discarded here
            # after the engine already paid for it.  Re-stamp unless the
            # supplied deadline is a valid, tighter-or-equal budget.
            stamped = started_ms + deadline_ms
            if not _valid_deadline(payload.get("deadlineMs"), started_ms,
                                   stamped):
                payload = {**payload, "deadlineMs": stamped}

        def expired(detail: str, holds_probe: bool) -> TimeoutError:
            stats.deadline_expiries += 1
            obs_count("resilience.deadline_expiries")
            if holds_probe:
                breaker.release_probe()
            return TimeoutError(
                f"deadline of {deadline_ms:.0f} ms exceeded calling "
                f"{operation!r} at {url!r} (attempt {detail})"
            )

        last_error: Optional[Exception] = None
        holds_probe = False
        for attempt in range(1, retry.max_attempts + 1):
            now = clock.elapsed_ms
            if holds_probe and breaker.state is CircuitState.HALF_OPEN:
                allowed = True  # we already hold the probe token
            else:
                allowed = breaker.allow(now)
                if allowed and breaker.state is CircuitState.HALF_OPEN:
                    holds_probe = True
            if not allowed:
                stats.breaker_rejections += 1
                if obs_enabled():
                    obs_count("resilience.breaker_rejections")
                    obs_event(
                        "resilience.breaker_open",
                        clock=clock,
                        url=url,
                        operation=operation,
                        consecutive_failures=breaker.consecutive_failures,
                    )
                raise CircuitOpenError(
                    f"circuit for {url!r} is open "
                    f"({breaker.consecutive_failures} consecutive failures; "
                    f"retry after {breaker.policy.reset_timeout_ms:.0f} "
                    "simulated ms)"
                ) from last_error
            if deadline_ms is not None and now - started_ms >= deadline_ms:
                raise expired(str(attempt), holds_probe) from last_error
            stats.attempts += 1
            try:
                response = self.inner.call(url, operation, payload)
            except OverloadError as exc:
                # The peer shed us under load.  That is backpressure,
                # not peer failure: honor its Retry-After hint instead
                # of hammering it, and leave the breaker alone (the
                # endpoint answered — fast-failing the whole endpoint
                # would amplify the overload into an outage).
                last_error = exc
                if attempt >= retry.max_attempts:
                    continue
                delay = max(
                    retry.backoff_ms(url, operation, attempt),
                    exc.retry_after_ms,
                )
                if (
                    deadline_ms is not None
                    and clock.elapsed_ms - started_ms + delay >= deadline_ms
                ):
                    raise expired(
                        f"{attempt}; honoring a {delay:.0f} ms overload "
                        "hint would overrun",
                        holds_probe,
                    ) from exc
                clock.advance(delay)
                stats.backoff_ms_total += delay
                stats.retries += 1
                stats.backpressure_waits += 1
                if obs_enabled():
                    obs_count("resilience.retries")
                    obs_count("resilience.backpressure_waits")
                    obs_observe("resilience.backoff_ms", delay)
                    obs_event(
                        "resilience.backpressure",
                        clock=clock,
                        url=url,
                        operation=operation,
                        attempt=attempt,
                        retry_after_ms=round(exc.retry_after_ms, 3),
                    )
                continue
            except TRANSIENT_ERRORS as exc:
                breaker.record_failure(clock.elapsed_ms)
                holds_probe = False
                last_error = exc
                if attempt >= retry.max_attempts:
                    continue
                delay = retry.backoff_ms(url, operation, attempt)
                if (
                    deadline_ms is not None
                    and clock.elapsed_ms - started_ms + delay >= deadline_ms
                ):
                    # The backoff alone would land the retry past the
                    # deadline: give up now instead of burning the
                    # budget on a wait we already know is lost.
                    raise expired(
                        f"{attempt}; backing off {delay:.0f} ms would "
                        "overrun",
                        False,  # record_failure already took the token
                    ) from exc
                clock.advance(delay)
                stats.backoff_ms_total += delay
                stats.retries += 1
                if obs_enabled():
                    obs_count("resilience.retries")
                    obs_observe("resilience.backoff_ms", delay)
                    obs_event(
                        "resilience.retry",
                        clock=clock,
                        url=url,
                        operation=operation,
                        attempt=attempt,
                        backoff_ms=round(delay, 3),
                        error=type(exc).__name__,
                    )
                continue
            except Exception:
                # Application-level error: the endpoint answered, the
                # answer was just "no".  Not retried, breaker untouched
                # — but a probe token must not leak with it (a stuck
                # token would deadlock the breaker in HALF_OPEN).
                if holds_probe:
                    breaker.release_probe()
                raise
            breaker.record_success()
            return response
        stats.exhausted += 1
        obs_count("resilience.exhausted")
        if holds_probe:
            breaker.release_probe()
        raise RetryExhaustedError(
            f"{operation!r} at {url!r} failed after "
            f"{retry.max_attempts} attempts: {last_error}",
            attempts=retry.max_attempts,
            last_error=last_error,
        ) from last_error
