"""Resilience parity: the frozen legacy loop vs ``ResilientTransport``.

:meth:`ResilientTransport.call` has been restructured more than once
(split into an effect generator, then folded back into one plain
loop), each time under the promise that it stays *bit-identical* to
the original implementation — same stats, same simulated-clock
charges, same exception types, messages, ``__cause__`` chaining and
``__suppress_context__``, same breaker transitions, and the same
``repro.obs`` output (``resilience.*`` counters and histograms, and
the retry / backpressure / breaker-open events with their fields and
simulated timestamps).  This suite proves it by embedding the frozen
original ``call`` loop (``LegacyResilientTransport``, copied verbatim
from the git history) and running every scenario through both with
observability enabled.  Each scenario also runs with every call
issued from an asyncio task — the way ``TNClient.anegotiate`` and the
asyncio soak reach the transport — which must not change a single
decision.

Two behavioral changes are *intentional* and excluded from the parity
contract; each gets its own divergence test at the bottom:

- stale/looser caller-supplied ``deadlineMs`` values are re-stamped
  (the legacy loop forwarded them verbatim);
- HALF_OPEN admits exactly one probe (the legacy breaker admitted
  unlimited concurrent probes).  Sequential single-caller use — which
  is all the legacy sync transport ever saw — is unaffected, so it
  stays inside the parity contract.
"""

from __future__ import annotations

import asyncio
import dataclasses
from dataclasses import dataclass, field

import pytest

from repro import obs
from repro.errors import (
    CircuitOpenError,
    DatabaseUnavailableError,
    OverloadError,
    RetryExhaustedError,
    SessionError,
    TimeoutError,
    TransportError,
)
from repro.obs import (
    count as obs_count,
    enabled as obs_enabled,
    event as obs_event,
    observe as obs_observe,
)
from repro.services.resilience import (
    TRANSIENT_ERRORS,
    CircuitBreakerPolicy,
    CircuitState,
    ResilienceStats,
    ResilientTransport,
    RetryPolicy,
)
from repro.services.transport import SimTransport

URL = "urn:parity:svc"
OP = "Probe"


# -- the frozen pre-refactor implementation ---------------------------------------
#
# Copied from the last commit before the sans-IO extraction (git show
# HEAD~1:src/repro/services/resilience.py at the time of the refactor)
# with only renames.  Policy/stats dataclasses are shared with the new
# module — they were moved, not changed.


@dataclass
class LegacyCircuitBreaker:
    """The pre-refactor breaker: HALF_OPEN admits unlimited probes."""

    policy: CircuitBreakerPolicy = field(default_factory=CircuitBreakerPolicy)
    state: CircuitState = CircuitState.CLOSED
    consecutive_failures: int = 0
    opened_at_ms: float = 0.0
    opens: int = 0

    def allow(self, now_ms: float) -> bool:
        if self.state is CircuitState.OPEN:
            if now_ms - self.opened_at_ms >= self.policy.reset_timeout_ms:
                self.state = CircuitState.HALF_OPEN
                return True
            return False
        return True  # CLOSED or HALF_OPEN (probe in flight)

    def record_success(self) -> None:
        self.state = CircuitState.CLOSED
        self.consecutive_failures = 0

    def record_failure(self, now_ms: float) -> None:
        self.consecutive_failures += 1
        if self.state is CircuitState.HALF_OPEN:
            self._open(now_ms)
        elif self.consecutive_failures >= self.policy.failure_threshold:
            self._open(now_ms)

    def _open(self, now_ms: float) -> None:
        self.state = CircuitState.OPEN
        self.opened_at_ms = now_ms
        self.opens += 1


@dataclass
class LegacyResilientTransport:
    """The pre-refactor ``call`` loop, verbatim."""

    inner: SimTransport
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_policy: CircuitBreakerPolicy = field(
        default_factory=CircuitBreakerPolicy
    )
    deadline_ms: float | None = 30_000.0
    stats: ResilienceStats = field(default_factory=ResilienceStats)
    _breakers: dict[str, LegacyCircuitBreaker] = field(default_factory=dict)

    @property
    def clock(self):
        return self.inner.clock

    def breaker(self, url: str) -> LegacyCircuitBreaker:
        breaker = self._breakers.get(url)
        if breaker is None:
            breaker = LegacyCircuitBreaker(policy=self.breaker_policy)
            self._breakers[url] = breaker
        return breaker

    def call(self, url: str, operation: str, payload: dict) -> dict:
        self.stats.calls += 1
        obs_count("resilience.calls")
        breaker = self.breaker(url)
        started_ms = self.clock.elapsed_ms
        if (
            self.deadline_ms is not None
            and isinstance(payload, dict)
            and "deadlineMs" not in payload
        ):
            payload = {**payload, "deadlineMs": started_ms + self.deadline_ms}
        last_error: Exception | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            now = self.clock.elapsed_ms
            if not breaker.allow(now):
                self.stats.breaker_rejections += 1
                if obs_enabled():
                    obs_count("resilience.breaker_rejections")
                    obs_event(
                        "resilience.breaker_open",
                        clock=self.clock,
                        url=url,
                        operation=operation,
                        consecutive_failures=breaker.consecutive_failures,
                    )
                raise CircuitOpenError(
                    f"circuit for {url!r} is open "
                    f"({breaker.consecutive_failures} consecutive failures; "
                    f"retry after {self.breaker_policy.reset_timeout_ms:.0f} "
                    "simulated ms)"
                ) from last_error
            if (
                self.deadline_ms is not None
                and now - started_ms >= self.deadline_ms
            ):
                self.stats.deadline_expiries += 1
                obs_count("resilience.deadline_expiries")
                raise TimeoutError(
                    f"deadline of {self.deadline_ms:.0f} ms exceeded calling "
                    f"{operation!r} at {url!r} (attempt {attempt})"
                ) from last_error
            self.stats.attempts += 1
            try:
                response = self.inner.call(url, operation, payload)
            except OverloadError as exc:
                last_error = exc
                if attempt >= self.retry.max_attempts:
                    continue
                delay = max(
                    self.retry.backoff_ms(url, operation, attempt),
                    exc.retry_after_ms,
                )
                if (
                    self.deadline_ms is not None
                    and self.clock.elapsed_ms - started_ms + delay
                    >= self.deadline_ms
                ):
                    self.stats.deadline_expiries += 1
                    obs_count("resilience.deadline_expiries")
                    raise TimeoutError(
                        f"deadline of {self.deadline_ms:.0f} ms exceeded "
                        f"calling {operation!r} at {url!r} (attempt "
                        f"{attempt}; honoring a {delay:.0f} ms overload "
                        "hint would overrun)"
                    ) from exc
                self.clock.advance(delay)
                self.stats.backoff_ms_total += delay
                self.stats.retries += 1
                self.stats.backpressure_waits += 1
                if obs_enabled():
                    obs_count("resilience.retries")
                    obs_count("resilience.backpressure_waits")
                    obs_observe("resilience.backoff_ms", delay)
                    obs_event(
                        "resilience.backpressure",
                        clock=self.clock,
                        url=url,
                        operation=operation,
                        attempt=attempt,
                        retry_after_ms=round(exc.retry_after_ms, 3),
                    )
                continue
            except TRANSIENT_ERRORS as exc:
                breaker.record_failure(self.clock.elapsed_ms)
                last_error = exc
                if attempt < self.retry.max_attempts:
                    delay = self.retry.backoff_ms(url, operation, attempt)
                    if (
                        self.deadline_ms is not None
                        and self.clock.elapsed_ms - started_ms + delay
                        >= self.deadline_ms
                    ):
                        self.stats.deadline_expiries += 1
                        obs_count("resilience.deadline_expiries")
                        raise TimeoutError(
                            f"deadline of {self.deadline_ms:.0f} ms "
                            f"exceeded calling {operation!r} at {url!r} "
                            f"(attempt {attempt}; backing off "
                            f"{delay:.0f} ms would overrun)"
                        ) from exc
                    self.clock.advance(delay)
                    self.stats.backoff_ms_total += delay
                    self.stats.retries += 1
                    if obs_enabled():
                        obs_count("resilience.retries")
                        obs_observe("resilience.backoff_ms", delay)
                        obs_event(
                            "resilience.retry",
                            clock=self.clock,
                            url=url,
                            operation=operation,
                            attempt=attempt,
                            backoff_ms=round(delay, 3),
                            error=type(exc).__name__,
                        )
                continue
            breaker.record_success()
            return response
        self.stats.exhausted += 1
        obs_count("resilience.exhausted")
        raise RetryExhaustedError(
            f"{operation!r} at {url!r} failed after "
            f"{self.retry.max_attempts} attempts: {last_error}",
            attempts=self.retry.max_attempts,
            last_error=last_error,
        ) from last_error


# -- harness ----------------------------------------------------------------------


def _make_handler(script, seen):
    """A scripted endpoint: one action per delivered attempt, across
    all calls of a scenario.  ``None`` answers, an exception factory
    raises, ``("advance", ms, factory)`` burns simulated time first
    (a slow endpoint).  Every delivered payload is recorded so
    ``deadlineMs`` propagation is part of the parity contract."""
    state = {"i": 0}

    def handler(operation, payload):
        seen.append(dict(payload))
        index = state["i"]
        state["i"] += 1
        action = script[index] if index < len(script) else None
        if action is None:
            return {"ok": True, "attempt": index + 1}
        if isinstance(action, tuple):
            _, advance_ms, factory = action
            handler.transport.clock.advance(advance_ms)
            if factory is None:
                return {"ok": True, "attempt": index + 1}
            raise factory()
        raise action()

    return handler


_DRIVERS = ("legacy", "sync", "async")


async def _from_task(resilient, payload):
    await asyncio.sleep(0)
    return resilient.call(URL, OP, payload)


def _run(driver, spec):
    """Run one scenario through one stack, with ``repro.obs`` enabled,
    and distill everything observable into a comparable record."""
    obs.enable()
    try:
        record = _run_observed(driver, spec)
    finally:
        obs.disable()
    record["metrics"] = {
        name: summary for name, summary in obs.metrics().items()
        if name.startswith("resilience.")
    }
    record["events"] = [
        (event.name, event.virtual_ms, event.fields)
        for event in obs.events()
        if event.name.startswith("resilience.")
    ]
    return record


def _run_observed(driver, spec):
    transport = SimTransport()
    seen = []
    handler = _make_handler(spec.get("script", []), seen)
    handler.transport = transport
    transport.bind(URL, handler)
    cls = {
        "legacy": LegacyResilientTransport,
        "sync": ResilientTransport,
        "async": ResilientTransport,
    }[driver]
    resilient = cls(
        transport,
        retry=spec.get("retry", RetryPolicy()),
        breaker_policy=spec.get("breaker", CircuitBreakerPolicy()),
        deadline_ms=spec.get("deadline_ms", 30_000.0),
    )
    outcomes = []
    for advance_ms, payload in spec["calls"]:
        if advance_ms:
            transport.clock.advance(advance_ms)
        try:
            if driver == "async":
                response = asyncio.run(_from_task(resilient, payload))
            else:
                response = resilient.call(URL, OP, payload)
        except Exception as exc:  # noqa: BLE001 - the exception IS the data
            cause = exc.__cause__
            outcomes.append((
                "error",
                type(exc).__name__,
                str(exc),
                type(cause).__name__ if cause is not None else None,
                exc.__suppress_context__,
            ))
        else:
            outcomes.append(("ok", response))
    breaker = resilient._breakers.get(URL)
    return {
        "outcomes": outcomes,
        "stats": dataclasses.asdict(resilient.stats),
        "elapsed_ms": transport.clock.elapsed_ms,
        "transport_calls": transport.calls,
        "service_saw": seen,
        "breaker": None if breaker is None else (
            breaker.state.value,
            breaker.consecutive_failures,
            breaker.opens,
        ),
    }


SCENARIOS = {
    "clean_success": {
        "script": [None],
        "calls": [(0.0, {"resource": "r"})],
    },
    "transient_retries_then_success": {
        "script": [
            lambda: TransportError("link flapped"),
            lambda: TimeoutError("peer slow"),
            None,
        ],
        "calls": [(0.0, {})],
    },
    "retry_exhaustion": {
        "script": [lambda: DatabaseUnavailableError("oracle down")] * 3,
        "retry": RetryPolicy(max_attempts=3),
        "calls": [(0.0, {})],
    },
    "breaker_opens_mid_call": {
        # threshold 2 trips inside one logical call; the rejection
        # chains from the last transient error.
        "script": [lambda: TransportError("down")] * 2,
        "retry": RetryPolicy(max_attempts=4),
        "breaker": CircuitBreakerPolicy(failure_threshold=2,
                                        reset_timeout_ms=60_000.0),
        "calls": [(0.0, {})],
    },
    "breaker_fast_fail_then_probe_recovery": {
        # three one-attempt calls open the breaker, the fourth fails
        # fast, then the reset window elapses and the half-open probe
        # succeeds and closes it.
        "script": [lambda: TransportError("down")] * 3 + [None],
        "retry": RetryPolicy(max_attempts=1),
        "breaker": CircuitBreakerPolicy(failure_threshold=3,
                                        reset_timeout_ms=1000.0),
        "calls": [(0.0, {}), (0.0, {}), (0.0, {}), (0.0, {}), (1001.0, {})],
    },
    "backpressure_hint_honored": {
        "script": [
            lambda: OverloadError("queue full", retry_after_ms=700.0),
            None,
        ],
        "calls": [(0.0, {})],
    },
    "overload_exhaustion": {
        "script": [
            lambda: OverloadError("queue full", retry_after_ms=10.0),
        ] * 2,
        "retry": RetryPolicy(max_attempts=2),
        "calls": [(0.0, {})],
    },
    "deadline_expired_before_attempt": {
        "script": [],
        "deadline_ms": 0.0,
        "calls": [(0.0, {})],
    },
    "deadline_backoff_would_overrun": {
        "script": [lambda: TransportError("down")],
        "retry": RetryPolicy(max_attempts=3, base_backoff_ms=600.0),
        "deadline_ms": 500.0,
        "calls": [(0.0, {})],
    },
    "deadline_overload_hint_would_overrun": {
        "script": [lambda: OverloadError("queue full", retry_after_ms=800.0)],
        "retry": RetryPolicy(max_attempts=2),
        "deadline_ms": 500.0,
        "calls": [(0.0, {})],
    },
    "slow_endpoint_burns_budget": {
        # the endpoint answers, but only after burning most of the
        # budget; the next transient failure's backoff overruns.
        "script": [
            ("advance", 400.0, None),
            lambda: TransportError("down"),
        ],
        "retry": RetryPolicy(max_attempts=3, base_backoff_ms=200.0),
        "deadline_ms": 600.0,
        "calls": [(0.0, {}), (0.0, {})],
    },
    "app_error_not_retried": {
        "script": [lambda: SessionError("unknown session 42"), None],
        "calls": [(0.0, {}), (0.0, {})],
    },
    "valid_tighter_deadline_preserved": {
        "script": [None],
        "deadline_ms": 30_000.0,
        "calls": [(10.0, {"deadlineMs": 1000.0})],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sync_driver_is_bit_identical_to_legacy(name):
    spec = SCENARIOS[name]
    legacy = _run("legacy", spec)
    sync = _run("sync", spec)
    assert sync == legacy


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_async_driver_matches_sync_driver(name):
    spec = SCENARIOS[name]
    sync = _run("sync", spec)
    aio = _run("async", spec)
    assert aio == sync


def test_scenarios_cover_every_terminal_outcome():
    """The parity matrix exercises success, exhaustion, breaker
    rejection, deadline expiry (all three variants), backpressure,
    and app-error passthrough — keep it honest if scenarios change."""
    sync = {name: _run("sync", spec) for name, spec in SCENARIOS.items()}
    kinds = {
        outcome[1] if outcome[0] == "error" else "ok"
        for record in sync.values()
        for outcome in record["outcomes"]
    }
    assert {"ok", "RetryExhaustedError", "CircuitOpenError",
            "TimeoutError", "SessionError"} <= kinds
    messages = " | ".join(
        outcome[2]
        for record in sync.values()
        for outcome in record["outcomes"]
        if outcome[0] == "error"
    )
    assert "would overrun" in messages
    assert "overload hint" in messages
    assert "circuit for" in messages
    total_backpressure = sum(
        record["stats"]["backpressure_waits"] for record in sync.values()
    )
    assert total_backpressure >= 1
    # ... and every obs signal the transport emits is on the record.
    events = {
        event[0] for record in sync.values() for event in record["events"]
    }
    assert events == {"resilience.retry", "resilience.backpressure",
                      "resilience.breaker_open"}
    metrics = set().union(*(record["metrics"] for record in sync.values()))
    assert {"resilience.calls", "resilience.retries",
            "resilience.backpressure_waits", "resilience.backoff_ms",
            "resilience.deadline_expiries", "resilience.breaker_rejections",
            "resilience.exhausted"} <= metrics


# -- intentional divergences (the two satellite bug fixes) ------------------------


def test_divergence_stale_deadline_is_restamped():
    """Legacy forwarded a stale caller-supplied ``deadlineMs``
    verbatim; the core re-stamps it from this call's budget."""
    spec = {
        "script": [None],
        "deadline_ms": 30_000.0,
        # clock starts at 500 after the advance; a deadline of 400 is
        # already in the past.
        "calls": [(500.0, {"deadlineMs": 400.0})],
    }
    legacy = _run("legacy", spec)
    sync = _run("sync", spec)
    assert legacy["service_saw"][0]["deadlineMs"] == 400.0  # the bug
    assert sync["service_saw"][0]["deadlineMs"] == 500.0 + 30_000.0
    # everything else still matches
    assert sync["stats"] == legacy["stats"]
    assert sync["outcomes"][0][0] == legacy["outcomes"][0][0] == "ok"


def test_divergence_half_open_admits_single_probe():
    """The legacy breaker admitted unlimited HALF_OPEN probes; the new
    one hands out a single probe token per reset window."""
    from repro.services.resilience import CircuitBreaker

    policy = CircuitBreakerPolicy(failure_threshold=1,
                                  reset_timeout_ms=100.0)
    legacy = LegacyCircuitBreaker(policy=policy)
    fixed = CircuitBreaker(policy=policy)
    for breaker in (legacy, fixed):
        breaker.record_failure(0.0)
        assert breaker.state is CircuitState.OPEN
    # reset window elapses: first caller goes through on both
    assert legacy.allow(200.0)
    assert fixed.allow(200.0)
    # second caller while the probe is in flight: legacy stampedes,
    # fixed fails fast
    assert legacy.allow(200.0)
    assert not fixed.allow(200.0)
    # the probe's verdict frees the token
    fixed.record_success()
    assert fixed.state is CircuitState.CLOSED
    assert fixed.allow(200.0)
