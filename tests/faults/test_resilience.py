"""ResilientTransport: retries, backoff, deadlines, circuit breaking."""

import pytest

from repro.errors import (
    CircuitOpenError,
    OverloadError,
    RetryExhaustedError,
    ServiceError,
    TimeoutError,
    TransportError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.services.resilience import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    CircuitState,
    ResilientTransport,
    RetryPolicy,
)
from repro.services.transport import SimTransport


def make_stack(plan=None, **resilient_kwargs):
    transport = SimTransport()
    hits = []

    def handler(operation, payload):
        hits.append(operation)
        return {"ok": True, "hits": len(hits)}

    transport.bind("urn:svc", handler)
    injector = FaultInjector(transport, plan or FaultPlan())
    resilient = ResilientTransport(injector, **resilient_kwargs)
    return resilient, injector, hits


class TestRetries:
    def test_retry_succeeds_after_transient_drop(self):
        resilient, injector, hits = make_stack(
            FaultPlan().at(1, FaultKind.DROP)
        )
        response = resilient.call("urn:svc", "Echo", {})
        assert response["ok"]
        assert resilient.stats.retries == 1
        assert resilient.stats.attempts == 2

    def test_exhaustion_raises_typed_error_with_cause(self):
        resilient, injector, hits = make_stack(
            FaultPlan().always(FaultKind.DROP),
            retry=RetryPolicy(max_attempts=3, base_backoff_ms=10,
                              jitter_ms=0),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            resilient.call("urn:svc", "Echo", {})
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, TimeoutError)
        assert hits == []

    def test_backoff_charged_to_sim_clock(self):
        policy = RetryPolicy(max_attempts=3, base_backoff_ms=100,
                             multiplier=2.0, jitter_ms=0)
        resilient, injector, _ = make_stack(
            FaultPlan().at(1, FaultKind.DROP).at(2, FaultKind.DROP),
            retry=policy,
        )
        resilient.call("urn:svc", "Echo", {})
        # two backoffs: 100 and 200 ms
        assert resilient.stats.backoff_ms_total == pytest.approx(300.0)

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(jitter_ms=50, jitter_seed=9)
        first = policy.backoff_ms("urn:svc", "Echo", 2)
        second = policy.backoff_ms("urn:svc", "Echo", 2)
        assert first == second
        assert first >= policy.base_backoff_ms * policy.multiplier
        # different attempts decorrelate
        assert policy.backoff_ms("urn:svc", "Echo", 3) != first

    def test_backoff_capped(self):
        policy = RetryPolicy(base_backoff_ms=1000, multiplier=10,
                             max_backoff_ms=1500, jitter_ms=0)
        assert policy.backoff_ms("u", "o", 5) == 1500

    def test_application_errors_not_retried(self):
        transport = SimTransport()
        calls = []

        def handler(operation, payload):
            calls.append(operation)
            raise ServiceError("unknown operation")

        transport.bind("urn:svc", handler)
        resilient = ResilientTransport(transport)
        with pytest.raises(ServiceError):
            resilient.call("urn:svc", "Nope", {})
        assert len(calls) == 1
        assert resilient.stats.retries == 0


class TestDeadline:
    def test_deadline_expiry_raises_timeout(self):
        resilient, injector, _ = make_stack(
            FaultPlan(timeout_wait_ms=5000).always(FaultKind.DROP),
            retry=RetryPolicy(max_attempts=10, base_backoff_ms=1000,
                              jitter_ms=0),
            deadline_ms=8000,
        )
        with pytest.raises(TimeoutError):
            resilient.call("urn:svc", "Echo", {})
        assert resilient.stats.deadline_expiries == 1

    def test_retry_abandoned_when_backoff_would_overrun_deadline(self):
        # The first attempt fails at ~5000 ms; with a 5500 ms deadline
        # the 1000 ms backoff alone would overrun it, so the call gives
        # up immediately instead of sleeping and retrying past budget.
        resilient, injector, hits = make_stack(
            FaultPlan(timeout_wait_ms=5000).always(FaultKind.DROP),
            retry=RetryPolicy(max_attempts=5, base_backoff_ms=1000,
                              jitter_ms=0),
            deadline_ms=5500,
        )
        with pytest.raises(TimeoutError):
            resilient.call("urn:svc", "Echo", {})
        assert resilient.stats.attempts == 1
        assert resilient.stats.retries == 0
        assert resilient.stats.backoff_ms_total == 0
        assert resilient.stats.deadline_expiries == 1
        # budget overrun is bounded by the in-flight attempt, not by
        # further backoff waits
        assert resilient.clock.elapsed_ms < 5500 + resilient.model.message_cost() + 1

    def test_no_deadline_when_disabled(self):
        resilient, injector, _ = make_stack(
            FaultPlan(timeout_wait_ms=5000).at(1, FaultKind.DROP),
            deadline_ms=None,
        )
        assert resilient.call("urn:svc", "Echo", {})["ok"]


class TestCircuitBreaker:
    def test_state_machine(self):
        breaker = CircuitBreaker(
            policy=CircuitBreakerPolicy(failure_threshold=2,
                                        reset_timeout_ms=1000)
        )
        assert breaker.state is CircuitState.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state is CircuitState.CLOSED
        breaker.record_failure(10.0)
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow(500.0)
        # reset timeout elapsed: one half-open probe allowed
        assert breaker.allow(1500.0)
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.record_failure(1600.0)  # failed probe
        assert breaker.state is CircuitState.OPEN
        assert breaker.allow(3000.0)
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.opens == 2

    def test_breaker_opens_and_fails_fast(self):
        resilient, injector, _ = make_stack(
            FaultPlan(timeout_wait_ms=10).always(FaultKind.DROP),
            retry=RetryPolicy(max_attempts=2, base_backoff_ms=1,
                              jitter_ms=0),
            breaker_policy=CircuitBreakerPolicy(failure_threshold=3,
                                                reset_timeout_ms=10_000),
        )
        with pytest.raises(RetryExhaustedError):
            resilient.call("urn:svc", "Echo", {})  # 2 failures
        with pytest.raises((RetryExhaustedError, CircuitOpenError)):
            resilient.call("urn:svc", "Echo", {})  # trips at 3
        with pytest.raises(CircuitOpenError):
            resilient.call("urn:svc", "Echo", {})  # fast-fail
        assert resilient.breaker("urn:svc").state is CircuitState.OPEN
        assert resilient.stats.breaker_rejections >= 1

    def test_half_open_probe_recovers(self):
        plan = FaultPlan(timeout_wait_ms=10).always(FaultKind.DROP, limit=4)
        resilient, injector, _ = make_stack(
            plan,
            retry=RetryPolicy(max_attempts=2, base_backoff_ms=1, jitter_ms=0),
            breaker_policy=CircuitBreakerPolicy(failure_threshold=2,
                                                reset_timeout_ms=100),
        )
        with pytest.raises(RetryExhaustedError):
            resilient.call("urn:svc", "Echo", {})
        assert resilient.breaker("urn:svc").state is CircuitState.OPEN
        resilient.clock.advance(200)  # past the reset timeout
        plan.clear()  # network healed
        response = resilient.call("urn:svc", "Echo", {})
        assert response["ok"]
        assert resilient.breaker("urn:svc").state is CircuitState.CLOSED

    def test_per_endpoint_isolation(self):
        transport = SimTransport()
        transport.bind("urn:good", lambda op, p: {"ok": True})
        transport.bind("urn:bad", lambda op, p: {"ok": True})
        plan = FaultPlan(timeout_wait_ms=10).always(
            FaultKind.DROP, url="urn:bad"
        )
        injector = FaultInjector(transport, plan)
        resilient = ResilientTransport(
            injector,
            retry=RetryPolicy(max_attempts=2, base_backoff_ms=1, jitter_ms=0),
            breaker_policy=CircuitBreakerPolicy(failure_threshold=2,
                                                reset_timeout_ms=10_000),
        )
        with pytest.raises(RetryExhaustedError):
            resilient.call("urn:bad", "Echo", {})
        assert resilient.breaker("urn:bad").state is CircuitState.OPEN
        # the good endpoint is unaffected
        assert resilient.call("urn:good", "Echo", {})["ok"]
        assert resilient.breaker("urn:good").state is CircuitState.CLOSED


class TestHalfOpenProbeToken:
    """HALF_OPEN admits exactly one probe per reset window (the legacy
    breaker admitted unlimited concurrent probes)."""

    def make_open_breaker(self):
        breaker = CircuitBreaker(
            policy=CircuitBreakerPolicy(failure_threshold=1,
                                        reset_timeout_ms=1000)
        )
        breaker.record_failure(0.0)
        assert breaker.state is CircuitState.OPEN
        return breaker

    def test_second_probe_rejected_while_first_in_flight(self):
        breaker = self.make_open_breaker()
        assert breaker.allow(1500.0)  # probe token taken
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.probe_in_flight
        assert not breaker.allow(1500.0)
        assert not breaker.allow(2500.0)  # still held — time is no excuse

    def test_probe_success_closes_and_frees_token(self):
        breaker = self.make_open_breaker()
        assert breaker.allow(1500.0)
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        assert not breaker.probe_in_flight
        assert breaker.allow(1500.0)

    def test_probe_failure_reopens_and_frees_token(self):
        breaker = self.make_open_breaker()
        assert breaker.allow(1500.0)
        breaker.record_failure(1600.0)
        assert breaker.state is CircuitState.OPEN
        assert not breaker.probe_in_flight
        # a new reset window hands out a new token
        assert breaker.allow(2601.0)
        assert breaker.state is CircuitState.HALF_OPEN

    def test_release_probe_hands_token_back_without_verdict(self):
        breaker = self.make_open_breaker()
        assert breaker.allow(1500.0)
        breaker.release_probe()
        assert breaker.state is CircuitState.HALF_OPEN
        assert not breaker.probe_in_flight
        assert breaker.allow(1500.0)  # next caller may probe

    def test_probe_holder_not_self_rejected_across_retries(self):
        # A probe that hits backpressure retries within the same call;
        # the holder must not be locked out by its own token.
        transport = SimTransport()
        script = [
            lambda: TransportError("dead"),
            lambda: OverloadError("busy", retry_after_ms=5.0),
            None,
        ]
        delivered = []

        def handler(operation, payload):
            index = len(delivered)
            delivered.append(operation)
            action = script[index] if index < len(script) else None
            if action is None:
                return {"ok": True}
            raise action()

        transport.bind("urn:svc", handler)
        resilient = ResilientTransport(
            transport,
            retry=RetryPolicy(max_attempts=3, base_backoff_ms=1, jitter_ms=0),
            breaker_policy=CircuitBreakerPolicy(failure_threshold=1,
                                                reset_timeout_ms=100),
        )
        # attempt 1 trips the breaker (threshold 1); attempt 2 of the
        # same call is rejected by it
        with pytest.raises(CircuitOpenError):
            resilient.call("urn:svc", "Echo", {})
        resilient.clock.advance(200)
        # one call: takes the probe token, gets shed, waits the hint,
        # retries while still holding the token, and succeeds.
        assert resilient.call("urn:svc", "Echo", {})["ok"]
        assert resilient.breaker("urn:svc").state is CircuitState.CLOSED
        assert resilient.stats.backpressure_waits == 1


class TestDeadlineNormalization:
    """Caller-supplied ``deadlineMs`` is re-stamped unless it is a
    valid, tighter-or-equal budget (the legacy transport forwarded
    stale values from reused payload dicts verbatim, so admission
    control shed perfectly healthy work)."""

    def make_recording_stack(self, deadline_ms=30_000.0):
        transport = SimTransport()
        seen = []

        def handler(operation, payload):
            seen.append(dict(payload))
            return {"ok": True}

        transport.bind("urn:svc", handler)
        return ResilientTransport(transport, deadline_ms=deadline_ms), seen

    def test_stale_deadline_from_reused_payload_is_restamped(self):
        resilient, seen = self.make_recording_stack()
        payload = {"resource": "r"}
        resilient.call("urn:svc", "Echo", payload)
        first_deadline = seen[0]["deadlineMs"]
        resilient.clock.advance(60_000)
        # a caller reusing the stamped payload dict must get a fresh
        # budget, not the long-expired one
        resilient.call("urn:svc", "Echo", dict(seen[0]))
        fresh = resilient.clock.elapsed_ms  # after the call's charge
        assert seen[1]["deadlineMs"] != first_deadline
        assert seen[1]["deadlineMs"] > fresh

    def test_bogus_deadline_values_are_restamped(self):
        for bogus in (True, "soon", None, -5.0):
            resilient, seen = self.make_recording_stack()
            resilient.call("urn:svc", "Echo", {"deadlineMs": bogus})
            assert seen[0]["deadlineMs"] == pytest.approx(30_000.0)

    def test_looser_deadline_is_tightened_to_call_budget(self):
        resilient, seen = self.make_recording_stack(deadline_ms=1000.0)
        resilient.call("urn:svc", "Echo", {"deadlineMs": 999_999.0})
        assert seen[0]["deadlineMs"] == pytest.approx(1000.0)

    def test_valid_tighter_deadline_preserved(self):
        resilient, seen = self.make_recording_stack(deadline_ms=30_000.0)
        resilient.call("urn:svc", "Echo", {"deadlineMs": 750.0})
        assert seen[0]["deadlineMs"] == 750.0


class TestPolicyValidation:
    """Policies that could never make a call fail at construction."""

    @pytest.mark.parametrize("name, value", [
        ("max_attempts", 0),
        ("max_attempts", -1),
        ("base_backoff_ms", -500.0),
        ("max_backoff_ms", -1.0),
        ("jitter_ms", -0.5),
        ("multiplier", -2.0),
        ("base_backoff_ms", float("nan")),
    ])
    def test_retry_policy_rejects(self, name, value):
        with pytest.raises(ValueError, match=name):
            RetryPolicy(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("failure_threshold", 0),
        ("reset_timeout_ms", -1.0),
    ])
    def test_breaker_policy_rejects(self, name, value):
        with pytest.raises(ValueError, match=name):
            CircuitBreakerPolicy(**{name: value})

    def test_boundary_values_accepted(self):
        RetryPolicy(max_attempts=1, base_backoff_ms=0, multiplier=0,
                    max_backoff_ms=0, jitter_ms=0)
        CircuitBreakerPolicy(failure_threshold=1, reset_timeout_ms=0)
