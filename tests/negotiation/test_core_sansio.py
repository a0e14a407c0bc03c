"""The sans-IO negotiation core: effects in, results out, no I/O."""

from __future__ import annotations

import pytest

from repro.negotiation.cache import SequenceCache
from repro.negotiation.core import (
    OP_CANDIDATES_FOR,
    OP_POLICIES_PROTECTING,
    OP_RELEASES_FREELY,
    AgentOp,
    NegotiationCore,
    drive,
    perform_agent_op,
)
from repro.negotiation.engine import NegotiationEngine
from repro.negotiation.outcomes import FailureReason
from repro.negotiation.sequence import TrustSequence
from repro.scenario.workloads import chain_workload


@pytest.fixture()
def fixture():
    return chain_workload(4)


def _core(fixture, **overrides) -> NegotiationCore:
    options = {
        "requester": fixture.requester.name,
        "controller": fixture.controller.name,
    }
    options.update(overrides)
    return NegotiationCore(**options)


def _agents(fixture) -> dict:
    return {
        fixture.requester.name: fixture.requester,
        fixture.controller.name: fixture.controller,
    }


def _collect_ops(fixture, **overrides):
    """Drive the core with a recording driver; return (ops, result)."""
    core = _core(fixture, **overrides)
    return _record_ops(
        core.run(fixture.resource, fixture.negotiation_time()),
        _agents(fixture),
    )


def _record_ops(gen, agents):
    """Run a core generator, recording every effect; (ops, result)."""
    ops: list[AgentOp] = []
    reply = None
    exc = None
    while True:
        try:
            effect = gen.throw(exc) if exc is not None else gen.send(reply)
        except StopIteration as stop:
            return ops, stop.value
        ops.append(effect)
        reply, exc = None, None
        try:
            reply = perform_agent_op(agents, effect)
        except Exception as error:
            exc = error


class TestEffectVocabulary:
    def test_core_yields_frozen_agent_ops(self, fixture):
        ops, result = _collect_ops(fixture)
        assert result.success
        assert ops, "a negotiation must request at least one effect"
        parties = {fixture.requester.name, fixture.controller.name}
        for op in ops:
            assert isinstance(op, AgentOp)
            assert op.party in parties
            assert isinstance(op.args, tuple)
        with pytest.raises(AttributeError):
            ops[0].party = "mallory"

    def test_custom_driver_matches_engine(self, fixture):
        """A second driver — not `drive` — built from the same effect
        vocabulary reproduces the engine's result."""
        _, custom = _collect_ops(fixture)
        engine_result = NegotiationEngine(
            fixture.requester, fixture.controller
        ).run(fixture.resource, at=fixture.negotiation_time())
        assert custom.to_audit_record() == engine_result.to_audit_record()


class TestReplay:
    def test_replay_requests_no_policy_phase_effects(self, fixture):
        full = drive(
            _core(fixture).run(fixture.resource, fixture.negotiation_time()),
            _agents(fixture),
        )
        cached = SequenceCache().store(full)
        ops, replayed = _record_ops(
            _core(fixture).replay(
                fixture.resource, TrustSequence(cached.steps),
                fixture.negotiation_time(),
            ),
            _agents(fixture),
        )
        assert replayed.success
        assert {op.op for op in ops}.isdisjoint({
            OP_POLICIES_PROTECTING, OP_CANDIDATES_FOR, OP_RELEASES_FREELY,
        })
        assert replayed.policy_messages == 0
        assert replayed.tree is None and replayed.sequence == ()
        assert replayed.transcript[0].action == "cache-replay"
        assert replayed.transcript[-1].action == "grant"
        assert replayed.disclosed_by_requester == full.disclosed_by_requester
        assert (
            replayed.disclosed_by_controller == full.disclosed_by_controller
        )


class TestDrive:
    def test_drive_equals_manual_loop(self, fixture):
        _, manual = _collect_ops(fixture)
        driven = drive(
            _core(fixture).run(fixture.resource, fixture.negotiation_time()),
            _agents(fixture),
        )
        assert driven.to_audit_record() == manual.to_audit_record()

    def test_same_party_on_both_sides_is_protocol_failure(self, fixture):
        core = NegotiationCore(
            requester=fixture.controller.name,
            controller=fixture.controller.name,
        )
        result = drive(
            core.run(fixture.resource, fixture.negotiation_time()),
            {fixture.controller.name: fixture.controller},
        )
        assert not result.success
        assert result.failure_reason == FailureReason.PROTOCOL

    def test_unknown_party_surfaces_as_failure(self, fixture):
        core = _core(fixture)
        # Driver knows only the controller; the first requester-side
        # effect raises inside the driver and the core converts the
        # thrown error into a structured failure result.
        result = drive(
            core.run(fixture.resource, fixture.negotiation_time()),
            {fixture.controller.name: fixture.controller},
        )
        assert not result.success
