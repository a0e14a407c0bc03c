"""Driver parity: scheduling is the only thing a driver chooses.

Serial and parallel formation must produce identical negotiation
outcomes, disclosure sets, and simulated-time accounting on the same
seeded workload; ``TNClient.anegotiate`` must produce exactly what
``TNClient.negotiate`` produces; and a mid-flight retraction must be
honoured identically whichever way the negotiation is driven.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.negotiation.cache import CachingNegotiator, SequenceCache
from repro.negotiation.engine import NegotiationEngine
from repro.negotiation.outcomes import FailureReason
from repro.perf import SIGNATURE_CACHE, clear_all_caches
from repro.scenario.workloads import (
    capacity_workload,
    chain_workload,
    formation_workload,
)
from repro.services.tn_client import TNClient
from repro.services.tn_service import TNWebService
from repro.services.transport import SimTransport
from repro.storage.document_store import XMLDocumentStore
from repro.trust import TrustBus

ROLES = 4


def _formation(parallel):
    fixture = formation_workload(ROLES)
    edition = fixture.initiator_edition
    edition.create_vo(fixture.contract)
    edition.enable_trust_negotiation()
    outcome = edition.execute_formation(
        fixture.plans(), at=fixture.contract.created_at, parallel=parallel,
    )
    return outcome


def _snapshot(outcome) -> dict:
    """Everything but the schedule: who joined, what was disclosed,
    every transcript line — the driver-independent outcome."""
    return {
        "joined": outcome.joined,
        "degraded": dict(outcome.degraded),
        "attempts": dict(outcome.attempts),
        "quorum_met": outcome.quorum_met,
        "joins": {
            role: {
                "member": join.member,
                "joined": join.joined,
                "reason": join.reason,
                "unreachable": join.unreachable,
                "negotiation": (
                    join.negotiation.to_audit_record()
                    if join.negotiation is not None else None
                ),
            }
            for role, join in outcome.outcomes.items()
        },
    }


class TestFormationParity:
    def test_outcomes_and_disclosures_identical(self):
        serial = _formation(parallel=False)
        parallel = _formation(parallel=True)
        assert serial.mode == "serial"
        assert parallel.mode == "parallel"
        assert _snapshot(serial) == _snapshot(parallel)
        assert len(serial.joined) == ROLES

    def test_time_accounting_matches_serial(self):
        serial = _formation(parallel=False)
        parallel = _formation(parallel=True)
        # Same joins, different schedule: the parallel run reports the
        # serial run as its serial-equivalent baseline and advances the
        # main timeline by one lane (equal-cost joins).
        assert parallel.serial_ms == pytest.approx(serial.elapsed_ms)
        assert parallel.critical_path_ms == pytest.approx(parallel.elapsed_ms)
        assert parallel.elapsed_ms == pytest.approx(
            serial.elapsed_ms / ROLES
        )


def _service(fixture, name="urn:tn-parity"):
    transport = SimTransport()
    TNWebService(
        fixture.controller, transport, XMLDocumentStore(name), name,
    )
    return transport


class TestEngineDriverParity:
    def test_anegotiate_matches_sync_engine_on_success(self):
        fixture = chain_workload(6)
        at = fixture.negotiation_time()
        sync_result = TNClient(
            _service(fixture), "urn:tn-parity", fixture.requester
        ).negotiate(fixture.resource, at=at)
        async_result = asyncio.run(TNClient(
            _service(fixture), "urn:tn-parity", fixture.requester
        ).anegotiate(fixture.resource, at=at))
        assert sync_result.success and async_result.success
        assert (
            sync_result.to_audit_record() == async_result.to_audit_record()
        )

    def test_anegotiate_matches_sync_engine_on_failure(self):
        # Requester from a different authority domain: the policy
        # phase finds a sequence, but the credential exchange rejects
        # the untrusted issuer — identically on both entry points.
        fixture = capacity_workload(1)
        foreign = capacity_workload(1).requesters[0]
        at = fixture.negotiation_time()
        sync_result = TNClient(
            _service(fixture), "urn:tn-parity", foreign
        ).negotiate(fixture.resource, at=at)
        async_result = asyncio.run(TNClient(
            _service(fixture), "urn:tn-parity", foreign
        ).anegotiate(fixture.resource, at=at))
        assert not sync_result.success and not async_result.success
        assert (
            sync_result.to_audit_record() == async_result.to_audit_record()
        )

    def test_many_interleaved_sessions_each_match_serial(self):
        fixture = capacity_workload(6)
        at = fixture.negotiation_time()
        serial_records = [
            NegotiationEngine(agent, fixture.controller)
            .run(fixture.resource, at=at).to_audit_record()
            for agent in fixture.requesters
        ]
        transport = _service(fixture)

        async def run_all():
            return list(await asyncio.gather(*(
                TNClient(transport, "urn:tn-parity", agent)
                .anegotiate(fixture.resource, at=at)
                for agent in fixture.requesters
            )))

        async_records = [
            result.to_audit_record() for result in asyncio.run(run_all())
        ]
        assert async_records == serial_records


def _arm_mid_exchange_revocation(fixture):
    """The first credential the controller accepts is revoked through
    the trust bus the moment verification returns — a retraction
    landing between two exchange steps of an in-flight negotiation.
    Returns a dict the tripwire fills with the revoked credential and
    its retraction receipt."""
    bus = TrustBus(registry=fixture.revocations)
    original = fixture.controller.verify_disclosure
    armed: dict = {}

    def tripwire(disclosure, term, at, nonce):
        accepted, reason, effective = original(disclosure, term, at, nonce)
        if accepted and not armed:
            credential = (
                disclosure.credential
                if disclosure.credential is not None
                else disclosure.presentation.credential
            )
            armed["credential"] = credential
            armed["receipt"] = bus.revoke(fixture.authority, credential)
        return accepted, reason, effective

    fixture.controller.verify_disclosure = tripwire
    return armed


def _drive_serial(fixture):
    return NegotiationEngine(fixture.requester, fixture.controller).run(
        fixture.resource, at=fixture.negotiation_time()
    )


def _drive_threaded(fixture):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(_drive_serial, fixture).result()


def _drive_asyncio(fixture):
    return asyncio.run(TNClient(
        _service(fixture), "urn:tn-parity", fixture.requester
    ).anegotiate(fixture.resource, at=fixture.negotiation_time()))


class TestMidFlightRevocationParity:
    """Nonmonotonic trust, mid-flight: a credential accepted earlier in
    the exchange is revoked while the negotiation is still running.
    The per-step trust-epoch recheck must fail the negotiation with
    ``CREDENTIAL_REVOKED`` — identically on the calling thread, on a
    worker thread, and through ``TNClient.anegotiate`` — and must leave
    no stale cached verdict for the revoked serial behind."""

    def _revoked_run(self, driver):
        clear_all_caches()
        fixture = chain_workload(6)
        armed = _arm_mid_exchange_revocation(fixture)
        result = driver(fixture)
        assert armed, "tripwire never fired: no disclosure was accepted"
        credential = armed["credential"]
        # Zero stale cache hits: the revoked serial's signature verdict
        # was evicted at retraction time and never re-cached.
        assert SIGNATURE_CACHE.invalidate_tag(
            (credential.issuer, credential.serial)
        ) == 0
        return result, armed

    def test_all_three_drivers_fail_identically(self):
        outcomes = [
            self._revoked_run(driver)
            for driver in (_drive_serial, _drive_threaded, _drive_asyncio)
        ]
        for result, armed in outcomes:
            assert not result.success
            assert result.failure_reason is FailureReason.CREDENTIAL_REVOKED
            assert any(
                event.action == "revocation-recheck"
                for event in result.transcript
            )
            assert armed["receipt"].evicted_signatures >= 1
        # The retraction is observed at the same protocol point on all
        # three drivers: same failure detail, same disclosure sets.
        details = {result.failure_detail for result, _ in outcomes}
        assert len(details) == 1
        disclosed = {
            (
                tuple(result.disclosed_by_requester),
                tuple(result.disclosed_by_controller),
            )
            for result, _ in outcomes
        }
        assert len(disclosed) == 1

    def test_revocation_after_last_step_blocks_the_grant(self):
        """Even a retraction landing after every disclosure succeeded
        (between the final verification and the grant) is caught by the
        pre-grant recheck."""
        clear_all_caches()
        fixture = chain_workload(2)
        bus = TrustBus(registry=fixture.revocations)
        original = fixture.controller.verify_disclosure

        def tripwire(disclosure, term, at, nonce):
            accepted, reason, effective = original(
                disclosure, term, at, nonce
            )
            if accepted and disclosure.credential is not None:
                bus.revoke(fixture.authority, disclosure.credential)
            return accepted, reason, effective

        fixture.controller.verify_disclosure = tripwire
        result = _drive_serial(fixture)
        assert not result.success
        assert result.failure_reason is FailureReason.CREDENTIAL_REVOKED

    def test_revocation_during_cache_replay_is_not_replayed_over(self):
        """A retraction landing mid-replay of a cached trust sequence
        stops the replay; the full negotiation it falls back to then
        rejects the revoked credential."""
        clear_all_caches()
        fixture = chain_workload(2)
        negotiator = CachingNegotiator(SequenceCache())
        at = fixture.negotiation_time()
        first = negotiator.negotiate(
            fixture.requester, fixture.controller, fixture.resource, at=at
        )
        assert first.success
        armed = _arm_mid_exchange_revocation(fixture)
        result = negotiator.negotiate(
            fixture.requester, fixture.controller, fixture.resource, at=at
        )
        assert armed, "tripwire never fired: no disclosure was accepted"
        assert not result.success
        assert result.failure_reason is FailureReason.CREDENTIAL_REJECTED
        assert negotiator.cache.hits == 0


class TestPhaseBoundaryRevocationParity:
    """The service precomputes the full negotiation result at
    PolicyExchange and replays it at CredentialExchange.  A revocation
    landing between the two phases must not be replayed over: the
    session re-checks its disclosed credentials against the (now
    updated) registry and fails with ``CREDENTIAL_REVOKED`` — driven
    call by call, on a worker thread, and by a sibling asyncio task
    retracting while ``TNClient.anegotiate`` sits between phases."""

    @staticmethod
    def _revoke_requester_credential(fixture):
        credential = next(iter(fixture.requester.profile))
        TrustBus(registry=fixture.revocations).revoke(
            fixture.authority, credential
        )
        return credential

    def _sync_outcome(self):
        fixture = chain_workload(4)
        transport = SimTransport()
        TNWebService(
            fixture.controller, transport,
            XMLDocumentStore("tn-revoke"), "urn:tn-revoke",
        )
        start = transport.call("urn:tn-revoke", "StartNegotiation", {
            "requester": fixture.requester, "strategy": "standard",
        })
        negotiation_id = start["negotiationId"]
        transport.call("urn:tn-revoke", "PolicyExchange", {
            "negotiationId": negotiation_id,
            "resource": fixture.resource,
            "at": fixture.negotiation_time(), "clientSeq": 1,
        })
        self._revoke_requester_credential(fixture)
        exchange = transport.call("urn:tn-revoke", "CredentialExchange", {
            "negotiationId": negotiation_id, "clientSeq": 2,
        })
        return exchange["result"]

    def _aio_outcome(self):
        fixture = chain_workload(4)
        transport = SimTransport()
        service = TNWebService(
            fixture.controller, transport,
            XMLDocumentStore("tn-arevoke"), "urn:tn-arevoke",
        )
        client = TNClient(transport, "urn:tn-arevoke", fixture.requester)

        async def revoke_between_phases():
            # anegotiate yields before every call, so this sibling task
            # runs once PolicyExchange has been answered and before
            # CredentialExchange is sent.
            while not any(
                session.phase == "policy"
                for session in service.sessions().values()
            ):
                await asyncio.sleep(0)
            self._revoke_requester_credential(fixture)

        async def run():
            result, _ = await asyncio.gather(
                client.anegotiate(
                    fixture.resource, at=fixture.negotiation_time()
                ),
                revoke_between_phases(),
            )
            return result

        return asyncio.run(run())

    def test_sync_thread_and_asyncio_services_agree(self):
        sync_result = self._sync_outcome()
        with ThreadPoolExecutor(max_workers=1) as pool:
            threaded_result = pool.submit(self._sync_outcome).result()
        aio_result = self._aio_outcome()
        results = (sync_result, threaded_result, aio_result)
        for result in results:
            assert not result.success
            assert result.failure_reason is FailureReason.CREDENTIAL_REVOKED
            assert any(
                event.action == "revocation-recheck"
                for event in result.transcript
            )
        assert len({result.failure_detail for result in results}) == 1

    def test_unrevoked_session_still_replays_the_result(self):
        """Control: with no retraction between the phases the stored
        result is replayed successfully (the epoch compare costs one
        integer check, not a re-verification)."""
        fixture = chain_workload(4)
        transport = SimTransport()
        TNWebService(
            fixture.controller, transport,
            XMLDocumentStore("tn-norevoke"), "urn:tn-norevoke",
        )
        start = transport.call("urn:tn-norevoke", "StartNegotiation", {
            "requester": fixture.requester, "strategy": "standard",
        })
        negotiation_id = start["negotiationId"]
        transport.call("urn:tn-norevoke", "PolicyExchange", {
            "negotiationId": negotiation_id,
            "resource": fixture.resource,
            "at": fixture.negotiation_time(), "clientSeq": 1,
        })
        exchange = transport.call("urn:tn-norevoke", "CredentialExchange", {
            "negotiationId": negotiation_id, "clientSeq": 2,
        })
        assert exchange["result"].success
