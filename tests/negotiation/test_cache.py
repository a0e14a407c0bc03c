"""Trust-sequence caching."""

import pytest

from repro.credentials.authority import CredentialAuthority
from repro.credentials.revocation import RevocationRegistry
from repro.trust import TrustBus
from repro.crypto.keys import Keyring
from repro.negotiation.cache import CachingNegotiator, SequenceCache
from repro.negotiation.engine import NegotiationEngine
from tests.conftest import ISSUE_AT, NEGOTIATION_AT, make_agent


@pytest.fixture()
def world(shared_keypair, other_keypair):
    ca = CredentialAuthority.create("CA", key_bits=512)
    ring = Keyring()
    ring.add("CA", ca.public_key)
    registry = RevocationRegistry()
    TrustBus(registry=registry).publish_crl(ca.crl)
    badge = ca.issue("Badge", "Req", shared_keypair.fingerprint, {},
                     ISSUE_AT)
    proof = ca.issue("Proof", "Ctrl", other_keypair.fingerprint, {},
                     ISSUE_AT)
    requester = make_agent("Req", [badge], "Badge <- Proof",
                           shared_keypair, ring, registry)
    controller = make_agent("Ctrl", [proof],
                            "RES <- Badge\nProof <- DELIV",
                            other_keypair, ring, registry)
    return ca, registry, requester, controller, badge


class TestCaching:
    def test_first_run_misses_then_hits(self, world):
        _, _, requester, controller, _ = world
        negotiator = CachingNegotiator()
        first = negotiator.negotiate(requester, controller, "RES",
                                     at=NEGOTIATION_AT)
        assert first.success
        assert negotiator.cache.misses == 1
        second = negotiator.negotiate(requester, controller, "RES",
                                      at=NEGOTIATION_AT)
        assert second.success
        assert negotiator.cache.hits == 1

    def test_replay_skips_policy_phase(self, world):
        _, _, requester, controller, _ = world
        negotiator = CachingNegotiator()
        first = negotiator.negotiate(requester, controller, "RES",
                                     at=NEGOTIATION_AT)
        second = negotiator.negotiate(requester, controller, "RES",
                                      at=NEGOTIATION_AT)
        assert second.policy_messages == 0
        assert second.total_messages < first.total_messages

    def test_replay_discloses_the_same_credentials(self, world):
        _, _, requester, controller, _ = world
        negotiator = CachingNegotiator()
        first = negotiator.negotiate(requester, controller, "RES",
                                     at=NEGOTIATION_AT)
        second = negotiator.negotiate(requester, controller, "RES",
                                      at=NEGOTIATION_AT)
        assert set(second.disclosed_by_requester) == set(
            first.disclosed_by_requester
        )
        assert set(second.disclosed_by_controller) == set(
            first.disclosed_by_controller
        )

    def test_revocation_invalidates_cache(self, world):
        """The operation-phase scenario: the cached credential is
        revoked, replay fails, and a full negotiation runs (and fails
        too, for the same reason)."""
        ca, registry, requester, controller, badge = world
        negotiator = CachingNegotiator()
        negotiator.negotiate(requester, controller, "RES", at=NEGOTIATION_AT)
        TrustBus(registry=registry).revoke(ca, badge)
        result = negotiator.negotiate(requester, controller, "RES",
                                      at=NEGOTIATION_AT)
        assert not result.success
        assert negotiator.cache.invalidations == 1
        assert len(negotiator.cache) == 0

    def test_credential_left_profile_falls_back_to_full_negotiation(
        self, world, shared_keypair
    ):
        """A cached credential the discloser no longer holds makes the
        replay impossible: the entry is invalidated and the full
        negotiation's result (here over a second badge) is returned."""
        ca, _, requester, controller, _ = world
        spare = ca.issue("Badge", "Req", shared_keypair.fingerprint, {},
                         ISSUE_AT)
        requester.profile.add(spare)
        negotiator = CachingNegotiator()
        first = negotiator.negotiate(requester, controller, "RES",
                                     at=NEGOTIATION_AT)
        assert first.success
        (used,) = first.disclosed_by_requester
        requester.profile.remove(used)
        result = negotiator.negotiate(requester, controller, "RES",
                                      at=NEGOTIATION_AT)
        assert negotiator.cache.hits == 0
        assert negotiator.cache.misses == 2
        assert negotiator.cache.invalidations == 1
        assert result.success
        assert result.policy_messages > 0
        assert used not in result.disclosed_by_requester
        assert result.to_audit_record() == NegotiationEngine(
            requester, controller
        ).run("RES", at=NEGOTIATION_AT).to_audit_record()

    def test_failed_negotiation_not_cached(self, world):
        _, _, requester, controller, _ = world
        negotiator = CachingNegotiator()
        result = negotiator.negotiate(requester, controller,
                                      "NothingSatisfiable:Protected",
                                      at=NEGOTIATION_AT)
        # Unknown resource is unprotected -> success with no steps;
        # use a genuinely failing one instead.
        controller.policies.add_dsl("Locked <- MissingCred")
        failing = negotiator.negotiate(requester, controller, "Locked",
                                       at=NEGOTIATION_AT)
        assert not failing.success
        assert negotiator.cache.lookup("Req", "Ctrl", "Locked") is None

    def test_cache_key_is_per_resource(self, world):
        _, _, requester, controller, _ = world
        negotiator = CachingNegotiator()
        negotiator.negotiate(requester, controller, "RES", at=NEGOTIATION_AT)
        assert negotiator.cache.lookup("Req", "Ctrl", "RES") is not None
        assert negotiator.cache.lookup("Req", "Ctrl", "OTHER") is None

    def test_store_rejects_failures(self):
        from repro.negotiation.outcomes import NegotiationResult

        cache = SequenceCache()
        failed = NegotiationResult(
            resource="R", requester="A", controller="B", success=False
        )
        assert cache.store(failed) is None
        assert len(cache) == 0


class TestSequenceCacheLRU:
    @staticmethod
    def _successful_result(resource: str) -> "NegotiationResult":
        from repro.negotiation.outcomes import NegotiationResult
        from repro.negotiation.tree import NegotiationTree

        tree = NegotiationTree(resource, "Ctrl")
        return NegotiationResult(
            resource=resource, requester="Req", controller="Ctrl",
            success=True, tree=tree, sequence=(tree.root,),
        )

    def test_capacity_bound_evicts_least_recently_used(self):
        cache = SequenceCache(capacity=2)
        cache.store(self._successful_result("R1"))
        cache.store(self._successful_result("R2"))
        assert cache.lookup("Req", "Ctrl", "R1") is not None  # refresh R1
        cache.store(self._successful_result("R3"))  # evicts R2
        assert cache.lookup("Req", "Ctrl", "R2") is None
        assert cache.lookup("Req", "Ctrl", "R1") is not None
        assert cache.lookup("Req", "Ctrl", "R3") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        # Evictions are not invalidations: the world did not change.
        assert cache.invalidations == 0

    def test_restoring_same_key_does_not_evict(self):
        cache = SequenceCache(capacity=2)
        cache.store(self._successful_result("R1"))
        cache.store(self._successful_result("R1"))
        cache.store(self._successful_result("R2"))
        assert cache.evictions == 0
        assert len(cache) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SequenceCache(capacity=0)
