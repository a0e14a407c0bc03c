"""The retraction-event bus (``repro.trust``): nonmonotonic trust.

Every layer that memoizes established trust — the revocation registry,
the signature cache, the sequence caches, in-flight negotiations via
the epoch — must follow a retraction synchronously, and precisely:
only the artifacts the event contradicts are dropped.
"""

import pytest

from repro.credentials.authority import CredentialAuthority
from repro.credentials.revocation import RevocationList
from repro.errors import ErrorCode, SignatureError
from repro.negotiation.cache import SequenceCache
from repro.negotiation.engine import NegotiationEngine
from repro.perf import (
    SIGNATURE_CACHE,
    clear_all_caches,
    drop_issuer_signatures,
)
from repro.scenario.workloads import chain_workload
from repro.trust import (
    RetractionReceipt,
    TrustBus,
    TrustEvent,
    TrustEventKind,
    default_bus,
    trust_epoch,
)
from tests.conftest import ISSUE_AT


@pytest.fixture()
def authority():
    return CredentialAuthority.create("BusCA", key_bits=512)


@pytest.fixture()
def bus(authority):
    bus = TrustBus()
    bus.publish_crl(authority.crl)
    return bus


def _issue(authority, subject="holder", cred_type="Qual"):
    from repro.crypto.keys import KeyPair

    keypair = KeyPair.generate(512)
    return authority.issue(
        cred_type, subject, keypair.fingerprint, {"k": "v"}, ISSUE_AT
    )


class TestRetraction:
    def test_revoke_updates_registry_and_epoch(self, bus, authority):
        credential = _issue(authority)
        before = trust_epoch()
        receipt = bus.revoke(authority, credential)
        assert bus.registry.is_revoked(credential.issuer, credential.serial)
        assert receipt.retracted == frozenset({credential.serial})
        assert receipt.epoch == before + 1 == trust_epoch()

    @pytest.mark.parametrize("siblings", [1, 255])
    def test_signature_eviction_is_serial_precise(
        self, bus, authority, siblings
    ):
        from repro.crypto.keys import KeyPair

        clear_all_caches()
        holder = KeyPair.generate(512)
        credentials = [
            authority.issue(
                "Qual", f"holder-{index}", holder.fingerprint, {"k": "v"},
                ISSUE_AT,
            )
            for index in range(siblings + 1)
        ]
        for credential in credentials:
            SIGNATURE_CACHE.put(
                ("fp", credential.serial), True,
                tag=(authority.name, credential.serial),
            )
        revoked = credentials[0]
        before = len(SIGNATURE_CACHE)
        receipt = bus.revoke(authority, revoked)
        assert receipt.evicted_signatures == 1
        assert before - len(SIGNATURE_CACHE) == 1  # zero collateral
        assert SIGNATURE_CACHE.get(("fp", revoked.serial)) is None
        # Every other credential of the issuer keeps its cached
        # verdict — the precision the old whole-issuer flush lacked.
        for sibling in credentials[1:]:
            assert SIGNATURE_CACHE.get(("fp", sibling.serial)) is True

    def test_sequence_eviction_via_provenance(self):
        fixture = chain_workload(4)
        engine = NegotiationEngine(fixture.requester, fixture.controller)
        result = engine.run(fixture.resource, at=fixture.negotiation_time())
        assert result.success
        cache = SequenceCache()
        agents = {
            fixture.requester.name: fixture.requester,
            fixture.controller.name: fixture.controller,
        }
        entry = cache.store(result, agents=agents)
        assert entry is not None and entry.provenance
        disclosed = fixture.requester.profile.get(
            result.disclosed_by_requester[0]
        )
        receipt = TrustBus(registry=fixture.revocations).revoke(
            fixture.authority, disclosed
        )
        assert receipt.evicted_sequences >= 1
        assert cache.lookup(
            result.requester, result.controller, result.resource
        ) is None

    def test_crl_publication_retracts_the_delta(self, bus, authority):
        first = _issue(authority)
        second = _issue(authority)
        authority.revoke(first)
        receipt = bus.publish_crl(authority.crl)
        assert receipt.retracted == frozenset({first.serial})
        authority.revoke(second)
        receipt = bus.publish_crl(authority.crl)
        # Only the *newly* revoked serial is the delta.
        assert receipt.retracted == frozenset({second.serial})

    def test_empty_publication_is_a_no_op(self, authority):
        bus = TrustBus()
        before = trust_epoch()
        receipt = bus.publish_crl(authority.crl)
        assert receipt.retracted == frozenset()
        assert receipt.epoch == before == trust_epoch()

    def test_negative_credential_and_decay_advance_the_epoch(self, bus):
        before = trust_epoch()
        bus.retract(TrustEvent.negative_credential(
            issuer="BusCA", serial=999, subject="mallory",
        ))
        bus.retract(TrustEvent.reputation_decayed(
            "mallory", score=0.2, threshold=0.3,
        ))
        assert trust_epoch() == before + 2


class TestSubscriptionAndTouched:
    def test_subscribers_observe_effective_events(self, bus, authority):
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        credential = _issue(authority, subject="alice")
        bus.revoke(authority, credential)
        assert len(seen) == 1
        assert seen[0].kind is TrustEventKind.CREDENTIAL_REVOKED
        assert seen[0].subjects == frozenset({"alice"})
        unsubscribe()
        bus.revoke(authority, _issue(authority))
        assert len(seen) == 1

    def test_ineffective_events_are_not_delivered(self, authority):
        bus = TrustBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish_crl(authority.crl)  # empty list: nothing retracted
        assert seen == []

    def test_touched_counts_per_subject(self, bus, authority):
        assert bus.touched("alice") == 0
        bus.revoke(authority, _issue(authority, subject="alice"))
        bus.revoke(authority, _issue(authority, subject="alice"))
        bus.revoke(authority, _issue(authority, subject="bob"))
        assert bus.touched("alice") == 2
        assert bus.touched("bob") == 1
        assert bus.touched("carol") == 0

    def test_default_bus_is_a_singleton(self):
        assert default_bus() is default_bus()

    def test_receipt_is_frozen(self, bus, authority):
        receipt = bus.revoke(authority, _issue(authority))
        assert isinstance(receipt, RetractionReceipt)
        with pytest.raises(AttributeError):
            receipt.epoch = 0


class TestPublicationGuards:
    def test_unsigned_list_is_rejected_with_typed_code(self, bus):
        unsigned = RevocationList(issuer="BusCA", serials={1}, version=1)
        with pytest.raises(SignatureError) as excinfo:
            bus.publish_crl(unsigned)
        assert excinfo.value.error_code is ErrorCode.UNSIGNED_REVOCATION_LIST

    def test_stale_version_is_rejected(self, bus, authority):
        authority.revoke(_issue(authority))
        current = authority.crl
        bus.publish_crl(current)
        stale = RevocationList(issuer=authority.name, serials=set(), version=0)
        stale.sign(authority.keypair.private)
        with pytest.raises(SignatureError):
            bus.publish_crl(stale)

    def test_rejected_publication_does_not_advance_the_epoch(self, bus):
        before = trust_epoch()
        with pytest.raises(SignatureError):
            bus.publish_crl(RevocationList(issuer="BusCA", serials={7}))
        assert trust_epoch() == before


class TestDeprecatedShims:
    def test_blessed_sweep_does_not_warn(self):
        clear_all_caches()
        SIGNATURE_CACHE.put(("fp", b"d", "s"), True, tag=("OldCA", 3))
        assert drop_issuer_signatures("OldCA") == 1
