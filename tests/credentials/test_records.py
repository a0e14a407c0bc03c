"""The records a credential is made of are frozen and slotted.

Participation tickets pile up in a long-lived member's profile, so a
``Credential``, its ``ValidityPeriod`` and its ``AttributeValue``s are
kept without a per-instance ``__dict__``.  Slots must not change what
the records mean: a signed credential, and an attribute certificate
built from the same parts, survive ``pickle``, ``copy.deepcopy`` and
``dataclasses.replace``, equality still ignores the signature, and
hashes are stable.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.credentials.attributes import AttributeValue
from repro.credentials.credential import Credential, ValidityPeriod
from repro.credentials.x509 import AttributeCertificate
from tests.conftest import ISSUE_AT


@pytest.mark.parametrize(
    "record", (AttributeValue, ValidityPeriod, Credential),
    ids=lambda cls: cls.__name__,
)
def test_record_is_frozen_and_slotted(record):
    assert record.__dataclass_params__.frozen
    assert "__slots__" in vars(record)
    assert "__dict__" not in dir(record)


@pytest.fixture()
def certificate(infn, shared_keypair):
    return AttributeCertificate.build(
        holder="AerospaceCo",
        holder_key=shared_keypair.fingerprint,
        issuer=infn.name,
        serial=7,
        validity=ValidityPeriod.starting(ISSUE_AT, days=365),
        attributes={"role": "Designer", "level": 3},
        extensions={"2.5.29.55": "VO-1"},
    ).signed_by(infn.keypair.private)


@pytest.fixture(params=["credential", "certificate"])
def signed(request, iso_credential, certificate):
    return iso_credential if request.param == "credential" else certificate


ROUND_TRIPS = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}


class TestSignedRecords:
    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_round_trip_keeps_every_field_and_the_signature(
        self, signed, how
    ):
        again = ROUND_TRIPS[how](signed)
        assert again is not signed
        assert again == signed
        assert hash(again) == hash(signed)
        assert again.signature_b64 == signed.signature_b64
        assert again.signing_bytes() == signed.signing_bytes()
        assert again.to_xml() == signed.to_xml()
        for field in dataclasses.fields(signed):
            assert getattr(again, field.name) == getattr(signed, field.name)

    def test_parts_have_no_dict(self, signed):
        assert not hasattr(signed.validity, "__dict__")
        assert signed.attributes
        assert all(not hasattr(a, "__dict__") for a in signed.attributes)

    def test_still_frozen(self, signed):
        with pytest.raises(dataclasses.FrozenInstanceError):
            signed.signature_b64 = None

    def test_equality_and_hash_ignore_the_signature(self, signed):
        unsigned = dataclasses.replace(signed, signature_b64=None)
        assert not unsigned.is_signed
        assert unsigned == signed
        assert hash(unsigned) == hash(signed)
        assert len({signed, unsigned}) == 1

    def test_hash_is_stable_across_equal_instances(self, signed):
        rebuilt = type(signed).from_xml(signed.to_xml())
        assert rebuilt == signed
        assert hash(rebuilt) == hash(signed)
        assert hash(pickle.loads(pickle.dumps(signed))) == hash(signed)

    def test_a_changed_field_is_a_different_record(self, signed):
        later = dataclasses.replace(
            signed,
            validity=ValidityPeriod.starting(ISSUE_AT, days=366),
        )
        assert later != signed


def test_credential_has_no_dict(iso_credential):
    assert not hasattr(iso_credential, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(iso_credential, "cache", {})
