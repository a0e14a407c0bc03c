"""Signing bytes are the canonical form of the credential's own tree.

A credential's equality does not cover every byte it serializes: the
same validity instant written in two UTC offsets compares (and hashes)
equal but is written differently.  Nothing may therefore serve one
credential's signing bytes for another; each call canonicalizes the
tree the credential builds now.  The property tests pin
``Credential``/``AttributeCertificate`` serialization against the
reference writer over every attribute type tag, signed and unsigned.
"""

from dataclasses import replace
from datetime import date, datetime, timedelta, timezone

from hypothesis import given, settings, strategies as st

from repro.credentials.attributes import AttributeValue
from repro.credentials.credential import Credential, ValidityPeriod
from repro.credentials.sensitivity import Sensitivity
from repro.credentials.validation import CredentialValidator
from repro.credentials.x509 import AttributeCertificate
from repro.crypto.keys import Keyring, verify_b64
from repro.xmlutil.canonical import canonicalize
from tests.xmlutil.reference_canonical import reference_canonicalize

_UTC = timezone.utc
_CET = timezone(timedelta(hours=1))


def _credential(not_before: datetime) -> Credential:
    return Credential.build(
        cred_type="ISO 9000 Certified",
        cred_id="cred-offset",
        issuer="INFN",
        subject="AerospaceCo",
        subject_key="fp123",
        validity=ValidityPeriod.starting(not_before, 365),
        attributes={"QualityRegulation": "UNI EN ISO 9000"},
        serial=7,
    )


class TestSameInstantDifferentOffset:
    """Regression: equal credentials must not share signing bytes."""

    def _pair(self):
        utc = _credential(datetime(2009, 10, 26, 21, 32, 52, tzinfo=_UTC))
        cet = _credential(datetime(2009, 10, 26, 22, 32, 52, tzinfo=_CET))
        assert utc == cet and hash(utc) == hash(cet)
        return utc, cet

    def test_each_signs_its_own_tree(self):
        utc, cet = self._pair()
        utc_bytes = utc.signing_bytes()
        cet_bytes = cet.signing_bytes()
        assert utc_bytes == canonicalize(utc.to_element()).encode("utf-8")
        assert cet_bytes == canonicalize(cet.to_element()).encode("utf-8")
        assert b"+01:00" in cet_bytes
        assert utc_bytes != cet_bytes

    def test_each_writes_its_own_xml(self, infn):
        utc, cet = self._pair()
        signed = [
            credential.with_signature(
                infn.keypair.private.sign_b64(credential.signing_bytes())
            )
            for credential in (utc, cet)
        ]
        for credential in signed:
            assert credential.to_xml() == canonicalize(credential.to_element())
        assert "+01:00" in signed[1].to_xml()

    def test_signature_verifies_after_a_round_trip(self, infn):
        utc, cet = self._pair()
        utc.signing_bytes()  # the first of the pair to be serialized
        signed = cet.with_signature(
            infn.keypair.private.sign_b64(cet.signing_bytes())
        )
        restored = Credential.from_xml(signed.to_xml())
        assert restored.validity.not_before.utcoffset() == timedelta(hours=1)
        assert verify_b64(
            infn.public_key, restored.signing_bytes(), restored.signature_b64
        )
        keyring = Keyring()
        keyring.add(infn.name, infn.public_key)
        report = CredentialValidator(keyring).validate(
            restored, at=restored.validity.not_before
        )
        assert report.signature_ok


# -- byte identity over every attribute type tag ------------------------------

_TEXT = st.text(alphabet="ab &<>\"'\t é中", max_size=10)
_NAMES = st.sampled_from(["alpha", "Beta", "q", "xé", "Z9"])
_NAIVE = st.datetimes(
    min_value=datetime(1990, 1, 1), max_value=datetime(2090, 1, 1)
)
_DATETIMES = st.one_of(
    _NAIVE,
    st.builds(
        lambda moment, minutes: moment.replace(
            tzinfo=timezone(timedelta(minutes=minutes))
        ),
        _NAIVE, st.integers(-14 * 60, 14 * 60),
    ),
)
_VALUES = st.one_of(
    _TEXT,
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.dates(),
    _DATETIMES,
)
_ATTRIBUTES = st.dictionaries(_NAMES, _VALUES, max_size=5)
_SIGNATURES = st.one_of(
    st.none(),
    st.text(
        alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdef0123456789+/=",
        min_size=1, max_size=24,
    ),
)


def test_the_value_strategy_reaches_every_type_tag():
    tags = {
        AttributeValue.of("a", value).type_tag
        for value in ("s", 1, 1.5, True, date(2000, 1, 1),
                      datetime(2000, 1, 1))
    }
    assert tags == {"string", "integer", "decimal", "boolean", "date",
                    "dateTime"}


@settings(max_examples=200, deadline=None)
@given(
    texts=st.tuples(_TEXT, _TEXT, _TEXT, _TEXT, _TEXT),
    not_before=_DATETIMES,
    attributes=_ATTRIBUTES,
    sensitivity=st.sampled_from(list(Sensitivity)),
    serial=st.integers(0, 2**40),
    signature=_SIGNATURES,
)
def test_credential_bytes_match_the_reference(
    texts, not_before, attributes, sensitivity, serial, signature
):
    cred_type, cred_id, issuer, subject, subject_key = texts
    credential = Credential.build(
        cred_type=cred_type, cred_id=cred_id, issuer=issuer,
        subject=subject, subject_key=subject_key,
        validity=ValidityPeriod.starting(not_before, 30),
        attributes=attributes, sensitivity=sensitivity, serial=serial,
    )
    if signature is not None:
        credential = credential.with_signature(signature)
    unsigned = replace(credential, signature_b64=None)
    assert credential.signing_bytes() == reference_canonicalize(
        unsigned.to_element()
    ).encode("utf-8")
    assert credential.to_xml() == reference_canonicalize(
        credential.to_element()
    )


@settings(max_examples=200, deadline=None)
@given(
    texts=st.tuples(_TEXT, _TEXT, _TEXT),
    not_before=_DATETIMES,
    attributes=_ATTRIBUTES,
    extensions=st.dictionaries(_TEXT, _TEXT, max_size=3),
    serial=st.integers(0, 2**40),
    signature=_SIGNATURES,
)
def test_attribute_certificate_bytes_match_the_reference(
    texts, not_before, attributes, extensions, serial, signature
):
    holder, holder_key, issuer = texts
    certificate = AttributeCertificate.build(
        holder, holder_key, issuer, serial,
        ValidityPeriod.starting(not_before, 30), attributes, extensions,
    )
    if signature is not None:
        certificate = replace(certificate, signature_b64=signature)
    unsigned = replace(certificate, signature_b64=None)
    assert certificate.signing_bytes() == reference_canonicalize(
        unsigned.to_element()
    ).encode("utf-8")
    assert certificate.to_xml() == reference_canonicalize(
        certificate.to_element()
    )
