"""The X-TNL credential document and its XML round-trip (Fig. 6)."""

from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.credentials.credential import Credential, ValidityPeriod
from repro.credentials.sensitivity import Sensitivity
from repro.errors import CredentialFormatError
from tests.conftest import ISSUE_AT


class TestValidityPeriod:
    def test_contains_inside(self):
        period = ValidityPeriod.starting(ISSUE_AT, days=365)
        assert period.contains(ISSUE_AT + timedelta(days=100))

    def test_boundaries_inclusive(self):
        period = ValidityPeriod.starting(ISSUE_AT, days=365)
        assert period.contains(period.not_before)
        assert period.contains(period.not_after)

    def test_outside(self):
        period = ValidityPeriod.starting(ISSUE_AT, days=30)
        assert not period.contains(ISSUE_AT + timedelta(days=31))
        assert not period.contains(ISSUE_AT - timedelta(seconds=1))

    def test_empty_window_rejected(self):
        with pytest.raises(CredentialFormatError):
            ValidityPeriod(ISSUE_AT, ISSUE_AT)


def _build(**overrides):
    defaults = dict(
        cred_type="ISO 9000 Certified",
        cred_id="cred-1",
        issuer="INFN",
        subject="AerospaceCo",
        subject_key="fp123",
        validity=ValidityPeriod.starting(ISSUE_AT, 365),
        attributes={"QualityRegulation": "UNI EN ISO 9000"},
        sensitivity=Sensitivity.MEDIUM,
        serial=5,
    )
    defaults.update(overrides)
    return Credential.build(**defaults)


class TestBuild:
    def test_attributes_from_mapping(self):
        cred = _build(attributes={"a": 1, "b": "x"})
        assert cred.value("a") == 1
        assert cred.value("b") == "x"

    def test_duplicate_attribute_names_rejected(self):
        from repro.credentials.attributes import AttributeValue

        with pytest.raises(CredentialFormatError):
            Credential.build(
                cred_type="T", cred_id="i", issuer="I", subject="S",
                subject_key="k",
                validity=ValidityPeriod.starting(ISSUE_AT, 1),
                attributes=[
                    AttributeValue.of("a", 1), AttributeValue.of("a", 2)
                ],
            )

    def test_unsigned_by_default(self):
        assert not _build().is_signed

    def test_with_signature(self):
        signed = _build().with_signature("c2ln")
        assert signed.is_signed
        assert signed.signature_b64 == "c2ln"

    def test_attribute_lookup_missing_raises_keyerror(self):
        with pytest.raises(KeyError):
            _build().attribute("nope")

    def test_has_attribute(self):
        cred = _build()
        assert cred.has_attribute("QualityRegulation")
        assert not cred.has_attribute("other")


class TestXmlRoundtrip:
    def test_fig6_shape(self):
        """The XML mirrors Fig. 6: header/content/signature."""
        xml = _build().with_signature("AAAA").to_xml()
        assert xml.startswith("<credential>")
        for element in ("<header>", "<credType>", "<issuer>", "<content>",
                        "<QualityRegulation", "<signature>"):
            assert element in xml

    def test_roundtrip_preserves_everything(self):
        original = _build().with_signature("U0lHTkFUVVJF")
        restored = Credential.from_xml(original.to_xml())
        assert restored == original
        assert restored.signature_b64 == original.signature_b64
        assert restored.sensitivity == original.sensitivity
        assert restored.serial == original.serial
        assert restored.validity == original.validity

    def test_unsigned_roundtrip(self):
        original = _build()
        restored = Credential.from_xml(original.to_xml())
        assert restored.signature_b64 is None

    def test_signing_bytes_exclude_signature(self):
        unsigned = _build()
        signed = unsigned.with_signature("AAAA")
        assert unsigned.signing_bytes() == signed.signing_bytes()

    def test_signing_bytes_change_with_content(self):
        left = _build(attributes={"QualityRegulation": "UNI EN ISO 9000"})
        right = _build(attributes={"QualityRegulation": "ISO 14001"})
        assert left.signing_bytes() != right.signing_bytes()

    def test_wrong_root_rejected(self):
        with pytest.raises(CredentialFormatError):
            Credential.from_xml("<notacredential/>")

    def test_missing_header_rejected(self):
        with pytest.raises(CredentialFormatError):
            Credential.from_xml("<credential><content/></credential>")

    def test_missing_field_rejected(self):
        xml = _build().to_xml().replace("<issuer>INFN</issuer>", "")
        with pytest.raises(CredentialFormatError):
            Credential.from_xml(xml)

    def test_bad_timestamp_rejected(self):
        xml = _build().to_xml().replace("2009-10-26T21:32:52", "not-a-date")
        with pytest.raises(CredentialFormatError):
            Credential.from_xml(xml)

    def test_bad_sensitivity_rejected(self):
        xml = _build().to_xml().replace(
            "<sensitivity>medium</sensitivity>",
            "<sensitivity>ultra</sensitivity>",
        )
        with pytest.raises(CredentialFormatError):
            Credential.from_xml(xml)


@settings(max_examples=30, deadline=None)
@given(
    cred_type=st.sampled_from(
        ["ISO 9000 Certified", "AAA Member", "BalanceSheet", "T"]
    ),
    serial=st.integers(min_value=0, max_value=10**6),
    sensitivity=st.sampled_from(list(Sensitivity)),
    attr_value=st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        # Surrounding whitespace is normalized by the canonical XML
        # form (documented behaviour), so generate stripped strings.
        st.text(alphabet=st.sampled_from("abc XYZ09-"), max_size=20).map(
            str.strip
        ),
        st.booleans(),
    ),
)
def test_roundtrip_property(cred_type, serial, sensitivity, attr_value):
    original = Credential.build(
        cred_type=cred_type,
        cred_id=f"id-{serial}",
        issuer="INFN",
        subject="S",
        subject_key="fp",
        validity=ValidityPeriod.starting(ISSUE_AT, 10),
        attributes={"field": attr_value},
        sensitivity=sensitivity,
        serial=serial,
    ).with_signature("QUJD")
    assert Credential.from_xml(original.to_xml()) == original


class TestLineBreaksInAttributes:
    def test_signature_verifies_after_an_xml_round_trip(self, infn):
        from repro.crypto.keys import verify_b64

        issued = infn.issue(
            "Note", "AerospaceCo", "fp123",
            {"note": "line1\r\nline2", "cells": "a\tb"}, ISSUE_AT,
        )
        back = Credential.from_xml(issued.to_xml())
        assert back == issued
        assert back.attribute("note").value == "line1\r\nline2"
        assert verify_b64(
            infn.public_key, back.signing_bytes(), back.signature_b64
        )
