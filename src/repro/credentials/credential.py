"""The X-TNL credential document (paper Section 4.1, Fig. 6).

A credential is a set of attributes of a party, issued and signed by a
Credential Authority.  Following Fig. 6 it has three subelements:

``<header>``
    credential type, unique id, issuer, subject, the subject's key
    fingerprint (for ownership proofs), a serial number (for
    revocation), a sensitivity label, and the validity window.
``<content>``
    the typed attributes.
``<signature>``
    the issuer's signature, base64-encoded, computed over the canonical
    form of header+content.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from typing import Iterable, Mapping, Optional
from xml.etree import ElementTree as ET

from repro.credentials.attributes import AttributeValue
from repro.credentials.sensitivity import Sensitivity
from repro.errors import CredentialFormatError
from repro.xmlutil.canonical import canonicalize, parse_xml

__all__ = ["ValidityPeriod", "Credential"]


@dataclass(frozen=True, slots=True)
class ValidityPeriod:
    """Time window during which a credential is valid."""

    not_before: datetime
    not_after: datetime

    def __post_init__(self) -> None:
        if self.not_after <= self.not_before:
            raise CredentialFormatError(
                f"validity window is empty: {self.not_before.isoformat()} .. "
                f"{self.not_after.isoformat()}"
            )

    def contains(self, at: datetime) -> bool:
        return self.not_before <= at <= self.not_after

    @classmethod
    def starting(cls, start: datetime, days: int) -> "ValidityPeriod":
        """Window of ``days`` days starting at ``start``."""
        return cls(start, start + timedelta(days=days))


@dataclass(frozen=True, slots=True)
class Credential:
    """A signed X-TNL attribute credential.

    Instances are immutable; an unsigned credential body is built first
    and the issuing authority attaches the signature with
    :meth:`with_signature`.
    """

    cred_type: str
    cred_id: str
    issuer: str
    subject: str
    subject_key: str  # fingerprint of the holder's public key
    validity: ValidityPeriod
    attributes: tuple[AttributeValue, ...] = ()
    sensitivity: Sensitivity = Sensitivity.LOW
    serial: int = 0
    signature_b64: Optional[str] = field(default=None, compare=False)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(
        cls,
        cred_type: str,
        cred_id: str,
        issuer: str,
        subject: str,
        subject_key: str,
        validity: ValidityPeriod,
        attributes: Mapping[str, object] | Iterable[AttributeValue] = (),
        sensitivity: Sensitivity = Sensitivity.LOW,
        serial: int = 0,
    ) -> "Credential":
        """Build an unsigned credential; attribute mapping values are
        converted with :meth:`AttributeValue.of`."""
        if isinstance(attributes, Mapping):
            attrs = tuple(
                AttributeValue.of(name, value)
                for name, value in attributes.items()
            )
        else:
            attrs = tuple(attributes)
        names = [attr.name for attr in attrs]
        if len(names) != len(set(names)):
            raise CredentialFormatError(
                f"duplicate attribute names in credential {cred_id!r}"
            )
        return cls(
            cred_type=cred_type,
            cred_id=cred_id,
            issuer=issuer,
            subject=subject,
            subject_key=subject_key,
            validity=validity,
            attributes=attrs,
            sensitivity=sensitivity,
            serial=serial,
        )

    def with_signature(self, signature_b64: str) -> "Credential":
        return replace(self, signature_b64=signature_b64)

    # -- attribute access ----------------------------------------------------

    def attribute(self, name: str) -> AttributeValue:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(name)

    def has_attribute(self, name: str) -> bool:
        return any(attr.name == name for attr in self.attributes)

    def attribute_names(self) -> list[str]:
        return [attr.name for attr in self.attributes]

    def value(self, name: str) -> object:
        return self.attribute(name).value

    @property
    def is_signed(self) -> bool:
        return self.signature_b64 is not None

    # -- XML serialization (Fig. 6) -----------------------------------------

    def _header_element(self) -> ET.Element:
        header = ET.Element("header")
        ET.SubElement(header, "credType").text = self.cred_type
        ET.SubElement(header, "credID").text = self.cred_id
        ET.SubElement(header, "issuer").text = self.issuer
        ET.SubElement(header, "subject").text = self.subject
        ET.SubElement(header, "subjectKey").text = self.subject_key
        ET.SubElement(header, "serial").text = str(self.serial)
        ET.SubElement(header, "sensitivity").text = self.sensitivity.label
        validity = ET.SubElement(header, "validity")
        ET.SubElement(validity, "notBefore").text = (
            self.validity.not_before.isoformat()
        )
        ET.SubElement(validity, "notAfter").text = (
            self.validity.not_after.isoformat()
        )
        return header

    def _content_element(self) -> ET.Element:
        content = ET.Element("content")
        for attr in self.attributes:
            node = ET.SubElement(content, attr.name, {"type": attr.type_tag})
            node.text = attr.xml_text
        return content

    def signing_bytes(self) -> bytes:
        """Canonical bytes the issuer signs (header + content)."""
        envelope = ET.Element("credential")
        envelope.append(self._header_element())
        envelope.append(self._content_element())
        return canonicalize(envelope).encode("utf-8")

    def to_element(self) -> ET.Element:
        root = ET.Element("credential")
        root.append(self._header_element())
        root.append(self._content_element())
        if self.signature_b64 is not None:
            ET.SubElement(root, "signature").text = self.signature_b64
        return root

    def to_xml(self) -> str:
        return canonicalize(self.to_element())

    @classmethod
    def from_element(cls, root: ET.Element) -> "Credential":
        if root.tag != "credential":
            raise CredentialFormatError(
                f"expected <credential>, found <{root.tag}>"
            )
        header = root.find("header")
        content = root.find("content")
        if header is None or content is None:
            raise CredentialFormatError(
                "credential is missing <header> or <content>"
            )

        def text_of(parent: ET.Element, tag: str) -> str:
            node = parent.find(tag)
            if node is None or node.text is None:
                raise CredentialFormatError(
                    f"credential header is missing <{tag}>"
                )
            return node.text.strip()

        validity_node = header.find("validity")
        if validity_node is None:
            raise CredentialFormatError("credential header lacks <validity>")
        try:
            validity = ValidityPeriod(
                datetime.fromisoformat(text_of(validity_node, "notBefore")),
                datetime.fromisoformat(text_of(validity_node, "notAfter")),
            )
        except ValueError as exc:
            raise CredentialFormatError(
                f"invalid validity timestamps: {exc}"
            ) from exc

        attributes = []
        for node in content:
            type_tag = node.attrib.get("type", "string")
            attributes.append(
                AttributeValue.parse(node.tag, (node.text or "").strip(), type_tag)
            )

        signature_node = root.find("signature")
        signature = (
            signature_node.text.strip()
            if signature_node is not None and signature_node.text
            else None
        )
        try:
            sensitivity = Sensitivity.parse(text_of(header, "sensitivity"))
        except ValueError as exc:
            raise CredentialFormatError(str(exc)) from exc
        try:
            serial = int(text_of(header, "serial"))
        except ValueError as exc:
            raise CredentialFormatError(f"invalid serial: {exc}") from exc

        return cls(
            cred_type=text_of(header, "credType"),
            cred_id=text_of(header, "credID"),
            issuer=text_of(header, "issuer"),
            subject=text_of(header, "subject"),
            subject_key=text_of(header, "subjectKey"),
            validity=validity,
            attributes=tuple(attributes),
            sensitivity=sensitivity,
            serial=serial,
            signature_b64=signature,
        )

    @classmethod
    def from_xml(cls, text: str) -> "Credential":
        return cls.from_element(parse_xml(text))

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Credential({self.cred_type!r}, subject={self.subject!r}, "
            f"issuer={self.issuer!r}, serial={self.serial})"
        )
