"""Hash-based selective disclosure of credential attributes.

Section 6.3 of the paper notes that plain X.509 v2 prevents the
suspicious and strong-suspicious strategies because the format has no
partial hiding, and sketches the fix the authors were exploring:

    "substitute the attributes in clear with attributes whose content
    is the hash value of the concatenation of attribute name and
    attribute value.  The signature could be computed over the whole
    hashed content."

This module implements that proposal (with per-attribute random salts,
without which low-entropy attribute values would be guessable from the
hashes alone):

1. the issuer replaces every attribute with
   ``H(name || value || salt)`` and signs the full list of commitments;
2. the holder discloses any subset of attributes by revealing the
   ``(name, value, salt)`` openings for just that subset;
3. the verifier recomputes each opened commitment, checks it appears in
   the signed commitment list, and verifies the issuer's signature over
   *all* commitments — so hidden attributes stay hidden while the
   signature still covers them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.credentials.attributes import AttributeValue
from repro.credentials.credential import Credential, ValidityPeriod
from repro.crypto.digest import sha256
from repro.crypto.keys import PrivateKey, PublicKey, verify_b64
from repro.errors import SelectiveDisclosureError

__all__ = ["SelectiveCredential", "DisclosedAttribute", "commit_attribute"]


def commit_attribute(name: str, xml_text: str, salt: str) -> str:
    """Commitment ``H(name || value || salt)`` as lowercase hex."""
    payload = f"{name}\x00{xml_text}\x00{salt}".encode("utf-8")
    return sha256(payload).hexdigest()


@dataclass(frozen=True)
class DisclosedAttribute:
    """An opened commitment: the attribute plus its salt."""

    attribute: AttributeValue
    salt: str

    @property
    def commitment(self) -> str:
        return commit_attribute(
            self.attribute.name, self.attribute.xml_text, self.salt
        )


@dataclass
class SelectiveCredential:
    """A credential whose attributes are hash commitments.

    The holder keeps the full openings; a *presentation* reveals only a
    chosen subset.  The issuer's signature covers the sorted commitment
    list together with the credential metadata, so it remains valid for
    every subset the holder chooses to open.
    """

    cred_type: str
    cred_id: str
    issuer: str
    subject: str
    subject_key: str
    validity: ValidityPeriod
    serial: int
    commitments: tuple[str, ...]
    signature_b64: str
    _openings: dict[str, DisclosedAttribute] = field(default_factory=dict)

    # -- issuance ---------------------------------------------------------------

    @classmethod
    def issue_from(
        cls, credential: Credential, issuer_key: PrivateKey
    ) -> "SelectiveCredential":
        """Derive a selective-disclosure form of ``credential``.

        The plaintext credential never leaves the issuing context; only
        commitments are signed.
        """
        openings = {
            attr.name: DisclosedAttribute(attr, os.urandom(16).hex())
            for attr in credential.attributes
        }
        commitments = tuple(
            sorted(opening.commitment for opening in openings.values())
        )
        body = cls(
            cred_type=credential.cred_type,
            cred_id=credential.cred_id,
            issuer=credential.issuer,
            subject=credential.subject,
            subject_key=credential.subject_key,
            validity=credential.validity,
            serial=credential.serial,
            commitments=commitments,
            signature_b64="",
            _openings=openings,
        )
        signature = issuer_key.sign_b64(body.signing_bytes())
        body.signature_b64 = signature
        return body

    def signing_bytes(self) -> bytes:
        parts = [
            self.cred_type,
            self.cred_id,
            self.issuer,
            self.subject,
            self.subject_key,
            self.validity.not_before.isoformat(),
            self.validity.not_after.isoformat(),
            str(self.serial),
            *self.commitments,
        ]
        return "\x1f".join(parts).encode("utf-8")

    # -- presentation -------------------------------------------------------------

    def present(self, attribute_names: Iterable[str]) -> "Presentation":
        """Build a presentation disclosing only ``attribute_names``."""
        disclosed = []
        for name in attribute_names:
            opening = self._openings.get(name)
            if opening is None:
                raise SelectiveDisclosureError(
                    f"no opening held for attribute {name!r}"
                )
            disclosed.append(opening)
        return Presentation(credential=self, disclosed=tuple(disclosed))

    def attribute_names(self) -> list[str]:
        return sorted(self._openings)


@dataclass(frozen=True)
class Presentation:
    """A selective disclosure: the signed commitments plus a subset of
    openings."""

    credential: SelectiveCredential
    disclosed: tuple[DisclosedAttribute, ...]

    def verify(self, issuer_key: PublicKey) -> Mapping[str, AttributeValue]:
        """Verify and return the disclosed attributes by name.

        Raises :class:`SelectiveDisclosureError` when the signature does
        not verify or an opening does not match a signed commitment.
        """
        if not verify_b64(
            issuer_key,
            self.credential.signing_bytes(),
            self.credential.signature_b64,
        ):
            raise SelectiveDisclosureError(
                f"issuer signature on {self.credential.cred_id!r} "
                "does not verify"
            )
        committed = set(self.credential.commitments)
        revealed: dict[str, AttributeValue] = {}
        for opening in self.disclosed:
            if opening.commitment not in committed:
                raise SelectiveDisclosureError(
                    f"opening for {opening.attribute.name!r} does not match "
                    "any signed commitment"
                )
            revealed[opening.attribute.name] = opening.attribute
        return revealed

    @property
    def hidden_count(self) -> int:
        return len(self.credential.commitments) - len(self.disclosed)
