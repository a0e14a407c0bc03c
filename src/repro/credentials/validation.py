"""The credential verification pipeline.

"Upon receiving a credential, the counterpart verifies the satisfaction
of the associated policies, checks for revocation and validity dates,
and authenticates the ownership" (paper Section 4.2).  This module
implements the three credential-level checks (policy satisfaction lives
in :mod:`repro.policy.compliance`):

1. **issuer signature** — against the verifier's keyring, resolving a
   credential chain when the issuer is not directly trusted;
2. **validity dates and revocation** — against the simulated clock and
   the revocation registry;
3. **ownership** — a challenge/response proof that the presenter holds
   the private key whose fingerprint the credential names.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from repro.credentials.chain import ChainResolver, CERTIFIED_KEY_ATTRIBUTE
from repro.credentials.credential import Credential
from repro.credentials.revocation import RevocationRegistry
from repro.crypto.keys import Keyring, PrivateKey, PublicKey, verify_b64
from repro.errors import (
    CredentialExpiredError,
    CredentialOwnershipError,
    CredentialRevokedError,
    SignatureError,
)
from repro.perf import SIGNATURE_CACHE

__all__ = [
    "OwnershipProof",
    "ValidationReport",
    "CredentialValidator",
    "cached_verify_b64",
]


def cached_verify_b64(
    key: PublicKey, message: bytes, signature_b64: str, issuer: str,
    serial: Optional[int] = None,
) -> bool:
    """RSA verification memoized in :data:`repro.perf.SIGNATURE_CACHE`.

    The verdict of ``verify_b64`` is a pure function of (key, message,
    signature), so the cache key is the key's fingerprint plus the
    SHA-256 of the bytes being verified plus the signature: two
    credentials that compare equal but serialize differently (one
    instant in two UTC offsets) never share a verdict.  Entries are
    tagged with ``(issuer, serial)`` so that a retraction event naming
    exactly that credential (see :meth:`repro.trust.TrustBus.retract`)
    evicts the verdict it contradicts without flushing the issuer's
    other credentials — revocation is the one nonmonotonic event in
    the trust model, and the cache must neither paper over it nor
    overpay for it.  Callers without a serial (none today) fall back to
    the bare issuer-name tag, which the whole-issuer sweep
    (:func:`repro.perf.drop_issuer_signatures`) still matches.

    Ownership proofs are deliberately **not** routed through here: a
    nonce is fresh per challenge, so caching its verification would
    never hit and would bloat the cache.
    """
    cache_key = (
        key.fingerprint,
        hashlib.sha256(message).digest(),
        signature_b64,
    )
    return SIGNATURE_CACHE.get_or_compute(
        cache_key,
        lambda: verify_b64(key, message, signature_b64),
        tag=issuer if serial is None else (issuer, serial),
    )


@dataclass(frozen=True)
class OwnershipProof:
    """Response to an ownership challenge.

    The presenter signs the verifier's nonce with the credential
    subject's private key and attaches the matching public key; the
    verifier checks the key's fingerprint against the credential's
    ``subjectKey`` field.
    """

    nonce: str
    public_key: PublicKey
    signature_b64: str

    @classmethod
    def respond(cls, nonce: str, key: PrivateKey) -> "OwnershipProof":
        return cls(
            nonce=nonce,
            public_key=key.public_key,
            signature_b64=key.sign_b64(nonce.encode("utf-8")),
        )

    def check(self, expected_fingerprint: str) -> bool:
        if self.public_key.fingerprint != expected_fingerprint:
            return False
        return verify_b64(
            self.public_key, self.nonce.encode("utf-8"), self.signature_b64
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one credential."""

    credential: Credential
    signature_ok: bool
    within_validity: bool
    not_revoked: bool
    ownership_ok: Optional[bool]  # None when no proof was requested
    chain_length: int = 1

    @property
    def ok(self) -> bool:
        checks = [self.signature_ok, self.within_validity, self.not_revoked]
        if self.ownership_ok is not None:
            checks.append(self.ownership_ok)
        return all(checks)

    def raise_for_failure(self) -> None:
        if not self.signature_ok:
            raise SignatureError(
                f"signature check failed for {self.credential.cred_id!r}"
            )
        if not self.within_validity:
            raise CredentialExpiredError(
                f"credential {self.credential.cred_id!r} is outside its "
                "validity window"
            )
        if not self.not_revoked:
            raise CredentialRevokedError(
                f"credential {self.credential.cred_id!r} was revoked"
            )
        if self.ownership_ok is False:
            raise CredentialOwnershipError(
                f"ownership proof failed for {self.credential.cred_id!r}"
            )


@dataclass
class CredentialValidator:
    """A party's credential verifier.

    Holds the trusted keyring, the revocation registry, and optionally a
    chain resolver for indirectly-trusted issuers.
    """

    keyring: Keyring
    revocations: RevocationRegistry = field(default_factory=RevocationRegistry)
    chain_resolver: Optional[ChainResolver] = None

    def issue_challenge(self) -> str:
        """Fresh nonce for an ownership challenge."""
        return secrets.token_hex(16)

    def _issuer_key(self, credential: Credential) -> tuple[Optional[PublicKey], int]:
        """Resolve the issuer's verification key, walking a chain when
        the issuer is not directly trusted.  Returns (key, chain_length),
        with key None when resolution fails."""
        if self.keyring.trusts(credential.issuer):
            return self.keyring.get(credential.issuer), 1
        if self.chain_resolver is None:
            return None, 1
        try:
            chain = self.chain_resolver.resolve(credential)
        except Exception:
            return None, 1
        # Verify the chain root-first: each link's signature must verify
        # under the key certified one step up.
        key = self.keyring.get(chain.links[-1].issuer)
        for link in reversed(chain.links):
            if not cached_verify_b64(
                key, link.signing_bytes(), link.signature_b64 or "",
                link.issuer, serial=link.serial,
            ):
                return None, len(chain)
            if self.revocations.is_revoked(link.issuer, link.serial):
                return None, len(chain)
            certified = link.attribute(CERTIFIED_KEY_ATTRIBUTE).xml_text
            try:
                key = PublicKey.from_json(certified)
            except Exception:
                return None, len(chain)
        return key, len(chain)

    def validate(
        self,
        credential: Credential,
        at: datetime,
        proof: Optional[OwnershipProof] = None,
        expected_nonce: Optional[str] = None,
    ) -> ValidationReport:
        """Run every check and return a report (never raises).

        When ``proof`` is supplied, ``expected_nonce`` must be the nonce
        this validator issued; a replayed proof with a different nonce
        fails the ownership check.
        """
        issuer_key, chain_length = self._issuer_key(credential)
        signature_ok = (
            issuer_key is not None
            and credential.signature_b64 is not None
            and cached_verify_b64(
                issuer_key,
                credential.signing_bytes(),
                credential.signature_b64,
                credential.issuer,
                serial=credential.serial,
            )
        )
        within_validity = credential.validity.contains(at)
        not_revoked = not self.revocations.is_revoked(
            credential.issuer, credential.serial
        )
        ownership_ok: Optional[bool] = None
        if proof is not None:
            nonce_fresh = expected_nonce is None or proof.nonce == expected_nonce
            ownership_ok = nonce_fresh and proof.check(credential.subject_key)
        return ValidationReport(
            credential=credential,
            signature_ok=signature_ok,
            within_validity=within_validity,
            not_revoked=not_revoked,
            ownership_ok=ownership_ok,
            chain_length=chain_length,
        )

    def validate_or_raise(
        self,
        credential: Credential,
        at: datetime,
        proof: Optional[OwnershipProof] = None,
        expected_nonce: Optional[str] = None,
    ) -> ValidationReport:
        report = self.validate(credential, at, proof, expected_nonce)
        report.raise_for_failure()
        return report
