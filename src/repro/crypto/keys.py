"""Key wrappers, serialization, fingerprints, and keyrings.

Negotiation parties identify credential issuers by key fingerprint and
look the issuer's public key up in a local keyring (the paper verifies
credentials "using credential issuers' public keys", Section 5).
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field

from repro.crypto import rsa
from repro.errors import KeyError_, SignatureError

__all__ = [
    "PublicKey",
    "PrivateKey",
    "KeyPair",
    "Keyring",
    "verify_b64",
]


@dataclass(frozen=True)
class PublicKey:
    """Public key with a stable fingerprint for identification."""

    raw: rsa.RSAPublicKey
    fingerprint: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Derived once: verification keys every signature check by it,
        # and every issued token and ticket names its holder by it.
        material = f"{self.raw.modulus:x}:{self.raw.exponent:x}".encode()
        object.__setattr__(
            self, "fingerprint", hashlib.sha256(material).hexdigest()[:32]
        )

    def verify(self, message: bytes, signature: bytes) -> bool:
        return rsa.verify(self.raw, message, signature)

    def to_dict(self) -> dict:
        return {
            "kind": "rsa-public",
            "n": f"{self.raw.modulus:x}",
            "e": f"{self.raw.exponent:x}",
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PublicKey":
        try:
            if data.get("kind") != "rsa-public":
                raise KeyError_(f"not a public key record: {data.get('kind')!r}")
            return cls(rsa.RSAPublicKey(int(data["n"], 16), int(data["e"], 16)))
        except (KeyError, ValueError) as exc:
            raise KeyError_(f"malformed public key record: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PublicKey":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise KeyError_(f"malformed public key JSON: {exc}") from exc


@dataclass(frozen=True)
class PrivateKey:
    """Private signing key."""

    raw: rsa.RSAPrivateKey

    @property
    def public_key(self) -> PublicKey:
        return PublicKey(self.raw.public_key)

    def sign(self, message: bytes) -> bytes:
        return rsa.sign(self.raw, message)

    def sign_b64(self, message: bytes) -> str:
        """Signature as base64 text, the form embedded in X-TNL XML."""
        return base64.b64encode(self.sign(message)).decode("ascii")


@dataclass(frozen=True)
class KeyPair:
    """Convenience bundle of a private key and its public half."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def generate(cls, bits: int = 1024) -> "KeyPair":
        private = PrivateKey(rsa.generate_keypair(bits))
        return cls(private, private.public_key)

    @property
    def fingerprint(self) -> str:
        return self.public.fingerprint


def verify_b64(key: PublicKey, message: bytes, signature_b64: str) -> bool:
    """Verify a base64-encoded signature; malformed base64 is invalid."""
    try:
        signature = base64.b64decode(signature_b64, validate=True)
    except (ValueError, TypeError):
        return False
    return key.verify(message, signature)


@dataclass
class Keyring:
    """Maps issuer names and fingerprints to trusted public keys.

    A party's keyring models its set of trusted Credential Authorities:
    a credential from an issuer that is absent from the verifier's
    keyring cannot be verified and is rejected.
    """

    _by_name: dict[str, PublicKey] = field(default_factory=dict)
    _by_fingerprint: dict[str, PublicKey] = field(default_factory=dict)

    def add(self, name: str, key: PublicKey) -> None:
        existing = self._by_name.get(name)
        if existing is not None and existing.fingerprint != key.fingerprint:
            raise KeyError_(
                f"issuer {name!r} already registered with a different key"
            )
        self._by_name[name] = key
        self._by_fingerprint[key.fingerprint] = key

    def get(self, name: str) -> PublicKey:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise KeyError_(f"no trusted key for issuer {name!r}") from exc

    def get_by_fingerprint(self, fingerprint: str) -> PublicKey:
        try:
            return self._by_fingerprint[fingerprint]
        except KeyError as exc:
            raise KeyError_(
                f"no trusted key with fingerprint {fingerprint!r}"
            ) from exc

    def trusts(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def verify(self, issuer: str, message: bytes, signature_b64: str) -> bool:
        """Verify ``signature_b64`` as coming from ``issuer``.

        Raises :class:`SignatureError` when the issuer is unknown, so
        callers can distinguish "bad signature" from "unknown issuer".
        """
        if not self.trusts(issuer):
            raise SignatureError(f"issuer {issuer!r} is not trusted")
        return verify_b64(self.get(issuer), message, signature_b64)
