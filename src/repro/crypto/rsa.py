"""RSA key generation and SHA-256 signatures.

This implements textbook-correct RSA with deterministic PKCS#1-v1.5
style padding for signing.  It is a reproduction substrate, not a
hardened production library: it favours clarity and determinism so that
the negotiation engine's signature checks are real (a tampered
credential genuinely fails to verify) without an external dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.digest import sha256
from repro.crypto.numbers import generate_prime, modular_inverse
from repro.errors import CryptoError, SignatureError

__all__ = [
    "RSAPublicKey",
    "RSAPrivateKey",
    "generate_keypair",
    "sign",
    "verify",
]

# DER prefix for a SHA-256 DigestInfo, as in PKCS#1 v1.5 signatures.
_SHA256_DIGEST_INFO = bytes.fromhex(
    "3031300d060960864801650304020105000420"
)

_DEFAULT_PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    modulus: int
    exponent: int

    @property
    def bit_length(self) -> int:
        return self.modulus.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key; carries the public half for convenience.

    The Chinese Remainder Theorem exponents ``d mod (p-1)``,
    ``d mod (q-1)`` and the coefficient ``q^-1 mod p`` are derived once
    here, so a key built directly from ``(n, e, d, p, q)`` signs the
    same way as one from :func:`generate_keypair`.
    """

    modulus: int
    public_exponent: int
    private_exponent: int
    prime_p: int
    prime_q: int
    crt_exponent_p: int = field(init=False, compare=False, repr=False)
    crt_exponent_q: int = field(init=False, compare=False, repr=False)
    crt_coefficient: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        d, p, q = self.private_exponent, self.prime_p, self.prime_q
        object.__setattr__(self, "crt_exponent_p", d % (p - 1))
        object.__setattr__(self, "crt_exponent_q", d % (q - 1))
        object.__setattr__(self, "crt_coefficient", modular_inverse(q, p))

    @property
    def public_key(self) -> RSAPublicKey:
        return RSAPublicKey(self.modulus, self.public_exponent)

    @property
    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8


def generate_keypair(bits: int = 1024) -> RSAPrivateKey:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    512-bit keys are accepted for fast test fixtures; real examples use
    1024 or 2048 bits.  Primes from :func:`generate_prime` always give a
    ``bits``-bit modulus, so the length check below is only a guard.
    """
    if bits < 256:
        raise CryptoError(f"RSA modulus too small: {bits} bits")
    half = bits // 2
    while True:
        p = generate_prime(half)
        q = generate_prime(bits - half)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _DEFAULT_PUBLIC_EXPONENT == 0:
            continue
        d = modular_inverse(_DEFAULT_PUBLIC_EXPONENT, phi)
        return RSAPrivateKey(n, _DEFAULT_PUBLIC_EXPONENT, d, p, q)


def _pad_digest(digest: bytes, length: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of a SHA-256 digest."""
    payload = _SHA256_DIGEST_INFO + digest
    if length < len(payload) + 11:
        raise SignatureError(
            f"key too small to sign a SHA-256 digest ({length} bytes)"
        )
    padding = b"\xff" * (length - len(payload) - 3)
    return b"\x00\x01" + padding + b"\x00" + payload


def sign(key: RSAPrivateKey, message: bytes) -> bytes:
    """Sign ``message`` with ``key``; returns the raw signature bytes.

    Computes ``pad(sha256(message))^d mod n`` as two half-width
    exponentiations recombined with Garner's formula, which yields the
    same integer as the full-width ``pow`` at roughly a third of the
    cost.
    """
    digest = sha256(message).digest()
    encoded = _pad_digest(digest, key.byte_length)
    value = int.from_bytes(encoded, "big")
    p, q = key.prime_p, key.prime_q
    m_p = pow(value, key.crt_exponent_p, p)
    m_q = pow(value, key.crt_exponent_q, q)
    h = (key.crt_coefficient * (m_p - m_q)) % p
    signature = m_q + h * q
    return signature.to_bytes(key.byte_length, "big")


def verify(key: RSAPublicKey, message: bytes, signature: bytes) -> bool:
    """Return True when ``signature`` over ``message`` verifies under
    ``key``.  Never raises for a merely-invalid signature."""
    if len(signature) != key.byte_length:
        return False
    value = int.from_bytes(signature, "big")
    if value >= key.modulus:
        return False
    recovered = pow(value, key.exponent, key.modulus)
    expected = _pad_digest(sha256(message).digest(), key.byte_length)
    return recovered.to_bytes(key.byte_length, "big") == expected
