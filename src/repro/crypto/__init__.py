"""Cryptographic substrate for credential signatures.

The paper's prototype relies on standard PKI operations: credential
authorities sign X-TNL credentials and X.509-style attribute
certificates, and negotiation parties verify those signatures with the
issuers' public keys.  Since the reproduction environment is offline,
this subpackage implements the needed primitives from scratch:

- :mod:`repro.crypto.numbers` — Baillie-PSW primality with
  size-matched Miller-Rabin rounds, sieved prime search, modular
  inverse.
- :mod:`repro.crypto.rsa` — RSA key generation and PKCS#1-v1.5-style
  SHA-256 signatures, signed with the Chinese Remainder Theorem (two
  half-width exponentiations per signature, byte-identical to the
  full-width ``pow(m, d, n)``).
- :mod:`repro.crypto.keys` — serialization, fingerprints, and keyrings.

Key sizes are configurable; tests and benchmarks default to small-but-
real keys so that thousands of signatures stay cheap, while examples use
2048-bit keys to demonstrate realistic deployments.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.crypto.keys": (
        "KeyPair", "Keyring", "PrivateKey", "PublicKey", "verify_b64",
    ),
    "repro.crypto.rsa": ("generate_keypair", "sign", "verify"),
})

__all__ = [
    "KeyPair",
    "Keyring",
    "PrivateKey",
    "PublicKey",
    "generate_keypair",
    "sign",
    "verify",
    "verify_b64",
]
