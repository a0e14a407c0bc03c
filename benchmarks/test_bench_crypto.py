"""Ablation — cryptographic cost of credential exchange.

The exchange phase verifies one issuer signature and one ownership
proof per disclosure.  This bench sweeps RSA key sizes to show how the
signature share of negotiation cost scales, compares CRT signing with
the full-width ``pow(m, d, n)`` it replaced, and measures the full
credential verification pipeline.  Every party builds its own key at
start-up, so the series also reports key generation: milliseconds per
key and the random Miller-Rabin rounds each accepted prime passed, both
from a seeded ``secrets`` stream.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from benchmarks.conftest import print_series
from repro.credentials.authority import CredentialAuthority
from repro.credentials.revocation import RevocationRegistry
from repro.trust import TrustBus
from repro.credentials.validation import CredentialValidator, OwnershipProof
import repro.crypto.numbers as numbers
from repro.crypto import rsa
from repro.crypto.keys import KeyPair, Keyring
from tests.conftest import ISSUE_AT, NEGOTIATION_AT
from tests.crypto.seeded import SeededSecrets

KEY_BITS = [512, 1024, 2048]


@pytest.fixture(scope="module", params=KEY_BITS)
def keypair(request):
    return request.param, rsa.generate_keypair(request.param)


#: Keys generated per size for the series' key-generation column.
KEYGEN_COUNT = {512: 16, 1024: 8, 2048: 4}


def test_bench_keygen_512(benchmark, monkeypatch):
    monkeypatch.setattr(numbers, "secrets", SeededSecrets(512))
    benchmark(rsa.generate_keypair, 512)


def test_bench_sign(benchmark, keypair):
    bits, key = keypair
    benchmark(rsa.sign, key, b"design-optimization control file")
    benchmark.extra_info["bits"] = bits


def test_bench_verify(benchmark, keypair):
    bits, key = keypair
    signature = rsa.sign(key, b"msg")
    assert benchmark(rsa.verify, key.public_key, b"msg", signature)
    benchmark.extra_info["bits"] = bits


@pytest.fixture(scope="module")
def validation_setup():
    ca = CredentialAuthority.create("CA", key_bits=1024)
    holder = KeyPair.generate(1024)
    ring = Keyring()
    ring.add("CA", ca.public_key)
    registry = RevocationRegistry()
    TrustBus(registry=registry).publish_crl(ca.crl)
    credential = ca.issue("T", "Holder", holder.fingerprint,
                          {"a": 1, "b": "x"}, ISSUE_AT)
    return CredentialValidator(ring, registry), credential, holder


def test_bench_full_validation_pipeline(benchmark, validation_setup):
    validator, credential, holder = validation_setup

    def run():
        nonce = validator.issue_challenge()
        proof = OwnershipProof.respond(nonce, holder.private)
        return validator.validate(credential, NEGOTIATION_AT, proof, nonce)

    report = benchmark(run)
    assert report.ok


def _full_width_sign(key, message: bytes) -> bytes:
    """Signing as one full-width ``pow(m, d, n)``: the reference the
    CRT column is measured against."""
    digest = hashlib.sha256(message).digest()
    encoded = int.from_bytes(rsa._pad_digest(digest, key.byte_length), "big")
    value = pow(encoded, key.private_exponent, key.modulus)
    return value.to_bytes(key.byte_length, "big")


def _per_call_ms(fn, *args, repeats: int = 20) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return (time.perf_counter() - start) / repeats * 1e3


def _keygen_ms_and_rounds(bits: int) -> tuple[float, int]:
    """Milliseconds per ``bits``-bit key, and the witness draws of one
    ``bits // 2``-bit prime, from a stream seeded with ``bits``."""
    stream = SeededSecrets(bits)
    original, numbers.secrets = numbers.secrets, stream
    try:
        start = time.perf_counter()
        for _ in range(KEYGEN_COUNT[bits]):
            rsa.generate_keypair(bits)
        keygen_ms = (time.perf_counter() - start) / KEYGEN_COUNT[bits] * 1e3
        numbers.generate_prime(bits // 2)
    finally:
        numbers.secrets = original
    return keygen_ms, stream.witnesses_since_start


def test_crypto_series_report(benchmark):
    benchmark(lambda: None)  # series reports run once, not timed

    rows = []
    for bits in KEY_BITS:
        keygen_ms, rounds = _keygen_ms_and_rounds(bits)
        # Composites in a sieve window draw no witness, so every draw
        # since the window's start is one of the accepted prime's.
        assert rounds == numbers.miller_rabin_rounds(bits // 2), bits
        key = rsa.generate_keypair(bits)
        signature = rsa.sign(key, b"m")
        assert signature == _full_width_sign(key, b"m")
        sign_ms = _per_call_ms(rsa.sign, key, b"m")
        reference_ms = _per_call_ms(_full_width_sign, key, b"m")
        verify_ms = _per_call_ms(rsa.verify, key.public_key, b"m", signature)
        rows.append((
            bits, f"{sign_ms:.2f}", f"{reference_ms:.2f}",
            f"{reference_ms / sign_ms:.1f}x", f"{verify_ms:.3f}",
            f"{keygen_ms:.0f}", rounds,
        ))
    print_series(
        "RSA cost by key size (per disclosure: 1 sign + 2 verifies)",
        rows,
        headers=(
            "modulus bits", "sign ms (CRT)", "full-width sign ms",
            "CRT speedup", "verify ms", "keygen ms", "MR rounds / prime",
        ),
    )
    # Signing cost grows superlinearly with the modulus.
    sign_costs = [float(row[1]) for row in rows]
    assert sign_costs[0] < sign_costs[-1]
    # CRT signing beats the full-width reference at every key size; two
    # half-width exponentiations cost about a third of one full one, so
    # this inequality holds with a wide margin on any host.
    for row in rows:
        assert float(row[1]) < float(row[2]), row
