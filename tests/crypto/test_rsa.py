"""RSA key generation and signatures."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.errors import CryptoError, SignatureError


@pytest.fixture(scope="module")
def key():
    return rsa.generate_keypair(512)


class TestKeyGeneration:
    def test_modulus_bit_length(self, key):
        assert key.modulus.bit_length() == 512

    def test_public_exponent(self, key):
        assert key.public_exponent == 65537

    def test_modulus_is_product_of_primes(self, key):
        assert key.prime_p * key.prime_q == key.modulus

    def test_private_exponent_inverts_public(self, key):
        phi = (key.prime_p - 1) * (key.prime_q - 1)
        assert (key.private_exponent * key.public_exponent) % phi == 1

    def test_too_small_modulus_rejected(self):
        with pytest.raises(CryptoError):
            rsa.generate_keypair(128)

    def test_distinct_keys(self):
        assert rsa.generate_keypair(512).modulus != rsa.generate_keypair(512).modulus


class TestSignVerify:
    def test_roundtrip(self, key):
        message = b"the design-optimization control file"
        signature = rsa.sign(key, message)
        assert rsa.verify(key.public_key, message, signature)

    def test_tampered_message_fails(self, key):
        signature = rsa.sign(key, b"original")
        assert not rsa.verify(key.public_key, b"tampered", signature)

    def test_tampered_signature_fails(self, key):
        signature = bytearray(rsa.sign(key, b"msg"))
        signature[0] ^= 0xFF
        assert not rsa.verify(key.public_key, b"msg", bytes(signature))

    def test_wrong_key_fails(self, key):
        other = rsa.generate_keypair(512)
        signature = rsa.sign(key, b"msg")
        assert not rsa.verify(other.public_key, b"msg", signature)

    def test_wrong_length_signature_rejected(self, key):
        assert not rsa.verify(key.public_key, b"msg", b"short")

    def test_signature_value_above_modulus_rejected(self, key):
        blob = (key.modulus + 1).to_bytes(key.byte_length, "big") \
            if (key.modulus + 1).bit_length() <= key.byte_length * 8 \
            else b"\xff" * key.byte_length
        assert not rsa.verify(key.public_key, b"msg", blob)

    def test_signature_length_matches_key(self, key):
        assert len(rsa.sign(key, b"x")) == key.byte_length

    def test_signing_is_deterministic(self, key):
        assert rsa.sign(key, b"same") == rsa.sign(key, b"same")

    def test_empty_message_roundtrip(self, key):
        signature = rsa.sign(key, b"")
        assert rsa.verify(key.public_key, b"", signature)

    def test_key_too_small_to_sign(self):
        # A 256-bit key cannot hold the 51-byte DigestInfo + padding.
        tiny = rsa.generate_keypair(256)
        with pytest.raises(SignatureError):
            rsa.sign(tiny, b"msg")


@settings(max_examples=20, deadline=None)
@given(message=st.binary(max_size=256))
def test_sign_verify_property(message):
    key = _PROPERTY_KEY
    signature = rsa.sign(key, message)
    assert rsa.verify(key.public_key, message, signature)
    assert not rsa.verify(key.public_key, message + b"x", signature)


_PROPERTY_KEY = rsa.generate_keypair(512)

#: Keys the CRT property tests draw from: two per modulus size, so the
#: examples cover both sizes and more than one (p, q) pair of each.
_CRT_KEY_POOL = tuple(
    rsa.generate_keypair(bits) for bits in (512, 512, 768, 768)
)


def _full_width_reference(key: rsa.RSAPrivateKey, message: bytes) -> bytes:
    """PKCS#1 v1.5 SHA-256 signature as one full-width ``pow(m, d, n)``,
    encoded from RFC 8017 section 9.2 independently of ``rsa``."""
    digest_info = bytes.fromhex(
        "3031300d060960864801650304020105000420"
    ) + hashlib.sha256(message).digest()
    length = key.byte_length
    encoded = (
        b"\x00\x01" + b"\xff" * (length - len(digest_info) - 3)
        + b"\x00" + digest_info
    )
    value = pow(
        int.from_bytes(encoded, "big"), key.private_exponent, key.modulus
    )
    return value.to_bytes(length, "big")


class TestCRTSigning:
    @settings(max_examples=250, deadline=None)
    @given(
        key=st.sampled_from(_CRT_KEY_POOL),
        message=st.one_of(st.just(b""), st.binary(max_size=512)),
    )
    def test_matches_full_width_reference_byte_for_byte(self, key, message):
        assert rsa.sign(key, message) == _full_width_reference(key, message)

    @pytest.mark.parametrize(
        "key", _CRT_KEY_POOL, ids=lambda k: f"{k.modulus.bit_length()}b"
    )
    def test_hand_built_key_signs_identically(self, key):
        rebuilt = rsa.RSAPrivateKey(
            key.modulus, key.public_exponent, key.private_exponent,
            key.prime_p, key.prime_q,
        )
        swapped = rsa.RSAPrivateKey(
            key.modulus, key.public_exponent, key.private_exponent,
            key.prime_q, key.prime_p,
        )
        assert rebuilt == key
        for message in (b"", b"ownership proof nonce", bytes(range(256))):
            expected = _full_width_reference(key, message)
            assert rsa.sign(rebuilt, message) == expected
            assert rsa.sign(swapped, message) == expected

    def test_crt_parameters_derived_from_the_primes(self, key):
        d, p, q = key.private_exponent, key.prime_p, key.prime_q
        assert key.crt_exponent_p == d % (p - 1)
        assert key.crt_exponent_q == d % (q - 1)
        assert (key.crt_coefficient * q) % p == 1
