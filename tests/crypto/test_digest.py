"""SHA-256 from the interpreter's built-in module, and OS nonces."""

import hashlib
import re

from hypothesis import given, strategies as st

from repro.credentials.validation import CredentialValidator
from repro.crypto.digest import sha256
from repro.crypto.keys import Keyring


class TestSha256:
    def test_is_the_interpreters_builtin(self):
        assert sha256.__module__ in ("_sha2", "_sha256")

    def test_fips_180_4_empty_message(self):
        assert sha256(b"").hexdigest() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_fips_180_4_one_block_message(self):
        assert sha256(b"abc").hexdigest() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_fips_180_4_two_block_message(self):
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert len(message) * 8 == 448
        assert sha256(message).hexdigest() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    @given(st.binary(max_size=4096))
    def test_agrees_with_hashlib(self, message):
        assert sha256(message).digest() == hashlib.sha256(message).digest()


class TestChallengeNonce:
    def test_is_32_lowercase_hex_characters(self):
        nonce = CredentialValidator(Keyring()).issue_challenge()
        assert re.fullmatch(r"[0-9a-f]{32}", nonce)

    def test_two_challenges_differ(self):
        validator = CredentialValidator(Keyring())
        assert validator.issue_challenge() != validator.issue_challenge()
