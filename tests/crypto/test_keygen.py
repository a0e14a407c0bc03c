"""Prime and key-pair generation from a seeded ``secrets`` stream."""

import random

import pytest

import repro.crypto.numbers as numbers
import repro.crypto.rsa as rsa


class _SeededSecrets:
    """The two ``secrets`` calls prime generation makes, from a seeded
    stream, counting the witness draws since the latest candidate."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.witnesses_since_candidate = 0

    def randbits(self, bits: int) -> int:
        self.witnesses_since_candidate = 0
        return self._rng.getrandbits(bits)

    def randbelow(self, bound: int) -> int:
        self.witnesses_since_candidate += 1
        return self._rng.randrange(bound)


@pytest.fixture()
def seeded(monkeypatch):
    def install(seed: int) -> _SeededSecrets:
        stream = _SeededSecrets(seed)
        monkeypatch.setattr(numbers, "secrets", stream)
        return stream

    return install


@pytest.mark.parametrize("bits", [256, 257, 512])
@pytest.mark.parametrize("seed", range(8))
def test_keypair_keeps_its_first_two_primes(monkeypatch, seeded, bits, seed):
    seeded(seed)
    primes = []

    def counting(size: int) -> int:
        primes.append(numbers.generate_prime(size))
        return primes[-1]

    monkeypatch.setattr(rsa, "generate_prime", counting)
    key = rsa.generate_keypair(bits)
    assert len(primes) == 2
    assert key.modulus.bit_length() == bits
    assert key.modulus == primes[0] * primes[1]


@pytest.mark.parametrize("bits", range(8, 65))
def test_primes_have_their_top_two_bits_set(seeded, bits):
    seeded(bits)
    for _ in range(3):
        prime = numbers.generate_prime(bits)
        assert prime >> (bits - 2) == 0b11
        assert numbers.is_probable_prime(prime)


@pytest.mark.parametrize("bits", [16, 32, 64, 256])
def test_accepted_prime_passed_forty_miller_rabin_rounds(seeded, bits):
    stream = seeded(bits)
    numbers.generate_prime(bits)
    assert stream.witnesses_since_candidate == 40
