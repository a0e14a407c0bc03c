"""Prime and key-pair generation from a seeded ``secrets`` stream."""

import pytest

import repro.crypto.numbers as numbers
import repro.crypto.rsa as rsa
from tests.crypto.seeded import SeededSecrets

# The 8..64-bit numbers 2**bits - 1 that are prime.
_MERSENNE_EXPONENTS = {13, 17, 19, 31, 61}


@pytest.fixture()
def seeded(monkeypatch):
    def install(seed: int, first: int | None = None) -> SeededSecrets:
        stream = SeededSecrets(seed, first)
        monkeypatch.setattr(numbers, "secrets", stream)
        return stream

    return install


def _is_prime(n: int) -> bool:
    """Trial division: the oracle for the few-bit sieve tests."""
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


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


# Java's primeToCertainty(100) rounds for the sizes pinned below.
_RANDOM_ROUNDS = {16: 27, 32: 27, 64: 27, 256: 15, 512: 8}


@pytest.mark.parametrize("bits", sorted(_RANDOM_ROUNDS))
def test_accepted_prime_passed_size_matched_random_rounds(seeded, bits):
    # Composites in the window fail the base-2 round or the Lucas test
    # before any witness is drawn, so every draw is the accepted prime's.
    stream = seeded(bits)
    numbers.generate_prime(bits)
    assert numbers.miller_rabin_rounds(bits) == _RANDOM_ROUNDS[bits]
    assert stream.witnesses_since_start == _RANDOM_ROUNDS[bits]


@pytest.mark.parametrize("bits", range(8, 65))
def test_window_starting_at_the_top_stays_below_two_to_the_bits(seeded, bits):
    # The first start is 2**bits - 1, a one-candidate window; a window
    # that ran past it would return a bits + 1-bit number.
    stream = seeded(bits, first=(1 << bits) - 1)
    prime = numbers.generate_prime(bits)
    assert prime.bit_length() == bits
    assert prime >> (bits - 2) == 0b11
    assert numbers.is_probable_prime(prime)
    if bits in _MERSENNE_EXPONENTS:
        assert (prime, stream.starts) == ((1 << bits) - 1, 1)
    else:
        assert stream.starts >= 2


@pytest.mark.parametrize("bits", [8, 9, 10])
def test_sieve_keeps_small_primes_inside_the_window(seeded, bits):
    # Every candidate at 8 and 9 bits, and most at 10, is below 1,000,
    # so the window holds members of SMALL_PRIMES; the search must
    # return the first prime at or above the start, not strike it out.
    low, high = 3 << (bits - 2), 1 << bits
    primes = [n for n in range(low, high) if _is_prime(n)]
    for start in range(low | 1, high, 2):
        stream = seeded(start, first=start)
        prime = numbers.generate_prime(bits)
        following = [p for p in primes if p >= start]
        if following:
            assert prime == following[0], start
            assert stream.starts == 1
        else:
            assert prime in primes
