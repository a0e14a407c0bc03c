"""Number-theoretic primitives."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.numbers as numbers
from repro.crypto.numbers import (
    SMALL_PRIMES,
    generate_prime,
    is_probable_prime,
    modular_inverse,
)
from repro.errors import CryptoError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n: int, base: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _deterministic_mr(n: int) -> bool:
    """Miller-Rabin with the first 12 primes as bases: exact for every
    n below 3.18 * 10^23."""
    if n < 2:
        return False
    for base in _MR_BASES:
        if n % base == 0:
            return n == base
    return all(_strong_probable_prime(n, base) for base in _MR_BASES)


def _base_two_round(n: int) -> bool:
    return _strong_probable_prime(n, 2)


class TestPrimality:
    @pytest.mark.parametrize("prime", [2, 3, 5, 7, 997, 7919, 104729])
    def test_known_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", [0, 1, 4, 9, 561, 104730, 997 * 7919])
    def test_known_composites(self, composite):
        assert not is_probable_prime(composite)

    def test_negative_numbers_are_not_prime(self):
        assert not is_probable_prime(-7)

    def test_agrees_with_deterministic_miller_rabin_on_64_bits(self):
        # The first 12 primes as bases decide every n < 3.18 * 10^23, so
        # this is exact; with no random rounds, the Baillie-PSW core
        # alone must agree on every draw.
        rng = random.Random(26)
        for _ in range(100_000):
            n = rng.getrandbits(64) | (1 << 63) | 1
            assert is_probable_prime(n, rounds=0) == _deterministic_mr(n), n

    def test_chernick_carmichaels_rejected_past_trial_division(self):
        # (6k+1)(12k+1)(18k+1) with three prime factors is a Carmichael
        # number; factors above 1,000 keep trial division out of it.
        carmichaels = []
        k = 167
        while len(carmichaels) < 12:
            factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if all(_deterministic_mr(f) for f in factors):
                carmichaels.append(math.prod(factors))
            k += 1
        # Some of them are base-2 strong pseudoprimes: only the Lucas
        # test stands between those and acceptance.
        assert any(_base_two_round(n) for n in carmichaels)
        for n in carmichaels:
            assert not is_probable_prime(n, rounds=0), n

    @pytest.mark.parametrize("square", [1093 ** 2, 3511 ** 2])
    def test_wieferich_squares_rejected_by_the_lucas_half(self, square):
        # 1093 and 3511 are the Wieferich primes: their squares pass
        # base-2 Miller-Rabin and have no factor below 1,000.
        assert all(square % p for p in SMALL_PRIMES)
        assert _base_two_round(square)
        assert not is_probable_prime(square, rounds=0)

    def test_lucas_half_accepts_exactly_the_strong_lucas_pseudoprimes(self):
        # OEIS A217255 below 10^5: composites the Selfridge strong
        # Lucas test passes.  Every odd composite below 10^5 that is
        # not a square and not a multiple of 5 goes through the test.
        pseudoprimes = [
            n for n in range(7, 100_000, 2)
            if n % 5 and math.isqrt(n) ** 2 != n
            and not _deterministic_mr(n) and numbers._strong_lucas(n)
        ]
        assert pseudoprimes == [
            5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
            58519, 75077, 97439,
        ]

    def test_small_primes_table_is_prime(self):
        for prime in SMALL_PRIMES:
            assert is_probable_prime(prime)


class TestGeneratePrime:
    def test_generated_prime_has_exact_bit_length(self):
        for bits in (16, 32, 64):
            prime = generate_prime(bits)
            assert prime.bit_length() == bits
            assert is_probable_prime(prime)

    def test_generated_prime_is_odd(self):
        assert generate_prime(32) % 2 == 1

    def test_too_small_raises(self):
        with pytest.raises(CryptoError):
            generate_prime(4)


class TestModularInverse:
    def test_known_inverse(self):
        assert modular_inverse(3, 11) == 4  # 3*4 = 12 ≡ 1 (mod 11)

    def test_non_invertible_raises(self):
        with pytest.raises(CryptoError):
            modular_inverse(6, 9)

    @given(
        value=st.integers(min_value=2, max_value=10_000),
        modulus=st.sampled_from([101, 997, 65537, 104729]),
    )
    def test_inverse_property(self, value, modulus):
        if value % modulus == 0:
            return
        inverse = modular_inverse(value, modulus)
        assert (value * inverse) % modulus == 1
