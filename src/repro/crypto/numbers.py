"""Number-theoretic primitives backing the RSA implementation."""

from __future__ import annotations

import math
import secrets

from repro.errors import CryptoError

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "miller_rabin_rounds",
    "modular_inverse",
    "SMALL_PRIMES",
]

# Primes below 1000: the trial-division table of ``is_probable_prime``
# and the sieve of ``generate_prime``.
SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211,
    223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
    293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379,
    383, 389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461,
    463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563,
    569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643,
    647, 653, 659, 661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739,
    743, 751, 757, 761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829,
    839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929, 937,
    941, 947, 953, 967, 971, 977, 983, 991, 997,
)

# Random-witness Miller-Rabin rounds after the Baillie-PSW core, as
# (candidate bits below, rounds): Java's BigInteger.primeToCertainty(100),
# which the paper's JCE testbed ran.  Candidates of 1024 bits and more
# get _RANDOM_ROUNDS_ABOVE.
_RANDOM_ROUNDS: tuple[tuple[int, int], ...] = (
    (256, 27), (512, 15), (768, 8), (1024, 4),
)
_RANDOM_ROUNDS_ABOVE = 2

# Odd candidates sieved per random start in ``generate_prime``.  A
# 256-bit window holds about 11 primes, a 1024-bit one about 3; an
# empty window draws a fresh start.
_SIEVE_WINDOW = 1024


def miller_rabin_rounds(bits: int) -> int:
    """Random-witness rounds ``is_probable_prime`` runs on a ``bits``-bit
    candidate by default (Java's ``primeToCertainty(100)`` table)."""
    for limit, rounds in _RANDOM_ROUNDS:
        if bits < limit:
            return rounds
    return _RANDOM_ROUNDS_ABOVE


def _miller_rabin_round(candidate: int, witness: int, d: int, r: int) -> bool:
    """One Miller-Rabin round on ``candidate - 1 == d * 2**r`` (``d``
    odd); returns False when ``witness`` proves ``candidate``
    composite."""
    x = pow(witness, d, candidate)
    if x == 1 or x == candidate - 1:
        return True
    for _ in range(r - 1):
        x = x * x % candidate
        if x == candidate - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a / n)`` for odd positive ``n``."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _half(value: int, n: int) -> int:
    """``value / 2 mod n`` for odd ``n``."""
    value %= n
    return (value + n if value & 1 else value) >> 1


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test (Selfridge's method A), for odd
    ``n`` with no factor in ``SMALL_PRIMES``; False proves ``n``
    composite."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D / n) = -1 exists for a square
    d_param = 5
    while True:
        symbol = _jacobi(d_param, n)
        if symbol == -1:
            break
        if symbol == 0:
            return False  # gcd(D, n) > 1, and |D| < n
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q_param = (1 - d_param) // 4  # P = 1
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    # U_1 = 1, V_1 = P = 1; walk k's bits with the doubling formulas.
    u, v, q_k = 1, 1, q_param % n
    for bit in bin(k)[3:]:
        u = u * v % n
        v = (v * v - 2 * q_k) % n
        q_k = q_k * q_k % n
        if bit == "1":
            u, v = _half(u + v, n), _half(d_param * u + v, n)
            q_k = q_k * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * q_k) % n
        if v == 0:
            return True
        q_k = q_k * q_k % n
    return False


def _passes_bpsw(candidate: int, rounds: int | None) -> bool:
    """Baillie-PSW plus random rounds on an odd ``candidate`` with no
    factor in ``SMALL_PRIMES``.

    Composites fail the base-2 round or the Lucas test before any
    witness is drawn."""
    d = candidate - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    if not _miller_rabin_round(candidate, 2, d, r):
        return False
    if not _strong_lucas(candidate):
        return False
    if rounds is None:
        rounds = miller_rabin_rounds(candidate.bit_length())
    for _ in range(rounds):
        witness = secrets.randbelow(candidate - 3) + 2
        if not _miller_rabin_round(candidate, witness, d, r):
            return False
    return True


def is_probable_prime(candidate: int, rounds: int | None = None) -> bool:
    """Baillie-PSW primality test plus ``rounds`` random-witness
    Miller-Rabin rounds.

    Trial division by ``SMALL_PRIMES``, then one Miller-Rabin round to
    base 2, then a strong Lucas test with Selfridge's parameters; the
    two together have no known counterexample and none below 2^64
    (Feitsma and Gilchrist's list of base-2 strong pseudoprimes).
    ``rounds`` defaults to :func:`miller_rabin_rounds` of the
    candidate's size, Java's ``primeToCertainty(100)`` table: 27 below
    256 bits, 15 below 512, 8 below 768, 4 below 1024 and 2 above.  On
    a random k-bit candidate that many rounds alone err with
    probability below 2^-80 for k < 1024, by Damgård, Landrock and
    Pomerance's bound (HAC Table 4.4); from 1024 to 1299 bits HAC lists
    3 rounds where Java, and this table, run 2 after the Lucas test.
    On any input, t rounds alone err with probability at most 4^-t.
    """
    if candidate < 2:
        return False
    for prime in SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    return _passes_bpsw(candidate, rounds)


def generate_prime(bits: int) -> int:
    """Generate a random probable prime of exactly ``bits`` bits.

    One ``secrets.randbits`` draw, with its top two bits (OpenSSL's
    BN_RAND_TOP_TWO) and its low bit set, starts a window of
    ``_SIEVE_WINDOW`` odd candidates; the window is clipped below
    ``2**bits``, so every candidate keeps the top two bits.  Multiples
    of ``SMALL_PRIMES`` are struck out of the window, and the
    survivors are tested in order with :func:`is_probable_prime`'s
    Baillie-PSW core and size-matched rounds.  A window without a
    prime draws a fresh start.

    The top two bits put the prime over FIPS 186-4 B.3.1's
    ``sqrt(2) * 2^(bits-1)`` floor, so two such primes multiply to
    their full combined bit length.  As in Java's
    ``BigInteger.probablePrime``, a prime after a long gap is a little
    likelier to be found than one after a short gap.
    """
    if bits < 8:
        raise CryptoError(f"prime size too small: {bits} bits")
    while True:
        start = secrets.randbits(bits) | (3 << (bits - 2)) | 1
        size = min(_SIEVE_WINDOW, ((1 << bits) - 1 - start) // 2 + 1)
        alive = bytearray(b"\x01") * size  # alive[i]: start + 2i survives
        for prime in SMALL_PRIMES[1:]:
            # start + 2i == 0 (mod prime), with 2^-1 == (prime + 1) / 2
            first = (prime - start % prime) * ((prime + 1) // 2) % prime
            if start + 2 * first == prime:
                first += prime  # a small prime in the window stays
            if first < size:
                alive[first::prime] = bytes(len(range(first, size, prime)))
        offset = alive.find(1)
        while offset != -1:
            if _passes_bpsw(start + 2 * offset, None):
                return start + 2 * offset
            offset = alive.find(1, offset + 1)


def modular_inverse(value: int, modulus: int) -> int:
    """Return ``value^-1 mod modulus`` (extended Euclid via pow)."""
    try:
        return pow(value, -1, modulus)
    except ValueError as exc:
        raise CryptoError(
            f"{value} is not invertible modulo {modulus}"
        ) from exc
