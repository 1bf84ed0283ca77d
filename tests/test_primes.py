"""Integer primality and factorization against independent references."""

import pytest

from kronecker import primes

LIMIT = 10**5

# psi_12: the least composite that is a strong probable prime to every
# prime base up to 37
PSI_12 = 318665857834031151167461

# the least strong pseudoprimes to the first k prime bases, k = 1..8, and
# psi_12 (k = 12)
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    PSI_12,
)


def _sieve(limit):
    flags = [False, False] + [True] * (limit - 1)
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return flags


def test_is_prime_matches_a_sieve():
    flags = _sieve(LIMIT)
    assert [n for n in range(-5, LIMIT + 1) if primes.is_prime(n)] == [
        n for n in range(LIMIT + 1) if flags[n]
    ]


def test_strong_pseudoprimes_are_rejected():
    for n in STRONG_PSEUDOPRIMES:
        assert not primes.is_prime(n), n


def test_factorint_round_trips_to_primes():
    for n in list(range(1, 3000)) + list(STRONG_PSEUDOPRIMES) + [2**61 - 1, 2**64 + 1]:
        fac = primes.factorint(n)
        product = 1
        for p, e in fac.items():
            assert e >= 1 and primes.is_prime(p), (n, p)
            product *= p**e
        assert product == n
        assert list(fac) == sorted(fac)
    assert primes.factorint(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_divisors_match_brute_force():
    for n in range(1, 2001):
        expected = [d for d in range(1, n + 1) if n % d == 0]
        assert primes.divisors(n) == expected
        assert primes.divisors(-n) == expected


def test_squarefree_part_sign():
    assert primes.squarefree_part_sign(1) == 1
    assert primes.squarefree_part_sign(-1) == -1
    assert primes.squarefree_part_sign(-12) == -3
    assert primes.squarefree_part_sign(72) == 2
    assert primes.squarefree_part_sign(-2 * 9 * 25 * 7**3) == -14
    for n in range(1, 500):
        part = primes.squarefree_part_sign(n)
        ratio, rest = divmod(n, part)
        assert rest == 0 and primes.is_square(ratio)
        assert all(part % (p * p) for p in range(2, part + 1))
        assert primes.squarefree_part_sign(-n) == -part


def test_next_prime():
    flags = _sieve(2000)
    for n in range(-3, 1900):
        expected = next(m for m in range(max(n + 1, 0), 2001) if flags[m])
        assert primes.next_prime(n) == expected
    assert primes.next_prime(10**12) == 10**12 + 39


def test_zero_is_rejected():
    for fn in (primes.factorint, primes.divisors, primes.squarefree_part_sign):
        with pytest.raises(ValueError):
            fn(0)
