"""Integer primality and factorization against independent references."""

import random

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


def _smallest_factor(n):
    """Trial division: the least prime factor of n > 1."""
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def test_factorint_matches_trial_division_on_random_semiprimes():
    # both factors lie beyond factorint's own trial division (10^5), so
    # every case goes through rho
    flags = _sieve(400_000)
    pool = [p for p in range(100_003, 400_000) if flags[p]]
    rng = random.Random(83)
    for _ in range(25):
        n = rng.choice(pool) * rng.choice(pool)
        p = _smallest_factor(n)
        q = n // p
        assert primes.factorint(n) == ({p: 2} if p == q else {p: 1, q: 1})


def test_factorint_on_large_known_products():
    # factors from the strong-pseudoprime bound psi_12 and Mersenne primes
    cases = [
        (399165290221, 798330580441),
        (2**31 - 1, 2**61 - 1),
        (1000000007, 998244353),
        (1000000007, 1000000007),
    ]
    for p, q in cases:
        expected = {p: 2} if p == q else {min(p, q): 1, max(p, q): 1}
        assert primes.factorint(p * q) == expected
        assert primes.factorint(6 * p * q) == {2: 1, 3: 1, **expected}


def test_factorint_results_are_independent_copies():
    first = primes.factorint(PSI_12)
    first[2] = 5
    assert primes.factorint(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_factorint_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(89)
    for _ in range(60):
        n = rng.randrange(2, 10**rng.randint(2, 22))
        assert primes.factorint(n) == {int(p): e for p, e in sympy.factorint(n).items()}
