"""Integer primality and factorization, desk scale.

Miller-Rabin to the prime bases 2..41, which is deterministic below
psi_13 = 3317044064679887385961981 (about 3.3e24), the least composite that
is a strong probable prime to all of them; above it is_prime is a
probable-prime test only.  Pollard rho with Brent's cycle finding and
batched gcds (Brent 1980, BIT 20) for composites that survive trial
division; factorizations are memoized, because callers ask for the same
discriminant repeatedly.
"""

from functools import lru_cache
from math import gcd, isqrt

_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    if n < 2:
        return False
    for p in _SMALL:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def primes_up_to(limit):
    return [p for p in range(2, limit + 1) if is_prime(p)]


def _rho(n):
    """A nontrivial factor of the odd composite n."""
    if n % 2 == 0:
        return 2
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorint(n):
    """Prime factorization as a dict prime -> exponent; n must be positive."""
    if n <= 0:
        raise ValueError("factorint expects a positive integer")
    return dict(_factor_items(n))


@lru_cache(maxsize=1024)
def _factor_items(n):
    out = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # trial division covers everything the desk-scale callers produce;
    # rho handles the occasional large discriminant
    p = 17
    while p * p <= n and p < 100000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(out.items()))


def divisors(n):
    """All positive divisors of |n|, ascending."""
    n = abs(n)
    if n == 0:
        raise ValueError("zero has no divisor list")
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def is_square(n):
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def squarefree_part_sign(n):
    """(squarefree kernel, including sign) of a nonzero integer."""
    if n == 0:
        raise ValueError("zero has no squarefree part")
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factorint(abs(n)).items():
        if e % 2:
            out *= p
    return sign * out
