"""Integer primality and factorization, desk scale.

Miller-Rabin to the prime bases 2..41, which is deterministic below
psi_13 = 3317044064679887385961981 (about 3.3e24), the least composite that
is a strong probable prime to all of them; above it is_prime is a
probable-prime test only.  Pollard rho with Floyd cycle finding for
composites that survive trial division.
"""

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
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        x = y = 2
        c = seed
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def factorint(n):
    """Prime factorization as a dict prime -> exponent; n must be positive."""
    if n <= 0:
        raise ValueError("factorint expects a positive integer")
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
    return dict(sorted(out.items()))


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
