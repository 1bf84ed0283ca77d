"""Dense polynomials modulo an integer, and factorization over F_p.

A polynomial is a list of ints, coefficients from the constant term up,
each in [0, m), with no trailing zero; the zero polynomial is [].  The
ring operations and division take any modulus m > 1, provided the divisor's
leading coefficient is a unit mod m, so they serve both F_p and the Hensel
moduli p^k.  gcd, extended Euclid and everything from the squarefree split
on need m prime.  from_roots packs its product tree with polyring.pack.

Factorization over F_p (von zur Gathen and Gerhard, *Modern Computer
Algebra*, 3rd ed.):

- squarefree split with p-th roots for the inseparable part (Alg. 14.21);
- distinct-degree factorization (DDF): gcd(x^(p^d) - x, f) collects the
  irreducible factors of degree d (Alg. 14.3);
- equal-degree factorization (EDF) after Cantor and Zassenhaus (1981): for
  a random a, gcd(a^((p^d - 1)/2) - 1, f) splits a product of degree-d
  irreducibles with probability about 1/2; for p = 2 the trace
  a + a^2 + ... + a^(2^(d-1)) replaces the power (Alg. 14.8).  The random
  choices come from a generator seeded with p, so every result is
  deterministic.
- the roots in F_p: EDF at degree 1 on gcd(f, x^p - x).

hensel_step is one quadratic Hensel step (Alg. 15.10): it lifts
f = g*h mod m, with h monic and s*g + t*h = 1 mod m, to the same relations
mod m^2.  hensel_lift runs it along a balanced factor tree (Alg. 15.17):
Zassenhaus's factorization lifts its modular factors with it, and the
Galois group its roots mod p, as linear factors.
"""

import random

from kronecker.errors import AlgebraError
from kronecker.polyring import pack, unpack


def trim(f, m):
    """f reduced mod m, trailing zeros dropped."""
    out = [c % m for c in f]
    while out and not out[-1]:
        out.pop()
    return out


def add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out, m)


def sub(a, b, m):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return trim(out, m)


def mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out, m)


def quo_rem(a, b, m):
    """(quotient, remainder) of a by b mod m; b's leading coefficient must
    be a unit mod m."""
    if not b:
        raise ZeroDivisionError("mod-m division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return [], trim(a, m)
    inv = pow(b[-1], -1, m)
    rem = list(a)
    quo = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem[k + db] * inv % m
        quo[k] = c
        if c:
            for j in range(db):
                rem[k + j] -= c * b[j]
    return trim(quo, m), trim(rem[:db], m)


def rem(a, b, m):
    return quo_rem(a, b, m)[1]


def monic(f, m):
    if not f or f[-1] == 1:
        return list(f)
    inv = pow(f[-1], -1, m)
    return [c * inv % m for c in f]


def powmod(f, e, g, m):
    """f^e mod g, modulus m."""
    out = rem([1], g, m)
    base = rem(f, g, m)
    while e:
        if e & 1:
            out = rem(mul(out, base, m), g, m)
        e >>= 1
        if e:
            base = rem(mul(base, base, m), g, m)
    return out


_LEAF = 8  # values multiplied out directly at a leaf of from_roots' tree


def from_roots(values, m):
    """prod (x - v) over the values, mod m.

    A product tree (von zur Gathen and Gerhard, Alg. 10.3): the leaves
    multiply up to _LEAF linear factors one at a time, and each inner node
    is one integer product by Kronecker substitution."""
    level = []
    for i in range(0, len(values), _LEAF):
        out = [1]
        for v in values[i : i + _LEAF]:
            out = [(a - v * b) % m for a, b in zip([0] + out, out + [0])]
        level.append(out)
    while len(level) > 1:
        pairs = [_kronecker_mul(a, b, m) for a, b in zip(level[::2], level[1::2])]
        level = pairs + level[len(pairs) * 2 :]
    return level[0] if level else [1]


def _kronecker_mul(a, b, m):
    """a * b mod m for coefficient lists in [0, m), by one packed integer
    product (§8.4).  Its coefficients are sums of at most k = min(len a,
    len b) terms below m^2: a slot of 2 bits(m) + bits(k) + 1 bits, rounded
    up to whole bytes, holds each."""
    width = (2 * m.bit_length() + min(len(a), len(b)).bit_length() + 8) // 8
    digits = unpack(pack(dict(enumerate(a)), width) * pack(dict(enumerate(b)), width), len(a) + len(b) - 1, width)
    return [digits.get(i, 0) % m for i in range(len(a) + len(b) - 1)]


def symmetric(f, m):
    """The coefficients of f lifted from [0, m) to the symmetric range
    (-m/2, m/2]."""
    return [c - m if c > m // 2 else c for c in f]


def derivative(f, m):
    return trim([k * c for k, c in enumerate(f)][1:], m)


def gcd(a, b, p):
    """Monic gcd over F_p; gcd(0, 0) = []."""
    a, b = trim(a, p), trim(b, p)
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p)


def ext_euclid(a, b, p):
    """(A, B, C) with A*a + B*b = C, a nonzero constant, mod p, for a and b
    coprime over F_p; AlgebraError when they are not."""
    r0, r1 = trim(a, p), trim(b, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while len(r1) > 1:
        q, r = quo_rem(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r1:
        raise AlgebraError("polynomials are not coprime mod p")
    return s1, t1, r1[0]


def bezout(g, h, p):
    """(s, t) with s*g + t*h = 1 over F_p, deg s < deg h and deg t < deg g,
    for g and h coprime of positive degree: the cofactors hensel_step starts
    from.  Extended Euclid's cofactors already obey both degree bounds (von
    zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 3)."""
    s, t, c = ext_euclid(g, h, p)
    inv = pow(c, -1, p)
    return [x * inv % p for x in s], [x * inv % p for x in t]


# ---------------------------------------------------------------------------
# factorization over F_p
# ---------------------------------------------------------------------------


def sqf_list(f, p):
    """[(g, k)]: f monic = prod g^k over F_p, the g monic, squarefree and
    pairwise coprime."""
    out = []
    c = gcd(f, derivative(f, p), p)
    w = quo_rem(f, c, p)[0]
    k = 1
    while len(w) > 1:
        y = gcd(w, c, p)
        z = quo_rem(w, y, p)[0]
        if len(z) > 1:
            out.append((z, k))
        w, c = y, quo_rem(c, y, p)[0]
        k += 1
    if len(c) > 1:
        # what is left is a polynomial in x^p; over F_p its p-th root just
        # keeps every p-th coefficient
        out.extend((g, j * p) for g, j in sqf_list(c[::p], p))
    return out


def ddf(f, p):
    """[(g, d)]: g is the product of the irreducible factors of degree d of
    f, which is monic and squarefree over F_p."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = powmod(h, p, f, p)
        g = gcd(f, sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = quo_rem(f, g, p)[0]
            h = rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def edf(f, d, p, rng):
    """The monic irreducible factors of f, a monic squarefree product of
    irreducibles of degree d over F_p."""
    n = len(f) - 1
    if n <= d:
        return [f] if n >= 1 else []
    while True:
        a = trim([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        g = gcd(a, f, p)
        if len(g) == 1:
            if p == 2:
                b, t = a, a
                for _ in range(d - 1):
                    t = rem(mul(t, t, 2), f, 2)
                    b = add(b, t, 2)
            else:
                b = sub(powmod(a, (p**d - 1) // 2, f, p), [1], p)
            g = gcd(b, f, p)
        if 1 < len(g) < len(f):
            return edf(g, d, p, rng) + edf(quo_rem(f, g, p)[0], d, p, rng)


def roots(f, p):
    """The distinct roots in F_p of f, which is nonzero mod p, sorted: EDF at
    degree 1 splits gcd(f, x^p - x), the product of the x - a with f(a) = 0."""
    f = monic(trim(f, p), p)
    if not f:
        raise AlgebraError("the zero polynomial vanishes everywhere")
    g = gcd(f, sub(powmod([0, 1], p, f, p), [0, 1], p), p)
    return sorted(-h[0] % p for h in edf(g, 1, p, random.Random(p)))


def factor_squarefree(f, p):
    """Monic irreducible factors over F_p of a monic squarefree f, sorted."""
    rng = random.Random(p)
    return sorted(
        (h for g, d in ddf(f, p) for h in edf(g, d, p, rng)),
        key=lambda h: (len(h), h),
    )


def factor(f, p):
    """(lc, [(g, k)]) with f = lc * prod g^k over F_p, every g monic and
    irreducible, sorted by (degree, coefficients); f must be nonzero mod p."""
    f = trim(f, p)
    if not f:
        raise AlgebraError("the zero polynomial has no factorization")
    out = [(h, k) for g, k in sqf_list(monic(f, p), p) for h in factor_squarefree(g, p)]
    return f[-1], sorted(out, key=lambda hk: (len(hk[0]), hk[0]))


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def hensel_step(f, g, h, s, t, m):
    """(g*, h*, s*, t*) with f = g* h* and s* g* + t* h* = 1 mod m^2, h*
    monic, g* = g and h* = h mod m.

    Needs f = g h and s g + t h = 1 mod m, h monic, deg s < deg h and
    deg t < deg g.  The division is by the monic factor h, so lc(f) stays
    on g.
    """
    mm = m * m
    e = sub(f, mul(g, h, mm), mm)
    q, r = quo_rem(mul(s, e, mm), h, mm)
    g = add(g, add(mul(t, e, mm), mul(q, g, mm), mm), mm)
    h = add(h, r, mm)
    b = sub(add(mul(s, g, mm), mul(t, h, mm), mm), [1], mm)
    c, d = quo_rem(mul(s, b, mm), h, mm)
    s = sub(s, d, mm)
    t = sub(t, add(mul(t, b, mm), mul(c, g, mm), mm), mm)
    return g, h, s, t


def hensel_lift(f, factors, p, bound):
    """(lifts, m): the monic lifts mod m, the least power of p above bound,
    of the pairwise coprime monic factors mod p of f = lc(f) prod(factors)
    mod p, with f = lc(f) prod(lifts) mod m.

    Along a balanced factor tree (Alg. 15.17), hensel_step lifts each node's
    left product, which carries lc(f), and its monic right one through the
    precisions 1, ..., ceil(k/4), ceil(k/2), k, reducing to each one."""
    k, m = 1, p
    while m <= bound:
        k, m = k + 1, m * p
    if len(factors) == 1:
        return [monic(trim(f, m), m)], m
    ladder = [k]
    while ladder[0] > 1:
        ladder.insert(0, (ladder[0] + 1) // 2)
    half = len(factors) // 2
    g = [f[-1] % p]
    for a in factors[:half]:
        g = mul(g, a, p)
    h = [1]
    for a in factors[half:]:
        h = mul(h, a, p)
    s, t = bezout(g, h, p)
    for i, j in zip(ladder, ladder[1:]):
        g, h, s, t = (trim(a, p**j) for a in hensel_step(f, g, h, s, t, p**i))
    return hensel_lift(g, factors[:half], p, bound)[0] + hensel_lift(h, factors[half:], p, bound)[0], m
