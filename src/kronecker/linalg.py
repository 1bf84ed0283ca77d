"""Exact dense linear algebra: determinants, products, charpoly.

berkowitz_det, the package's one determinant, is division-free, so it runs
on ints and on polyring.MultiPoly entries alike."""

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from kronecker import primes

# Exponents q of every Mersenne prime 2^q - 1 up to 2^1279 - 1.
MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279)


def mat_det(rows):
    """Determinant of a square matrix of ints or rationals, exactly.

    An all-int matrix goes to berkowitz_det as it is and gives an int.
    Otherwise each row is scaled to integers by the lcm of its
    denominators, and the integer determinant divided by the product of
    those lcms comes back as a Fraction.
    """
    if all(isinstance(x, int) for r in rows for x in r):
        return berkowitz_det(rows)
    scale, m = 1, []
    for r in rows:
        r = [Fraction(x) for x in r]
        d = lcm(*(x.denominator for x in r))
        scale *= d
        m.append([x.numerator * (d // x.denominator) for x in r])
    return Fraction(berkowitz_det(m), scale)


def berkowitz_det(rows):
    """Determinant of a square matrix over a commutative ring, without
    division (Berkowitz 1984, Inf. Proc. Letters 18).

    Only +, -, * and the entries' truth value are used, so one routine
    serves ints and polyring.MultiPoly alike.  With A_r the leading r x r
    block and A_(r+1) = [[A_r, S], [R, a]], the characteristic polynomials
    x^r + c_1 x^(r-1) + ... + c_r satisfy

        chi_(r+1) = (x - a) chi_r - R adj(x I - A_r) S,

    a convolution of c with q = (1, -a, -R S, -R A_r S, ..., -R A_r^(r-1) S).
    det A = (-1)^n c_n.  O(n^4) ring operations; zero products are skipped.
    """
    n = len(rows)
    if n == 0:
        return 1
    zero = rows[0][0] - rows[0][0]

    def dot(u, v):
        """sum of u_i * v_i over the shorter of u and v"""
        total = zero
        for x, y in zip(u, v):
            if x and y:
                total = total + x * y
        return total

    c = [-rows[0][0]]  # c_1 .. c_r of chi_r; c_0 = 1 is implicit
    for r in range(1, n):
        v = [row[r] for row in rows[:r]]  # A_r^k S, of length r
        q = [-rows[r][r], -dot(rows[r], v)]  # q_1 .. q_(r+1); q_0 = 1 is implicit
        for _ in range(r - 1):
            v = [dot(row, v) for row in rows[:r]]
            q.append(-dot(rows[r], v))
        c.append(zero)
        c = [q[m] + c[m] + dot(reversed(q[:m]), c) for m in range(r + 1)]
    return -c[-1] if n & 1 else c[-1]


def minor(m, i, j):
    """m without row i and column j."""
    return [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]


def mat_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(mid):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(m):
                    oi[j] += x * bk[j]
    return out


def charpoly(rows):
    """Monic characteristic polynomial coefficients, low to high, as Fractions.

    A rational matrix A is scaled first: with d the lcm of its denominators,
    charpoly_A(x) = d^-n * charpoly_dA(d*x), so c_k(A) = c_k(dA) / d^(n-k).
    Each coefficient of the integer matrix dA is, up to sign, a sum of
    principal k-minors, so by Hadamard's inequality it is bounded by
    B = max_k e_k(|row_1|_2, ..., |row_n|_2).  The charpoly is computed
    modulo the smallest tabulated Mersenne prime P > 2B (Hessenberg
    reduction and the Hessenberg recurrence, Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9), and lifted to the
    symmetric range.  Past the table, residues modulo the primes above 2^64
    are combined by the Chinese remainder theorem until their product
    exceeds 2B.  Reduction modulo P is a ring homomorphism and |c_k| <= B < P/2, so
    the result is exact.  O(n^3) operations on numbers of about log2(2B)
    bits.
    """
    n = len(rows)
    if n == 0:
        return [1]
    rows = [[Fraction(x) for x in r] for r in rows]
    d = lcm(*(x.denominator for r in rows for x in r))
    a = [[x.numerator * (d // x.denominator) for x in r] for r in rows]
    target = 2 * _coefficient_bound(a)
    residues, modulus = [0] * (n + 1), 1
    for p in _moduli(target):
        res = _charpoly_mod(a, p)
        # CRT: keep residues modulo the product, adding p as a new factor
        t = pow(modulus, -1, p)
        residues = [r + modulus * ((s - r) * t % p) for r, s in zip(residues, res)]
        modulus *= p
    half = modulus // 2
    return [Fraction(c - modulus if c > half else c, d ** (n - k)) for k, c in enumerate(residues)]


def _coefficient_bound(a):
    """max_k e_k of upper bounds on the Euclidean row norms of a."""
    e = [1]
    for r in a:
        norm = isqrt(sum(x * x for x in r)) + 1
        e = [x + norm * y for x, y in zip(e + [0], [0] + e)]
    return max(e)


def _moduli(target):
    """Distinct odd primes whose product exceeds target: the smallest
    tabulated Mersenne prime above it, else the primes above 2^64."""
    for q in MERSENNE_EXPONENTS:
        if (1 << q) - 1 > target:
            yield (1 << q) - 1
            return
    product, p = 1, 1 << 64
    while product <= target:
        p = primes.next_prime(p)
        yield p
        product *= p


def _charpoly_mod(a, p):
    """Charpoly of the integer matrix a modulo the prime p, low to high."""
    n = len(a)
    h = [[x % p for x in r] for r in a]
    # similarity transforms to upper Hessenberg form: clear column m-1
    # below the subdiagonal with row m as pivot row
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for r in h:
                r[m], r[piv] = r[piv], r[m]
        inv = pow(h[m][m - 1], -1, p)
        us = [h[i][m - 1] * inv % p for i in range(m + 1, n)]
        if not any(us):
            continue
        pivot_row = h[m][m - 1 :]
        for i, u in enumerate(us, m + 1):
            if u:
                h[i][m - 1 :] = [(x - u * y) % p for x, y in zip(h[i][m - 1 :], pivot_row)]
        # the inverse transform adds u_i * column i to column m, for all i
        for r in h:
            r[m] = (r[m] + sum(map(mul, us, r[m + 1 :]))) % p
    # p_0 = 1, p_(m+1) = (x - h_mm) p_m - sum_(i<m) t_i h_im p_i, where t_i
    # is the product of the subdiagonal entries h_(i+1,i) .. h_(m,m-1)
    polys = [[1]]
    for m in range(n):
        prev = polys[-1]
        hm = h[m][m]
        new = [0] + prev
        new[: m + 1] = [x - hm * c for x, c in zip(new, prev)]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            w = t * h[i][m] % p
            if w:
                pi = polys[i]
                new[: i + 1] = [x - w * c for x, c in zip(new, pi)]
        polys.append([x % p for x in new])
    return polys[-1]
