"""Exact dense linear algebra: determinants, products, charpoly.

One division-free recurrence, Berkowitz's, gives the package's one
determinant, berkowitz_det, and its one characteristic polynomial, charpoly.
It runs on ints and on polyring.MultiPoly entries alike."""

from fractions import Fraction
from math import lcm


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
    division: (-1)^n c_n of the Berkowitz recurrence."""
    c = _berkowitz(rows)
    if not c:
        return 1
    return -c[-1] if len(c) & 1 else c[-1]


def _berkowitz(rows):
    """[c_1, ..., c_n] with x^n + c_1 x^(n-1) + ... + c_n the characteristic
    polynomial of a square matrix over a commutative ring, without division
    (Berkowitz 1984, Inf. Proc. Letters 18).

    Only +, -, * and the entries' truth value are used, so one routine
    serves ints and polyring.MultiPoly alike.  With A_r the leading r x r
    block and A_(r+1) = [[A_r, S], [R, a]], the characteristic polynomials
    chi_r satisfy

        chi_(r+1) = (x - a) chi_r - R adj(x I - A_r) S,

    a convolution of c with q = (1, -a, -R S, -R A_r S, ..., -R A_r^(r-1) S).
    O(n^4) ring operations; zero products are skipped.
    """
    n = len(rows)
    if n == 0:
        return []
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
    return c


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

    A rational matrix A is scaled to the integer matrix dA, with d the lcm
    of its denominators; charpoly_A(x) = d^-n charpoly_dA(d x), so the
    coefficient c_k of x^(n-k) is c_k(dA) / d^k.  The c_k(dA) come from the
    division-free recurrence of _berkowitz on integers, so the result is
    exact and the only divisions are these n.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    d = lcm(*(x.denominator for r in rows for x in r))
    a = [[x.numerator * (d // x.denominator) for x in r] for r in rows]
    c = [1] + _berkowitz(a)
    return [Fraction(ck, d**k) for k, ck in enumerate(c)][::-1]
