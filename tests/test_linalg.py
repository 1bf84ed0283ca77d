"""Characteristic polynomials against determinant interpolation."""

import itertools
import random
from fractions import Fraction

from kronecker import linalg
from kronecker.galois import SplittingAlgebra
from kronecker.polyring import MultiPoly, UniPoly


def _times_linear(poly, root):
    """poly * (x - root), coefficients low to high."""
    return [a - root * b for a, b in zip([0] + poly, poly + [0])]


def _interpolated_charpoly(a):
    """det(xI - A) at x = 0..n by mat_det, then Lagrange interpolation."""
    n = len(a)
    points = range(n + 1)
    out = [Fraction(0)] * (n + 1)
    for xj in points:
        value = linalg.mat_det([[(xj if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)])
        basis, denom = [Fraction(1)], 1
        for xk in points:
            if xk != xj:
                basis = _times_linear(basis, xk)
                denom *= xj - xk
        out = [o + value * c / denom for o, c in zip(out, basis)]
    return out


def _faddeev_leverrier(a):
    """Reference charpoly of an integer matrix, low to high: M_1 = A,
    c_k = -tr(M_k) / k, M_(k+1) = A (M_k + c_k I); every M_k is integral."""
    n = len(a)
    nonzero = [[(t, int(x)) for t, x in enumerate(r) if x] for r in a]
    m = [[int(x) for x in r] for r in a]
    coeffs = [1]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        assert rem == 0
        coeffs.append(ck)
        for i in range(n):
            m[i][i] += ck
        prod = []
        for entries in nonzero:
            row = [0] * n
            for t, x in entries:
                row = [r + x * y for r, y in zip(row, m[t])]
            prod.append(row)
        m = prod
    return coeffs[::-1]


def _check(a):
    got = linalg.charpoly(a)
    assert len(got) == len(a) + 1 and got[-1] == 1
    assert all(isinstance(c, Fraction) for c in got) or got == [1]
    assert got == _interpolated_charpoly(a)
    return got


def test_empty_matrix():
    assert linalg.charpoly([]) == [1]


def _leibniz(a):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(a)), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def test_integer_det_matches_fraction_det():
    assert linalg.mat_det([]) == 1
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = [[rng.choice((0, rng.randint(-(10**6), 10**6))) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            a[-1] = list(a[0])
        shape = rng.random()
        if shape < 0.15:
            for r in a:
                r[0] = 0  # a zero leading column
        elif shape < 0.3:
            a[0][0] = 0  # a zero first pivot
        det = linalg.mat_det(a)
        frac = linalg.mat_det([[Fraction(x) for x in r] for r in a])
        assert type(det) is int and isinstance(frac, Fraction)
        assert det == frac == _leibniz(a) == linalg.berkowitz_det([tuple(r) for r in a])
        r = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)]
        assert linalg.mat_det(r) == _leibniz(r)


def test_random_integer_matrices():
    rng = random.Random(11)
    for n in range(0, 11):
        for size in (3, 10**6):
            a = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
            _check(a)


def test_random_rational_matrices():
    rng = random.Random(12)
    for n in range(0, 11):
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
        _check(a)


def test_huge_integer_and_rational_entries():
    rng = random.Random(13)
    for n, size in ((10, 10**40), (8, 10**50), (6, 10**300)):
        a = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
        _check(a)
        q = [[Fraction(x, rng.randint(1, 10**6)) for x in r] for r in a]
        _check(q)


def test_structured_matrices():
    for n in range(1, 8):
        zero = [[0] * n for _ in range(n)]
        assert _check(zero) == [0] * n + [1]
        nilpotent = [[(i * 7 + j * 3) % 5 - 2 if j > i else 0 for j in range(n)] for i in range(n)]
        assert _check(nilpotent) == [0] * n + [1]
        c = Fraction(-3, 2)
        scalar = [[c if i == j else 0 for j in range(n)] for i in range(n)]
        expected = UniPoly("x", [-c, 1]) ** n
        assert _check(scalar) == list(expected.coeffs)
    # a 3-cycle and a 2-cycle: charpoly (x^3 - 1)(x^2 - 1)
    sigma = (1, 2, 0, 4, 3)
    perm = [[1 if sigma[j] == i else 0 for j in range(5)] for i in range(5)]
    assert _check(perm) == [1, 0, -1, -1, 0, 1]


def test_resolvent_matrix_of_x5_minus_2():
    """The 120 x 120 total-resolvent matrix; 121 determinants of this size
    would take minutes, so the reference is Faddeev-LeVerrier."""
    alg = SplittingAlgebra(UniPoly("x", [-2, 0, 0, 0, 0, 1]))
    ell = MultiPoly.zero(alg.variables)
    for u, r in zip(range(5), alg.roots()):
        ell = ell + r * u
    a = alg.multiplication_matrix(ell)
    assert len(a) == 120
    assert linalg.charpoly(a) == _faddeev_leverrier(a)
