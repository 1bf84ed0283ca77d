"""Splitting algebra, resolvents, Galois groups, determinant identity."""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from kronecker import galois, linalg
from kronecker.errors import DomainError
from kronecker.galois import (
    GaloisResult,
    SplittingAlgebra,
    galois_group,
    genus_disc_identity,
    resolvent_total_symmetric,
)
from kronecker.polyring import MultiPoly, UniPoly, parse_poly


def test_algebra_dimension_and_basis():
    alg = SplittingAlgebra(parse_poly("x^3 - 3*x - 1"))
    assert alg.dim == 6
    assert alg.basis == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    with pytest.raises(DomainError):
        SplittingAlgebra(UniPoly("x", [1] * 7))


def test_quadratic_reduction():
    # f = x^2 - c1 x + c2 with c1=3, c2=2: x1^2 reduces to 3 x1 - 2
    alg = SplittingAlgebra(UniPoly("x", [2, -3, 1]))
    x1 = MultiPoly.var("x1", alg.variables)
    assert alg.reduce(x1 * x1) == 3 * x1 - 2


def test_elementary_symmetric_functions_reproduce_coefficients():
    f = UniPoly("x", [-1, -3, 0, 1])  # x^3 - 3x - 1: e1=0, e2=-3, e3=1
    alg = SplittingAlgebra(f)
    assert alg.elementary_symmetric(1) == MultiPoly.const(0, alg.variables)
    assert alg.elementary_symmetric(2) == MultiPoly.const(-3, alg.variables)
    assert alg.elementary_symmetric(3) == MultiPoly.const(1, alg.variables)


def test_sum_of_roots_is_constant():
    alg = SplittingAlgebra(UniPoly("x", [-1, -3, 0, 1]))
    rs = alg.roots()
    total = rs[0] + rs[1] + rs[2]
    assert alg.reduce(total) == MultiPoly.const(0, alg.variables)


def test_resolvent_n2_first_root():
    r = resolvent_total_symmetric(UniPoly("x", [2, -3, 1]), (1, 0))
    assert r == UniPoly("x", [2, -3, 1])


def test_resolvent_n2_sum():
    r = resolvent_total_symmetric(UniPoly("x", [2, -3, 1]), (1, 1))
    assert r == UniPoly("x", [9, -6, 1])  # (X - 3)^2


def test_resolvent_degree_and_u_permutation_invariance():
    f = UniPoly("x", [-1, -3, 0, 1])
    base = resolvent_total_symmetric(f, (0, 1, 2))
    assert base.degree == 6
    for perm in itertools.permutations((0, 1, 2)):
        assert resolvent_total_symmetric(f, perm) == base


def test_resolvent_roots_are_weighted_root_sums():
    # f = (x-1)(x-2): roots 1, 2; u = (1, 2): values 1+4=5 and 2+2=4
    r = resolvent_total_symmetric(UniPoly("x", [2, -3, 1]), (1, 2))
    assert r == UniPoly("x", [20, -9, 1])  # (X-5)(X-4)


def _charpoly_resolvent(f, u):
    """The norm of u . (x_1, ..., x_n) in the splitting algebra of f."""
    alg = SplittingAlgebra(f)
    ell = MultiPoly.zero(alg.variables)
    for ui, r in zip(u, alg.roots()):
        ell = ell + r * Fraction(ui)
    return UniPoly("x", linalg.charpoly(alg.multiplication_matrix(ell)))


def _lifted_roots_sample():
    """(coefficients low to high, weights) for monic squarefree integer f of
    degree 1-5, irreducible and reducible, and a seeded random part."""
    rng = random.Random(97)
    sample = [
        ([-2, 1], (5,)),
        ([0, 1], (-3,)),
        ([2, -3, 1], (1, 1)),  # (x - 1)(x - 2): (X - 3)^2
        ([2, -3, 1], (0, -4)),
        ([-1, -3, 0, 1], (0, 1, 2)),
        ([0, -1, 0, 1], (2, 2, -1)),  # x^3 - x
        ([-1, 0, 0, 0, 1], (0, -1, 1, 1)),  # x^4 - 1
        ([1, 0, 0, 0, 1], (3, 0, 0, -3)),
        # coefficients near 10^6, where the bound sets the precision
        ([999979, -1000000, 999983, 1], (3, -2, 0)),
        ([-1000003, 0, 0, 999999, 1], (1, 0, -1, 2)),
        ([-2, 0, 0, 0, 0, 1], (0, 1, 2, 3, 4)),
        ([0, -1, 0, 0, 0, 1], (1, -1, 0, 2, 2)),  # x^5 - x
        ([-5, 2, 0, 1, 0, 1], (1, 1, 0, 0, -2)),
    ]
    while len(sample) < 25:
        n = rng.randint(1, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
        if galois._squarefree(UniPoly("x", coeffs)):
            sample.append((coeffs, tuple(rng.randint(-3, 3) for _ in range(n))))
    return sample


def test_resolvent_from_lifted_roots_equals_the_charpoly(monkeypatch):
    def no_charpoly(matrix):
        raise AssertionError("took the splitting-algebra charpoly")

    # the oracle calls linalg.charpoly, the route under test galois.charpoly
    monkeypatch.setattr(galois, "charpoly", no_charpoly)
    for coeffs, u in _lifted_roots_sample():
        f = UniPoly("x", coeffs)
        assert resolvent_total_symmetric(f, u) == _charpoly_resolvent(f, u), (coeffs, u)
        roots = galois._numeric_roots(f, 30)
        assert max(abs(r) for r in roots) <= galois._root_bound(coeffs)


def test_inputs_outside_the_lifted_route_keep_the_charpoly():
    # repeated roots, rational coefficients and rational weights
    for f, u, expected in (
        (UniPoly("x", [1, -2, 1]), (1, 2), UniPoly("x", [9, -6, 1])),
        (UniPoly("x", [Fraction(1, 2), 0, 1]), (0, 1), UniPoly("x", [Fraction(1, 2), 0, 1])),
        (UniPoly("x", [2, -3, 1]), (Fraction(1, 2), 0), UniPoly("x", [Fraction(1, 2), Fraction(-3, 2), 1])),
    ):
        assert resolvent_total_symmetric(f, u) == expected


def test_ceil_root():
    for k in range(1, 6):
        for a in list(range(200)) + [10**20, 10**20 + 1, 3**50]:
            r = galois._ceil_root(a, k)
            assert r**k >= a and (r == 0 or (r - 1) ** k < a), (a, k)


def test_cubic_cyclic():
    res = galois_group("x^3 - 3*x - 1")
    assert res.order == 3
    assert res.factor_pattern == [3, 3]
    assert res.group == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]


def test_cubic_full_symmetric():
    res = galois_group("x^3 - x - 1")
    assert res.order == 6
    assert res.factor_pattern == [6]
    assert len(res.group) == 6


def test_quadratic():
    res = galois_group("x^2 - 2")
    assert res.order == 2
    assert res.group == [(1, 2), (2, 1)]


def _cubic_disc(a, b, c):
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c


def test_every_small_irreducible_cubic_against_the_discriminant():
    # oracle: an irreducible cubic has group A3 exactly when its
    # discriminant is a square; a monic integer cubic is reducible exactly
    # when it has an integer root, which divides the constant term
    s3 = sorted(itertools.permutations((1, 2, 3)))
    a3 = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    seen = 0
    for a, b, c in itertools.product(range(-3, 4), repeat=3):
        if c == 0 or any(
            r**3 + a * r * r + b * r + c == 0 for d in range(1, abs(c) + 1) for r in (d, -d)
        ):
            continue
        seen += 1
        res = galois_group(UniPoly("x", [c, b, a, 1]))
        d = _cubic_disc(a, b, c)
        square = d >= 0 and math.isqrt(d) ** 2 == d
        assert res.order == (3 if square else 6), (a, b, c)
        assert res.group == (a3 if square else s3)
        assert res.factor_pattern == ([3, 3] if square else [6])
    assert seen > 100


def test_every_small_irreducible_quadratic():
    for b, c in itertools.product(range(-5, 6), repeat=2):
        d = b * b - 4 * c
        if d >= 0 and math.isqrt(d) ** 2 == d:
            continue  # rational roots
        res = galois_group(UniPoly("x", [c, b, 1]))
        assert (res.order, res.factor_pattern) == (2, [2]), (b, c)
        assert res.group == [(1, 2), (2, 1)]


def test_cubic_with_a_hard_to_factor_resolvent_is_fast():
    # about 10 s when the degree-6 resolvent went through the exact
    # interpolation factor search
    start = time.perf_counter()
    res = galois_group("x^3 + 2*x^2 + x - 2")
    assert time.perf_counter() - start < 1.0
    assert res.order == 6  # disc = -59


def test_linear_resolvent_follows_u():
    res = galois_group("x - 2", u=(5,))
    assert res.resolvent == UniPoly("x", [-10, 1])
    assert (res.order, res.factor_pattern, res.group, res.u) == (1, [1], [(1,)], (5,))
    default = galois_group("x - 2")
    assert default.u == (0,)
    assert default.resolvent == UniPoly("x", [0, 1])


def test_quartic_klein_four():
    res = galois_group("x^4 + 1")
    assert res.order == 4
    assert res.factor_pattern == [4] * 6
    # identity plus the three double transpositions
    assert res.group == [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]


def test_quartic_cyclic():
    res = galois_group("x^4 + x^3 + x^2 + x + 1")
    assert res.order == 4
    perms = [tuple(i - 1 for i in g) for g in res.group]
    # cyclic: a single generator of order 4
    orders = sorted(_perm_order(p) for p in perms)
    assert orders == [1, 2, 4, 4]


def test_quartic_s4():
    res = galois_group("x^4 + x + 1")
    assert res.order == 24
    assert res.factor_pattern == [24]


def _perm_order(p):
    n = len(p)
    e = tuple(range(n))
    q = p
    k = 1
    while q != e:
        q = tuple(p[q[i]] for i in range(n))
        k += 1
    return k


def test_group_closure_and_transitivity():
    for text in ("x^3 - 3*x - 1", "x^3 - x - 1", "x^4 + 1"):
        res = galois_group(text)
        perms = [tuple(i - 1 for i in g) for g in res.group]
        n = len(perms[0])
        assert tuple(range(n)) in perms
        for a in perms:
            for b in perms:
                assert tuple(a[b[i]] for i in range(n)) in perms
        orbit = {0}
        for _ in range(n):
            orbit |= {g[i] for g in perms for i in orbit}
        assert orbit == set(range(n))
        assert res.order * len(res.factor_pattern) == _factorial(n)


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_reducible_rejected():
    with pytest.raises(DomainError):
        galois_group("x^2 - 1")


def test_degree_cap():
    with pytest.raises(DomainError):
        galois_group("x^6 + x + 1")


def test_genus_disc_identity_n2():
    lhs, rhs, equal = genus_disc_identity(2)
    assert equal
    assert lhs == parse_poly("(x1-x2)*(x1-x2)", ["x1", "x2"])


def test_genus_disc_identity_n3():
    lhs, rhs, equal = genus_disc_identity(3)
    assert equal
    assert lhs.total_degree() == 18  # D^3, D of degree 6


def test_genus_disc_identity_range():
    with pytest.raises(DomainError):
        genus_disc_identity(4)


def test_genus_disc_specialization_23():
    """disc(x^3 - x - 1) = -23, so the n=3 identity specializes to (-23)^3."""
    from kronecker.polyring import discriminant

    d = discriminant(parse_poly("x^3 - x - 1"), "x").constant_value()
    assert d == -23
    _, _, equal = genus_disc_identity(3)
    assert equal
    assert d ** 3 == -12167


def _all_pairs_transitive_subgroups(n):
    """Reference: close every pair of permutations (every subgroup of S_n,
    n <= 5, has at most two generators) and keep the transitive ones."""
    elems = list(itertools.permutations(range(n)))
    groups = {galois._closure([g], n) for g in elems}
    groups.update(galois._closure([g, h], n) for g, h in itertools.combinations(elems, 2))
    out = [sorted(H) for H in groups if galois._is_transitive(H, n)]
    out.sort(key=lambda H: (len(H), H))
    return out


def test_transitive_subgroups_match_all_pairs_closure():
    saved = dict(galois._subgroup_cache)
    galois._subgroup_cache.clear()
    try:
        for n, count in zip(range(1, 6), (1, 1, 2, 9, 20)):
            table = galois._transitive_subgroups(n)
            assert len(table) == count
            assert table == _all_pairs_transitive_subgroups(n)
        with pytest.raises(DomainError):
            galois._transitive_subgroups(6)
    finally:
        galois._subgroup_cache.clear()
        galois._subgroup_cache.update(saved)


def _all_pairs_separation(points):
    return min(abs(a - b) for a, b in itertools.combinations(points, 2))


def test_min_separation_sweep_equals_all_pairs():
    rng = random.Random(12)
    with mpmath.workdps(40):
        for size, reps in ((2, 20), (3, 20), (7, 20), (24, 10), (120, 3)):
            for _ in range(reps):
                pts = [
                    mpmath.mpc(mpmath.mpf(rng.uniform(-5, 5)), mpmath.mpf(rng.uniform(-5, 5)))
                    for _ in range(size)
                ]
                assert galois._min_separation(pts) == _all_pairs_separation(pts)
        # degenerate sets: one real part shared by all, equal real parts in
        # pairs, ties between several closest pairs, and coincident values
        column = [mpmath.mpc(1, rng.randint(-50, 50)) for _ in range(30)]
        pairs = [mpmath.mpc(k // 2, rng.uniform(-1, 1)) for k in range(40)]
        grid = [mpmath.mpc(i, j) for i in range(6) for j in range(6)]
        repeated = grid + [mpmath.mpc(3, 4)]
        real_line = [mpmath.mpc(rng.randint(-9, 9), 0) for _ in range(30)]
        for pts in (column, pairs, grid, repeated, real_line, list(reversed(grid))):
            assert galois._min_separation(pts) == _all_pairs_separation(pts)
        assert galois._min_separation(repeated) == 0
        assert galois._min_separation(grid) == 1
        # the 120 weighted root sums that _identify_group separates
        roots = galois._numeric_roots(UniPoly("x", [-2, 0, 0, 0, 0, 1]), 40)
        values = [
            mpmath.fsum([u * roots[s[i]] for i, u in enumerate(range(5))])
            for s in itertools.permutations(range(5))
        ]
        assert galois._min_separation(values) == _all_pairs_separation(values)
