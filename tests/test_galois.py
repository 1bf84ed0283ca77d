"""Splitting algebra, resolvents, Galois groups, determinant identity."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from kronecker import galois, modp, primes
from kronecker.errors import AlgebraError, DomainError
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


def _lifted_roots_sample():
    """(coefficients low to high, weights) for monic f of degree 1-5:
    squarefree and integral, irreducible and reducible, a seeded random
    part, then repeated roots and rational coefficients and weights."""
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
        f = UniPoly("x", coeffs)
        if f.gcd(f.derivative()).degree == 0:
            sample.append((coeffs, tuple(rng.randint(-3, 3) for _ in range(n))))
    half, third = Fraction(1, 2), Fraction(1, 3)
    return sample + [
        ([-4, 4, 4, -4, -1, 1], (0, 1, 2, 3, 4)),  # (x^2 - 2)^2 (x - 1)
        ([-1, 3, -3, 1], (1, 2, 3)),  # (x - 1)^3
        ([0, 0, 0, 0, 1], (1, 0, 2, 5)),  # x^4
        ([2, -3, 0, 1], (1, 0, 2)),  # (x - 1)^2 (x + 2)
        ([Fraction(2, 5), -third, 0, 1], (half, -1, Fraction(2, 3))),
        ([Fraction(1, 12), -Fraction(1, 12), -Fraction(2, 3), 1], (third, 2, Fraction(-5, 4))),  # (x - 1/2)^2 (x + 1/3)
        ([Fraction(-9, 7), 0, 1], (half, Fraction(-3, 4))),
    ]


def _no_charpoly(matrix):
    raise AssertionError("took the splitting-algebra charpoly")


def test_resolvent_from_lifted_roots_equals_the_charpoly(monkeypatch):
    polyroots = pytest.importorskip("mpmath").polyroots
    sample = [(UniPoly("x", coeffs), u) for coeffs, u in _lifted_roots_sample()]
    references = [SplittingAlgebra(f).total_resolvent(u) for f, u in sample]
    monkeypatch.setattr(galois, "charpoly", _no_charpoly)
    for (f, u), expected in zip(sample, references):
        assert resolvent_total_symmetric(f, u) == expected, (f, u)
        # the bound on the monic integer model's roots, found on its
        # squarefree part, where they are simple
        F = galois._monic_integer_model(f)
        roots = polyroots(F.squarefree_part().num[::-1], maxsteps=200, extraprec=30)
        assert max(abs(r) for r in roots) <= galois._root_bound(F.num)


def test_repeated_roots_and_rational_inputs_keep_their_values(monkeypatch):
    # repeated roots, rational coefficients and rational weights, pinned
    # while they took the splitting-algebra charpoly
    monkeypatch.setattr(galois, "charpoly", _no_charpoly)
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


def test_is_group_needs_the_identity_and_closure():
    e4 = (0, 1, 2, 3)
    transpositions = [(1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0), (0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2)]
    assert not galois._is_group(transpositions, 4)  # no identity
    assert not galois._is_group([e4] + transpositions, 4)  # not closed
    assert not galois._is_group([(1, 2, 0, 3), (2, 0, 1, 3)], 4)  # C3 without the identity
    assert not galois._is_group([e4, (1, 2, 3, 0), (2, 3, 0, 1)], 4)  # C4 without its generator's inverse
    assert not galois._is_group([], 4)
    assert galois._is_group([e4], 4)
    for n in range(1, 6):
        for H in galois._transitive_subgroups(n):
            assert galois._is_group(H, n)
            assert galois._is_group(list(reversed(H)), n)
            assert not galois._is_group(H[1:], n)  # H[0] is the identity


def _generated(gens):
    """The 1-indexed permutations generated by gens, closed by brute force."""
    n = len(gens[0])
    out = {tuple(range(1, n + 1))}
    while True:
        more = {tuple(g[i - 1] for i in h) for g in gens for h in out} - out
        if not more:
            return sorted(out)
        out |= more


# (input, split prime, weights, factor pattern, generators of the group),
# one input per transitive class of degree 4 and 5
PINNED_GROUPS = [
    ("x^4 + x^3 + x^2 + x + 1", 131, (0, 1, 2, 3), [4] * 6, [(2, 4, 1, 3)]),
    ("x^4 + 1", 89, (0, 2, 6, 12), [4] * 6, [(2, 1, 4, 3), (3, 4, 1, 2)]),
    ("x^4 - 2", 89, (0, 2, 6, 12), [8] * 3, [(1, 3, 2, 4), (2, 1, 4, 3)]),
    ("x^4 + 8*x + 12", 197, (0, 1, 2, 3), [12] * 2, [(1, 3, 4, 2), (2, 1, 4, 3)]),
    ("x^4 + x + 1", 509, (0, 1, 2, 3), [24], [(1, 2, 4, 3), (1, 3, 2, 4), (2, 1, 3, 4)]),
    ("x^5 - 10*x^3 + 5*x^2 + 10*x + 1", 1093, (0, 1, 2, 3, 4), [5] * 24, [(2, 4, 1, 5, 3)]),
    ("x^5 - 5*x + 12", 1277, (0, 1, 2, 3, 4), [10] * 12, [(1, 4, 5, 2, 3), (2, 1, 3, 5, 4)]),
    ("x^5 - 2", 571, (0, 1, 2, 3, 4), [20] * 6, [(1, 3, 5, 2, 4), (2, 1, 5, 4, 3)]),
    ("x^5 + 20*x + 16", 1699, (0, 1, 2, 3, 4), [60] * 2, [(1, 2, 4, 5, 3), (1, 3, 2, 5, 4), (2, 1, 3, 5, 4)]),
    (
        "x^5 - x - 1",
        1973,
        (0, 1, 2, 3, 4),
        [120],
        [(1, 2, 3, 5, 4), (1, 2, 4, 3, 5), (1, 3, 2, 4, 5), (2, 1, 3, 4, 5)],
    ),
]


@pytest.mark.parametrize("text, p, u, pattern, gens", PINNED_GROUPS)
def test_pinned_groups_and_factor_patterns(text, p, u, pattern, gens):
    res = galois_group(text)
    assert (res.p, res.u, res.factor_pattern) == (p, u, pattern)
    assert res.group == _generated(gens)


def _int_coeffs(text):
    return [int(c) for c in UniPoly.from_multipoly(parse_poly(text)).coeffs]


@pytest.mark.parametrize(
    "text, order",
    [("x^4 - 2", 8), ("x^4 - 3", 8), ("x^4 - 10*x^2 + 1", 4), ("x^4 + 5*x^2 + 5", 4)],
)
def test_every_element_commutes_with_negation_on_even_quartics(text, order):
    # the roots of an even f come in pairs {a, -a}, and an automorphism
    # sends -a to minus the image of a; the roots are numbered by their
    # residues mod res.p, so the pairs are read off there
    res = galois_group(text)
    assert res.order == order
    roots = modp.roots(_int_coeffs(text), res.p)
    assert len(roots) == 4
    partner = [roots.index(-a % res.p) for a in roots]
    for g in res.group:
        s = [i - 1 for i in g]
        assert all(s[partner[i]] == partner[s[i]] for i in range(4)), g


def _cycle_type(perm):
    seen, out = set(), []
    for i in range(len(perm)):
        length = 0
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            out.append(length)
    return tuple(sorted(out, reverse=True))


# one input per conjugacy class of transitive groups of degree 4 and 5, with
# the class told apart by the number of elements of each cycle type
ONE_PER_CLASS = [
    ("x^4 + x^3 + x^2 + x + 1", {(1, 1, 1, 1): 1, (2, 2): 1, (4,): 2}),  # C4
    ("x^4 + 1", {(1, 1, 1, 1): 1, (2, 2): 3}),  # V4
    ("x^4 - 2", {(1, 1, 1, 1): 1, (2, 2): 3, (2, 1, 1): 2, (4,): 2}),  # D4
    ("x^4 + 8*x + 12", {(1, 1, 1, 1): 1, (2, 2): 3, (3, 1): 8}),  # A4
    ("x^4 + x + 1", {(1, 1, 1, 1): 1, (2, 1, 1): 6, (2, 2): 3, (3, 1): 8, (4,): 6}),  # S4
    ("x^5 - 10*x^3 + 5*x^2 + 10*x + 1", {(1,) * 5: 1, (5,): 4}),  # C5
    ("x^5 - 5*x + 12", {(1,) * 5: 1, (5,): 4, (2, 2, 1): 5}),  # D5
    ("x^5 - 2", {(1,) * 5: 1, (5,): 4, (2, 2, 1): 5, (4, 1): 10}),  # F20
    ("x^5 + 20*x + 16", {(1,) * 5: 1, (5,): 24, (2, 2, 1): 15, (3, 1, 1): 20}),  # A5
    (
        "x^5 - x - 1",
        {(1,) * 5: 1, (2, 1, 1, 1): 10, (2, 2, 1): 15, (3, 1, 1): 20, (3, 2): 20, (4, 1): 30, (5,): 24},
    ),  # S5
]


@pytest.mark.parametrize("text, types", ONE_PER_CLASS)
def test_one_input_per_transitive_class(text, types):
    res = galois_group(text)
    counts = {}
    for g in res.group:
        t = _cycle_type([i - 1 for i in g])
        counts[t] = counts.get(t, 0) + 1
    assert counts == types
    assert res.order * len(res.factor_pattern) == math.factorial(len(res.group[0]))


def _filters_off(monkeypatch):
    monkeypatch.setattr(galois, "_power_sums_fit", lambda H, values, beta, m: True)
    monkeypatch.setattr(galois, "_within_bounds", lambda g, beta: True)


def test_the_coset_certificate_alone_identifies_the_group(monkeypatch):
    # the power sums and the coefficient bounds only save certificates;
    # with them off, the coset polynomials of every candidate below the
    # group must fail to multiply to coefficients within (m - 1)/2
    _filters_off(monkeypatch)
    for text, types in ONE_PER_CLASS:
        res = galois_group(text)
        assert len(res.group) == sum(types.values()), text
        assert {_cycle_type([i - 1 for i in g]) for g in res.group} == set(types), text


@pytest.mark.parametrize("text, order", [("x^5 - 2", 20), ("x^4 + x + 1", 24)])
def test_a_subgroup_list_without_the_group_is_an_error(text, order, monkeypatch):
    n = len(_int_coeffs(text)) - 1
    smaller = [H for H in galois._transitive_subgroups(n) if len(H) < order]
    assert smaller
    _filters_off(monkeypatch)
    monkeypatch.setattr(galois, "_transitive_subgroups", lambda n: smaller)
    with pytest.raises(AlgebraError, match="coset certificate"):
        galois_group(text)


def _first_split_prime(F):
    return next(galois._split_primes(F, max(3, math.factorial(len(F) - 1))))[0]


def test_the_lifted_squarefree_test_agrees_with_the_gcd_over_q():
    # oracle: R is squarefree exactly when gcd(R, R') is 1 over Q; the
    # default weights (0, 1, 2, 3) give x^4 + 1 and x^4 - 2 repeated roots
    cases = []
    for text, _, u, _, _ in PINNED_GROUPS:
        n = len(u)
        cases += [(text, u), (text, tuple(range(n))), (text, (1, 1) + tuple(range(2, n)))]
    verdicts = set()
    for text, u in cases:
        F = _int_coeffs(text)
        R = resolvent_total_symmetric(UniPoly("x", F), u)
        squarefree = R.gcd(R.derivative()).degree == 0
        p = _first_split_prime(F)
        assert galois._resolvent_is_squarefree(F, u, p, modp.roots(F, p)) == squarefree, (text, u)
        separated = len(set(galois._root_sums(modp.roots(F, p), u, p))) == len(R.num) - 1
        verdicts.add((squarefree, separated))
    # both outcomes occur, and a squarefree R whose root sums collide mod p
    assert verdicts >= {(True, True), (True, False), (False, False)}


class _PastTheEnd(Exception):
    pass


@pytest.mark.parametrize("text", [text for text, *_ in PINNED_GROUPS])
def test_split_primes_are_those_where_x_to_the_p_is_x(text, monkeypatch):
    F = _int_coeffs(text)
    expected = [
        p for p in primes.primes_up_to(3000)[1:] if modp.powmod([0, 1], p, F, p) == modp.rem([0, 1], F, p)
    ]
    next_prime = primes.next_prime

    def next_prime_below_3000(n):
        p = next_prime(n)
        if p >= 3000:
            raise _PastTheEnd
        return p

    # the scan ends at 3000 even if the generator yields nothing before it
    monkeypatch.setattr(primes, "next_prime", next_prime_below_3000)
    found = []
    with pytest.raises(_PastTheEnd):
        for p, roots in galois._split_primes(F, 3):
            assert roots == modp.roots(F, p)
            found.append(p)
    assert found == expected


def test_galois_group_forms_no_separate_resolvent_and_lifts_at_most_twice_per_weight(monkeypatch):
    def no_resolvent(values, m):
        raise AssertionError("formed the resolvent apart from the certificate")

    lifts = []
    numeric_roots = galois._numeric_roots
    monkeypatch.setattr(galois, "_resolvent", no_resolvent)
    monkeypatch.setattr(galois, "_numeric_roots", lambda *a: lifts.append(a) or numeric_roots(*a))
    for text in ("x^5 - x - 1", "x^3 - 2"):
        lifts.clear()
        res = galois_group(text)
        assert len(lifts) == 1 and res.p == _first_split_prime(_int_coeffs(text)), text
    for text, *_ in PINNED_GROUPS:
        lifts.clear()
        res = galois_group(text)
        assert len(lifts) <= 2 * _weights_tried(res.u), text


def _weights_tried(u):
    """The number of weight vectors galois_group tries from the default
    (0, 1, ..., n-1) up to u, by its redraw u_i -> u_i + i^2."""
    w, count = tuple(range(len(u))), 1
    while w != u:
        w, count = tuple(wi + i * i for i, wi in enumerate(w)), count + 1
    return count


@pytest.mark.parametrize("text", [text for text, _ in ONE_PER_CLASS])
def test_frobenius_cycle_types_lie_in_the_group(text):
    # Dedekind: for q not dividing disc(f), the degrees of the factors of f
    # mod q are the cycle type of an element of the group
    res = galois_group(text)
    types = {_cycle_type([i - 1 for i in g]) for g in res.group}
    F = _int_coeffs(text)
    checked = 0
    q = 2
    while q < 500:
        f = modp.trim(F, q)
        if len(modp.gcd(f, modp.derivative(f, q), q)) == 1:
            degrees = [d for g, d in modp.ddf(f, q) for _ in range((len(g) - 1) // d)]
            assert tuple(sorted(degrees, reverse=True)) in types, (q, degrees)
            checked += 1
        q = primes.next_prime(q)
    assert checked > 80


def test_orders_agree_with_sympy_on_random_quartics_and_quintics():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.galoisgroups import galois_group as sympy_galois_group

    x = sympy.Symbol("x")
    rng = random.Random(41)
    seen = 0
    while seen < 40:
        n = rng.choice((4, 5))
        coeffs = [rng.randint(-6, 6) for _ in range(n)] + [1]
        poly = sympy.Poly(list(reversed(coeffs)), x)
        if not poly.is_irreducible:
            continue
        seen += 1
        expected = sympy_galois_group(poly, by_name=False)[0].order()
        assert galois_group(UniPoly("x", coeffs)).order == expected, coeffs
