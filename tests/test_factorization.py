"""Factorization over Q (modular route, interpolation search, Kronecker
substitution) and modulo a prime."""

import contextlib
import io
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from kronecker import factorization, polyring
from kronecker.cli import main
from kronecker.errors import AlgebraError, DomainError
from kronecker.factorization import (
    _factor_squarefree_interpolation,
    _factor_with,
    factor,
    factor_mod_p,
    factor_multivariate,
    factor_univariate,
    is_irreducible,
)
from kronecker.modp import quo_rem
from kronecker.polyring import MultiPoly, UniPoly, parse_poly


def _multiset(fact):
    return sorted((str(f), m) for f, m in fact.factors)


# -- univariate ----------------------------------------------------------------


def test_difference_of_squares():
    fact = factor_univariate(parse_poly("x^2 - 1"))
    assert _multiset(fact) == [("x + 1", 1), ("x - 1", 1)]


def test_quartic_two_quadratics():
    fact = factor_univariate(parse_poly("x^4 + x^2 + 1"))
    assert _multiset(fact) == [("x^2 + x + 1", 1), ("x^2 - x + 1", 1)]


def test_cubic_irreducible():
    fact = factor_univariate(parse_poly("x^3 - x - 1"))
    assert _multiset(fact) == [("x^3 - x - 1", 1)]
    assert is_irreducible(parse_poly("x^3 - x - 1"))


def test_multiplicities_and_unit():
    fact = factor_univariate(parse_poly("-18*x^2 + 36*x - 18"))
    assert fact.unit == -18
    assert _multiset(fact) == [("x - 1", 2)]
    assert fact.expand() == parse_poly("-18*x^2 + 36*x - 18")


def test_rational_roots():
    fact = factor_univariate(parse_poly("6*x^2 - 5*x + 1"))
    assert _multiset(fact) == [("2*x - 1", 1), ("3*x - 1", 1)]


def test_rational_coefficients_fold_into_unit():
    fact = factor_univariate(parse_poly("1/2*x^2 - 1/2"))
    assert fact.unit == Fraction(1, 2)
    assert _multiset(fact) == [("x + 1", 1), ("x - 1", 1)]


def test_degree_cap():
    # x^13 - 2 is irreducible: a squarefree core beyond the interpolation
    # search's degree cap of 12
    with pytest.raises(DomainError):
        _factor_squarefree_interpolation(UniPoly("x", [-2] + [0] * 12 + [1]))


def test_zero_rejected():
    with pytest.raises(DomainError):
        factor_univariate(UniPoly("x", []))


# -- multivariate -----------------------------------------------------------------


def test_x2_minus_y2():
    fact = factor_multivariate(parse_poly("x^2 - y^2"))
    assert _multiset(fact) == [("x + y", 1), ("x - y", 1)]


def test_x2_plus_y2_irreducible():
    fact = factor_multivariate(parse_poly("x^2 + y^2"))
    assert _multiset(fact) == [("x^2 + y^2", 1)]


def test_constant():
    fact = factor_multivariate(parse_poly("6", ["x"]))
    assert fact.unit == 6 and fact.factors == []


def test_multivariate_with_content():
    fact = factor_multivariate(parse_poly("2*x^2*y - 2*y^3"))
    assert fact.unit == 2
    assert _multiset(fact) == sorted([("x - y", 1), ("x + y", 1), ("y", 1)])


def test_multivariate_square():
    fact = factor_multivariate(parse_poly("x^2 - 2*x*y + y^2"))
    assert _multiset(fact) == [("x - y", 2)]


def test_factor_univariate_refuses_a_bivariate_input():
    with pytest.raises(AlgebraError, match="not univariate"):
        factor_univariate(parse_poly("x*y"))


def test_the_kronecker_route_stops_at_half_its_pool(monkeypatch):
    # x^4 + y^4 has 5 image factors: a subset and its complement give
    # cofactors, so sizes 1 and 2 (15 subsets) decide irreducibility
    calls = []
    inverse = polyring.kronecker_inverse
    monkeypatch.setattr(polyring, "kronecker_inverse", lambda u, codec: calls.append(u) or inverse(u, codec))
    fact = factor_multivariate(parse_poly("x^4 + y^4"))
    assert _multiset(fact) == [("x^4 + y^4", 1)]
    assert 0 < len(calls) <= 15


@pytest.mark.parametrize(
    ("text", "searched"),
    [
        # x^2 - 2 shares its multiplicity with x*y + 1, so it is split out
        # of their squarefree part by Kronecker substitution
        ("3*(x^2 - 2)*(y^3 + y + 1)*(x*y + 1)", ["y^3 + y + 1"]),
        ("-2*(y - 2)*(x^3 - x - 1)^2*(y*x - 1)", ["x^3 - x - 1", "y - 2"]),
        ("1/2*(x - 1)^2*(y^2 - 2)*(x^2*y - 3)", ["x - 1", "y^2 - 2"]),
        ("5*(x^2 + 1)*(x + y)^2*(y^2 - y - 1)*(x*y^2 + x + 1)", ["y^2 - y - 1"]),
        # first appearance orders y before x, the Kronecker factors use x, y:
        # 2*y + 3*x has leading coefficient 2 in the input's order, 3 in its own
        ("-(2*y + 3*x)*(y - x^2)*(x + 1)^2", ["x + 1"]),
    ],
)
def test_the_interpolation_oracle_reaches_content_and_univariate_parts(text, searched):
    # the frame is shared, so the oracle route factors the content in x and
    # the univariate squarefree parts by the interpolation search; only the
    # parts in both variables take Kronecker substitution
    F = parse_poly(text)
    found = []

    def search_split(f):
        factors = _factor_squarefree_interpolation(f)
        found.extend(str(g) for g in factors)
        return factors

    search = _factor_with(F, search_split)
    modular = factor_multivariate(F)
    assert _multiset(search) == _multiset(modular)
    assert search.unit == modular.unit
    assert search.expand() == F
    assert sorted(found) == searched


def test_expansion_identity_random():
    rng = random.Random(23)
    seeds = [
        parse_poly("x - y"),
        parse_poly("x + y"),
        parse_poly("x + 1"),
        parse_poly("y - 2"),
        parse_poly("x^2 + y^2"),
        parse_poly("x*y + 1"),
        parse_poly("x^2 + x + 1"),
        parse_poly("x^2 - 2"),
    ]
    for _ in range(300):
        # products of three and four factors: test_multivariate_products_of_three_or_four
        parts = rng.sample(seeds, rng.randint(1, 2))
        unit = rng.choice([1, -1, 2, 3])
        prod = MultiPoly.const(unit)
        for p in parts:
            prod = prod * p
        fact = factor(prod)
        assert fact.expand() == prod


def test_multivariate_products_of_three_or_four():
    rng = random.Random(97)
    seeds = [
        "x - y", "x + y", "x + 1", "y - 2", "x^2 + y^2", "x*y + 1", "x^2 + x + 1",
        "x^2 - 2", "y^2 + x - 3", "x*y - 2", "x^2*y + y^2 + 1",
    ]
    for _ in range(25):
        parts = [rng.choice(seeds) for _ in range(rng.randint(3, 4))]
        prod = MultiPoly.const(rng.choice([1, -2, 3]))
        for text in parts:
            prod = prod * parse_poly(text)
        fact = factor(prod)
        assert fact.expand() == prod
        # factors are normalized in the product's variable order, so match
        # each one to its seed up to sign
        found = sorted(
            (next(t for t in seeds if (f - parse_poly(t)).is_zero or (f + parse_poly(t)).is_zero), m)
            for f, m in fact.factors
        )
        assert found == sorted((t, parts.count(t)) for t in set(parts)), parts


def test_factor_multiset_union_for_coprime():
    rng = random.Random(29)
    seeds = [
        parse_poly("x + 1"),
        parse_poly("x - 1"),
        parse_poly("x + 3"),
        parse_poly("x^2 + 1"),
        parse_poly("x^2 + x + 1"),
        parse_poly("x^2 - 2"),
    ]
    for _ in range(40):
        fs = rng.sample(seeds, 2)
        gs = [s for s in seeds if s not in fs][: rng.randint(1, 2)]
        f = fs[0] * fs[1]
        g = gs[0] * (gs[1] if len(gs) > 1 else MultiPoly.const(1))
        mf = _multiset(factor(f))
        mg = _multiset(factor(g))
        mfg = _multiset(factor(f * g))
        assert mfg == sorted(mf + mg)


# -- modulo p ------------------------------------------------------------------------


def test_mod5_splits():
    out = factor_mod_p(UniPoly("x", [1, 0, 1]), 5)
    assert [(list(map(int, f.coeffs)), m) for f, m in out.factors] == [
        ([2, 1], 1),
        ([3, 1], 1),
    ]


def test_mod3_irreducible():
    out = factor_mod_p(UniPoly("x", [1, 0, 1]), 3)
    assert [(f.degree, m) for f, m in out.factors] == [(2, 1)]


def test_mod2_square():
    out = factor_mod_p(UniPoly("x", [0, 0, 1]), 2)
    assert [(list(map(int, f.coeffs)), m) for f, m in out.factors] == [([0, 1], 2)]


def test_modp_rejects_bad_input():
    with pytest.raises(DomainError):
        factor_mod_p(UniPoly("x", [1, 2]), 4)
    with pytest.raises(DomainError):
        factor_mod_p(UniPoly("x", [1, 3]), 3)  # lc vanishes mod 3


def test_modp_degree_sum():
    rng = random.Random(31)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 11])
        coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 6))] + [1]
        f = UniPoly("x", coeffs)
        out = factor_mod_p(f, p)
        assert sum(g.degree * m for g, m in out.factors) == f.degree


def test_dedekind_compatibility():
    """Rational factors reduce mod p to products of the mod-p factors."""
    from kronecker.polyring import discriminant

    rng = random.Random(37)
    candidates = [
        parse_poly("(x^2+x+1)*(x^2-2)"),
        parse_poly("(x-1)*(x^2+1)"),
        parse_poly("x^4 + x^2 + 1"),
        parse_poly("(x+2)*(x^2+x+1)"),
    ]
    for F in candidates:
        f = UniPoly.from_multipoly(F)
        disc = int(discriminant(F, "x").constant_value())
        for p in (5, 7, 11, 13):
            if disc % p == 0 or int(f.coeffs[-1]) % p == 0:
                continue
            modp = factor_mod_p(f, p)
            for g, _ in factor_univariate(F).factors:
                gp = tuple(int(c) % p for c in UniPoly.from_multipoly(g).coeffs)
                rem_deg = sum(1 for _ in gp)
                work = gp
                for h, m in modp.factors:
                    hh = tuple(int(c) for c in h.coeffs)
                    for _ in range(m):
                        quo, rem = quo_rem(work, hh, p)
                        if not rem and quo:
                            work = quo
                assert len(work) == 1  # reduced to a constant


def _brute_factor_mod_p(coeffs, p):
    """Monic irreducible factors with multiplicities by exhaustive trial
    division, with its own division loop: the reference for factor_mod_p."""

    def divide(a, b):  # b monic; (quotient, remainder is zero)
        a = list(a)
        quo = [0] * (len(a) - len(b) + 1)
        for k in reversed(range(len(quo))):
            c = a[k + len(b) - 1] % p
            quo[k] = c
            for j, y in enumerate(b):
                a[k + j] -= c * y
        return quo, all(x % p == 0 for x in a)

    inv = pow(coeffs[-1], -1, p)
    f = [c * inv % p for c in coeffs]
    out = []
    d = 1
    while len(f) - 1 >= 2 * d:
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            mult = 0
            while len(f) >= len(g):
                quo, exact = divide(f, g)
                if not exact:
                    break
                f, mult = [c % p for c in quo], mult + 1
            if mult:
                out.append((g, mult))
        d += 1
    if len(f) > 1:
        out.append((f, 1))
    return sorted(out)


def test_factor_mod_p_matches_trial_division():
    rng = random.Random(53)
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(25):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [rng.randrange(1, p)]
            got = factor_mod_p(UniPoly("x", coeffs), p)
            assert sorted(([int(c) for c in g.coeffs], m) for g, m in got.factors) == (
                _brute_factor_mod_p(coeffs, p)
            ), (coeffs, p)


def test_factor_mod_p_has_no_cap_on_the_prime_or_the_degree():
    f = UniPoly("x", [-1, -1, 0, 1])  # t^3 - t - 1 splits as 1 + 2 mod 1009
    out = factor_mod_p(f, 1009)
    assert [([int(c) for c in g.coeffs], m) for g, m in out.factors] == [
        ([560, 1], 1),
        ([809, 449, 1], 1),
    ]
    # x^16 - 1 over F_17 splits into the 16 linear factors x - a
    out = factor_mod_p(UniPoly("x", [-1] + [0] * 15 + [1]), 17)
    assert [[int(c) for c in g.coeffs] for g, _ in out.factors] == [[a, 1] for a in range(1, 17)]


def test_prime_decomposition_answers_beyond_the_old_prime_cap():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["prime-decomp", "--minpoly", "t^3 - t - 1", "--p", "1009"])
    assert rc == 0
    assert out.getvalue() == (
        "p=1009 f=1 local_factor=t + 560 form=(t + 560)*u1 + 1009 certified=true\n"
        "p=1009 f=2 local_factor=t^2 + 449*t + 809 form=(t^2 + 449*t + 809)*u2 + 1009 certified=true\n"
    )


# -- the modular route over Q -----------------------------------------------------


def _eisenstein(rng, max_degree):
    """A random polynomial irreducible over Q by Eisenstein's criterion at q."""
    q = rng.choice((2, 3, 5))
    lc = rng.choice([c for c in (1, 2, 3, 4) if c % q])
    const = q * rng.choice([c for c in (-2, -1, 1, 2) if c % q])
    middle = [q * rng.randint(-1, 1) for _ in range(rng.randint(0, max_degree - 1))]
    return UniPoly("x", [const] + middle + [lc])


def test_random_products_split_into_their_known_irreducible_factors():
    rng = random.Random(43)
    for _ in range(60):
        unit = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5]))
        F = UniPoly("x", [unit])
        expected = {}
        for _ in range(rng.randint(1, 4)):
            g, m = _eisenstein(rng, 8), rng.randint(1, 2)
            F = F * g**m
            key = str(g.content_primitive()[1])
            expected[key] = expected.get(key, 0) + m
        fact = factor_univariate(F)
        assert _multiset(fact) == sorted(expected.items()), str(F)
        assert UniPoly.from_multipoly(fact.expand()) == F


def test_random_products_agree_with_the_interpolation_search():
    rng = random.Random(47)
    for _ in range(30):
        while True:
            parts = [_eisenstein(rng, 8) for _ in range(rng.randint(1, 4))]
            if sum(g.degree for g in parts) <= 6:  # the search is exponential
                break
        F = UniPoly("x", [rng.choice([1, -1, 2])])
        for g in parts:
            F = F * g
        modular = factor_univariate(F)
        search = _factor_with(F, _factor_squarefree_interpolation)
        assert _multiset(modular) == _multiset(search), str(F)
        assert modular.unit == search.unit


SWINNERTON_DYER = (
    "x^4 - 10*x^2 + 1",  # sqrt(2) + sqrt(3)
    "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576",  # sqrt(2) + sqrt(3) + sqrt(5)
)


def _cyclotomic(n, known):
    """Phi_n from x^n - 1 = prod over d | n of Phi_d, by UniPoly.divmod."""
    f = UniPoly("x", [-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            f, r = f.divmod(known[d])
            assert r.is_zero
    return f


def test_x60_minus_1_splits_into_its_cyclotomic_factors():
    known = {}
    for n in range(1, 61):
        known[n] = _cyclotomic(n, known)
    expected = sorted(str(known[d]) for d in range(1, 61) if 60 % d == 0)
    fact = factor(parse_poly("x^60 - 1"))
    assert fact.unit == 1
    assert _multiset(fact) == [(text, 1) for text in expected]
    assert len(expected) == 12


@pytest.mark.parametrize("text", SWINNERTON_DYER)
def test_swinnerton_dyer_polynomials_split_mod_p_but_not_over_q(text):
    f = UniPoly.from_multipoly(parse_poly(text))
    # every prime splits them into factors of degree <= 2, so the
    # recombination must exhaust the subsets to prove irreducibility
    for p in (3, 5, 7, 11, 13, 101, 1009):
        assert max(g.degree for g, _ in factor_mod_p(f, p).factors) <= 2
    assert _multiset(factor_univariate(f)) == [(text, 1)]
    assert is_irreducible(f)
    square = factor_univariate(f * f * UniPoly("x", [-2, 0, 1]))
    assert _multiset(square) == sorted([(text, 2), ("x^2 - 2", 1)])


@pytest.mark.parametrize(
    "text, unit, factors",
    [
        ("6*x^5 - 9*x^3 + 12*x^2 - 18", 3, [("x^3 + 2", 1), ("2*x^2 - 3", 1)]),
        ("7/4*(2*x^2 - 3)*(3*x^3 + x - 5)", Fraction(7, 4), [("2*x^2 - 3", 1), ("3*x^3 + x - 5", 1)]),
        ("12*(x^2 - 2)^2*(5*x + 3)", 12, [("5*x + 3", 1), ("x^2 - 2", 2)]),
        ("1/6*x^3 - 1/6*x", Fraction(1, 6), [("x", 1), ("x + 1", 1), ("x - 1", 1)]),
        ("-(4*x^2 + 1)*(9*x^4 + 2)", -1, [("4*x^2 + 1", 1), ("9*x^4 + 2", 1)]),
        ("30*x^4 - 10*x^2 - 20", 10, [("x + 1", 1), ("x - 1", 1), ("3*x^2 + 2", 1)]),
    ],
)
def test_non_monic_rational_and_content_inputs(text, unit, factors):
    F = parse_poly(text)
    fact = factor_univariate(F)
    assert fact.unit == unit
    assert _multiset(fact) == sorted(factors)
    assert fact.expand() == F


def test_the_trivariate_product_answers_quickly():
    F = parse_poly("(x^2 + y + 1)*(x*y - 2)*(x + y^2 - 3)")
    t0 = time.perf_counter()
    fact = factor_multivariate(F)
    assert time.perf_counter() - t0 < 1.0
    assert _multiset(fact) == [("x*y - 2", 1), ("x^2 + y + 1", 1), ("y^2 + x - 3", 1)]


def _swinnerton_dyer(primes):
    """Integer coefficients of prod(x - sum(+-sqrt(p))), built one prime at
    a time as f(x - sqrt(p)) f(x + sqrt(p)) = A^2 - p B^2, where
    f(x - sqrt(p)) = A(x) + sqrt(p) B(x)."""
    f = [0, 1]
    for p in primes:
        parts = ([0] * len(f), [0] * len(f))
        for n, c in enumerate(f):
            for k in range(n + 1):
                parts[k % 2][n - k] += c * math.comb(n, k) * (-1) ** k * p ** (k // 2)
        a2, b2 = ([sum(u[i] * u[k - i] for i in range(k + 1) if i < len(u) and k - i < len(u))
                   for k in range(2 * len(f) - 1)] for u in parts)
        f = [x - p * y for x, y in zip(a2, b2)]
        while not f[-1]:
            f.pop()
    return f


def test_recombination_budget():
    sd8 = _swinnerton_dyer([2, 3, 5])
    assert sd8 == [576, 0, -960, 0, 352, 0, -40, 0, 1]
    # degree 16: 8 quadratic factors mod p, 162 subsets up to size 4
    sd16 = UniPoly("x", _swinnerton_dyer([2, 3, 5, 7]))
    assert len(factor_univariate(sd16).factors) == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorization, "RECOMBINATION_BUDGET", 100)
        with pytest.raises(DomainError, match="100 subsets"):
            factor_univariate(sd16)
    # degree 64: 32 factors mod p, refused before the subsets of size 5
    sd64 = UniPoly("x", _swinnerton_dyer([2, 3, 5, 7, 11, 13]))
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="32 modular factors"):
        factor_univariate(sd64)
    assert time.perf_counter() - t0 < 10.0


def test_sympy_factor_list_agrees():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def monic_multiset(pairs):
        out = []
        for g, m in pairs:
            g = sympy.Poly(sympy.sympify(str(g).replace("^", "**")), x)
            if g.degree() >= 1:
                out.append((str(g.monic().as_expr()), m))
        return sorted(out)

    rng = random.Random(59)
    for _ in range(40):
        F = UniPoly("x", [rng.choice([1, -2, 3])])
        for _ in range(rng.randint(1, 4)):
            F = F * UniPoly("x", [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 4)])
        fact = factor_univariate(F)
        unit, pairs = sympy.factor_list(sympy.sympify(str(F).replace("^", "**")), x)
        assert monic_multiset(fact.factors) == monic_multiset(pairs), str(F)
