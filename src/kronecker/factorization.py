"""Factorization over Q, and modulo a prime.

Univariate polynomials over Z are factored by the modular route of
Zassenhaus (1969), as in von zur Gathen and Gerhard, *Modern Computer
Algebra*, Alg. 15.19:

1. take the first prime p >= 3 that does not divide the leading
   coefficient and keeps f squarefree mod p;
2. split f mod p by distinct- and equal-degree factorization (Cantor and
   Zassenhaus 1981, in ``kronecker.modp``);
3. Hensel-lift the factors along a balanced factor tree (Alg. 15.17) to a
   modulus p^(2^k) above twice the bound B = sqrt(n + 1) 2^n |f|_oo |lc(f)|,
   which every coefficient of lc(f) times a monic factor obeys;
4. recombine: for subsets S of the lifted factors, smallest first, the
   symmetric residue of lc * prod(S) is tested for exact division of
   lc * f over Z; when every subset of at most half the factors fails,
   what is left is irreducible.
   The recombination tries at most RECOMBINATION_BUDGET = 2^16 subsets
   in all, and raises DomainError before it starts a subset size that
   could exceed it: a Swinnerton-Dyer polynomial of degree 32 (16 factors
   mod p) is answered, one of degree 64 (32 factors) is refused.

Kronecker's own univariate method, the interpolation search, stays as
``_factor_squarefree_interpolation``: a factor g of F satisfies
g(r) | F(r) at every integer r, so candidates come from divisor tuples of
the values at deg + 1 points and Lagrange interpolation.  It is exponential
and refuses squarefree cores above degree 12.  The tests use it as an
independent check of the modular route.

Multivariate polynomials reduce to the univariate case through Kronecker
substitution: the image's factors (at most 16) go through the same subset
loop, ``_recombine``, split by inverse substitution and exact division.
One frame, ``_factor_with``, serves both routes: content, squarefree split,
a factor route per part, and a check that the factors multiply back out.
"""

import itertools
from fractions import Fraction
from functools import partial
from math import comb, gcd, isqrt

from kronecker import modp, polyring, primes
from kronecker.errors import AlgebraError, DomainError
from kronecker.polyring import MultiPoly, UniPoly, content_primitive, parse_poly

UNIVARIATE_DEGREE_CAP = 12
IMAGE_FACTOR_CAP = 16
RECOMBINATION_BUDGET = 2**16


class Factorization:
    """unit * prod(factor^multiplicity) == the factored input, exactly.

    Factors are irreducible over Q, primitive with integer coefficients and
    positive graded-lex leading coefficient, sorted canonically.
    """

    def __init__(self, unit, factors):
        self.unit = Fraction(unit)
        self.factors = sorted(
            ((f, m) for f, m in factors),
            key=lambda fm: (fm[0].total_degree(), str(fm[0]), fm[1]),
        )

    def expand(self):
        out = MultiPoly.const(self.unit)
        for f, m in self.factors:
            out = out * f**m
        return out

    def __str__(self):
        if not self.factors:
            return str(self.unit)
        parts = [] if self.unit == 1 else [str(self.unit)]
        for f, m in self.factors:
            parts.append(f"({f})" + (f"^{m}" if m > 1 else ""))
        return " * ".join(parts)

    def __repr__(self):
        return f"Factorization({self})"


class ModPFactorization:
    """Monic irreducible factors of F modulo a prime, with multiplicities."""

    def __init__(self, p, factors):
        self.p = p
        self.factors = sorted(factors, key=lambda fm: (fm[0].degree, fm[0].num))

    def __str__(self):
        parts = [
            f"({f})" + (f"^{m}" if m > 1 else "") for f, m in self.factors
        ]
        return " * ".join(parts) + f"  (mod {self.p})"


# ---------------------------------------------------------------------------
# univariate over Z
# ---------------------------------------------------------------------------


def _eval_points():
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _interpolate(points, values):
    """Lagrange interpolation through (point, value) pairs, as a UniPoly."""
    x = UniPoly("x", [0, 1])
    total = UniPoly("x", [])
    for i, (xi, yi) in enumerate(zip(points, values)):
        if not yi:
            continue
        num = UniPoly("x", [yi])
        den = 1
        for j, xj in enumerate(points):
            if j != i:
                num = num * (x - xj)
                den *= xi - xj
        total = total + num * Fraction(1, den)
    return total


def _signed_divisors(n):
    """Divisors of n ordered by (abs, positive first); deterministic search order."""
    out = []
    for d in primes.divisors(n):
        out.append(d)
        out.append(-d)
    return out


def _extract_integer_roots(f):
    """Divide out all (x - r) found along the evaluation sequence; rational
    roots p/q of a primitive polynomial appear as (q*x - p)."""
    found = []
    cands = set()
    # rational root theorem on the primitive integer polynomial
    k0 = next(i for i, c in enumerate(f.num) if c)
    for _ in range(k0):
        found.append(UniPoly(f.variable, [0, 1]))
        f = f.div_exact(UniPoly(f.variable, [0, 1]))
    if f.degree >= 1:
        for pnum in primes.divisors(f.num[0]):
            for qden in primes.divisors(f.num[-1]):
                for s in (1, -1):
                    cands.add(Fraction(s * pnum, qden))
        for r in sorted(cands, key=lambda v: (abs(v), v < 0)):
            while f.degree >= 1 and not f.eval(r):
                lin = UniPoly(f.variable, [-r.numerator, r.denominator])
                f2 = f.div_exact(lin)
                if f2 is None:
                    break
                found.append(lin)
                f = f2
    return found, f


SEARCH_SPACE_CAP = 5_000_000


def _search_factor(f, degree):
    """First (in deterministic tuple order) degree-d factor of f, or None.

    f is primitive, squarefree, with integer coefficients and no rational
    roots, and f(r) != 0 on the evaluation points used.  Only
    _factor_squarefree_interpolation calls it: Kronecker's interpolation
    search, kept as the tests' reference for the modular route.
    """
    pts = []
    vals = []
    gen = _eval_points()
    while len(pts) < degree + 1:
        r = next(gen)
        v = f.eval(r)
        if v == 0:
            raise AlgebraError("rational roots must be extracted beforehand")
        pts.append(r)
        vals.append(int(v))
    lcf = f.num[-1]
    choice_lists = [_signed_divisors(v) for v in vals]
    space = 1
    for lst in choice_lists:
        space *= len(lst)
    if space > 2 * SEARCH_SPACE_CAP:
        raise DomainError(
            f"divisor-tuple search space too large at degree {degree} "
            f"({space} candidates)"
        )
    # candidate and -candidate give the same factor; pin the first entry > 0
    choice_lists[0] = [d for d in choice_lists[0] if d > 0]
    for tup in itertools.product(*choice_lists):
        cand = _interpolate(pts, tup)
        if cand.degree != degree:
            continue
        if cand.den != 1 or lcf % cand.num[-1]:
            continue
        if f.div_exact(cand) is not None:
            _, prim = cand.content_primitive()
            return prim
    return None


def _factor_squarefree_interpolation(f):
    """Irreducible factors of a primitive squarefree integer polynomial, by
    Kronecker's interpolation search.

    No route of the package calls it: it is the tests' reference for the
    modular route of _factor_squarefree, which factor_univariate takes.
    """
    factors, f = _extract_integer_roots(f)
    factors = [g.content_primitive()[1] for g in factors]
    if f.degree > UNIVARIATE_DEGREE_CAP:
        raise DomainError(
            f"interpolation factor search is limited to degree {UNIVARIATE_DEGREE_CAP}"
        )
    d = 1
    while f.degree >= 2 and d <= f.degree // 2:
        g = _search_factor(f, d)
        if g is None:
            d += 1
            continue
        factors.append(g)
        f = f.div_exact(g)
    if f.degree >= 1:
        factors.append(f.content_primitive()[1])
    return factors


def _good_prime(F):
    """The first prime p >= 3 that does not divide lc(F) and keeps the
    integer coefficient list F squarefree mod p."""
    p = 3
    while True:
        if F[-1] % p:
            f = modp.trim(F, p)
            if len(modp.gcd(f, modp.derivative(f, p), p)) == 1:
                return p
        p = primes.next_prime(p)


def _hensel_lift(F, factors, p, steps):
    """Monic lifts mod p^(2^steps) of the monic factors mod p, with
    F = lc(F) * prod(lifts) mod p^(2^steps), along a balanced factor tree.

    F = lc(F) * prod(factors) mod p, the factors pairwise coprime.  At each
    node the left product carries lc(F) and the right one is monic: the
    Hensel step divides by the right one.
    """
    if len(factors) == 1:
        m = p ** (2**steps)
        return [modp.monic(modp.trim(F, m), m)]
    k = len(factors) // 2
    g = [F[-1] % p]
    for f in factors[:k]:
        g = modp.mul(g, f, p)
    h = [1]
    for f in factors[k:]:
        h = modp.mul(h, f, p)
    s, t = modp.bezout(g, h, p)
    m = p
    for _ in range(steps):
        g, h, s, t = modp.hensel_step(F, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, factors[:k], p, steps) + _hensel_lift(h, factors[k:], p, steps)


def _primitive(f):
    """Primitive part of a nonzero integer coefficient list, lc > 0."""
    g = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [c // g for c in f]


def _recombine(rest, pool, split):
    """Irreducible factors of rest from subsets of pool, smallest first,
    then what is left (Alg. 15.19, step 8); both routes share this loop.

    ``split(rest, subset)`` returns (factor, cofactor) or None.  A hit drops
    its subset and retries the same size.  Sizes stop at half the pool: a
    subset and its complement give cofactors.  ``split`` is where a cheaper
    filter (the d - 1 coefficient test) or lattice proposals plug in.
    """
    out = []
    size = 1
    tried = 0
    while 2 * size <= len(pool):
        if tried + comb(len(pool), size) > RECOMBINATION_BUDGET:
            raise DomainError(
                f"recombination of {len(pool)} modular factors would try more "
                f"than {RECOMBINATION_BUDGET} subsets"
            )
        for subset in itertools.combinations(range(len(pool)), size):
            tried += 1
            hit = split(rest, [pool[i] for i in subset])
            if hit is not None:
                factor, rest = hit
                out.append(factor)
                pool = [f for i, f in enumerate(pool) if i not in subset]
                break
        else:
            size += 1
    out.append(rest)
    return out


def _modular_split(m, F, subset):
    """The primitive factor lc * prod(subset) mod m and its cofactor, when
    its symmetric residue divides lc * F over Z."""
    b = F[-1]
    g = [b % m]
    for f in subset:
        g = modp.mul(g, f, m)
    g = modp.symmetric(g, m)
    if g[0] and b * F[0] % g[0]:
        return None  # the constant terms rule the subset out cheaply
    q = polyring.exact_quotient([b * c for c in F], g)
    return None if q is None else (_primitive(g), _primitive(q))


def _factor_squarefree(f):
    """Irreducible factors of a primitive squarefree integer polynomial, by
    Zassenhaus's modular route."""
    F = f.num
    if len(F) <= 2:
        return [f]
    p = _good_prime(F)
    factors = modp.factor_squarefree(modp.monic(modp.trim(F, p), p), p)
    if len(factors) == 1:
        return [f]
    n = len(F) - 1
    bound = (isqrt(n + 1) + 1) * 2**n * max(map(abs, F)) * abs(F[-1])
    steps = 0
    while p ** (2**steps) <= 2 * bound:
        steps += 1
    lifted = _hensel_lift(F, factors, p, steps)
    split = partial(_modular_split, p ** (2**steps))
    return [UniPoly(f.variable, g) for g in _recombine(F, lifted, split)]


# ---------------------------------------------------------------------------
# multivariate via Kronecker substitution, and the frame both routes share
# ---------------------------------------------------------------------------


def _sqf_split_multi(f, name):
    """[(squarefree part, multiplicity)] of f with respect to one variable."""
    out = []
    g = polyring.gcd(f, f.derivative(name))
    s = f.div_exact(g)
    i = 1
    while g.degree(name) >= 1:
        y = polyring.gcd(s, g)
        z = s.div_exact(y)
        if z.total_degree() >= 1:
            out.append((z, i))
        s = y
        g = g.div_exact(y)
        i += 1
    if s.total_degree() >= 1:
        out.append((s, i))
    return out


def _substitution_split(codec, remaining, subset):
    """The primitive preimage of prod(subset) and its primitive cofactor,
    when the preimage divides remaining."""
    prod = subset[0]
    for u in subset[1:]:
        prod = prod * u
    cand = content_primitive(polyring.kronecker_inverse(prod, codec))[1]
    quo = remaining.div_exact(cand)
    return None if quo is None else (cand, content_primitive(quo)[1])


def _factor_squarefree_multi(f):
    """Irreducible factors of a primitive squarefree multivariate polynomial
    in >= 2 variables, by Kronecker substitution and subset recombination."""
    g = 1 + max(f.degree(v) for v in f.used_variables())
    reduced = f.with_variables(sorted(f.used_variables()))
    image, codec = polyring.kronecker_substitute(reduced, g)
    pool = []
    for poly, mult in factor_univariate(image).factors:
        pool.extend([UniPoly.from_multipoly(poly, image.variable)] * mult)
    if len(pool) > IMAGE_FACTOR_CAP:
        raise DomainError(
            f"Kronecker recombination is limited to {IMAGE_FACTOR_CAP} image factors"
        )
    return _recombine(f, pool, partial(_substitution_split, codec))


def _factor_with(F, split):
    """Factor a UniPoly or MultiPoly over Q: the content in the first used
    variable recursively, then each squarefree part in that variable, by
    ``split`` when univariate (the tests pass the interpolation search as an
    oracle) and by Kronecker substitution otherwise.  Graded lex is a
    monomial order, so lc(F) = unit * prod(lc(g)^m) in F's variable order.
    """
    if F.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    P = F.to_multipoly() if isinstance(F, UniPoly) else F
    used = sorted(P.used_variables())
    if not used:
        return Factorization(P.constant_value(), [])
    name = used[0]
    prim = content_primitive(P)[1]
    pieces = []
    if len(used) > 1:
        cont = polyring._content_in(prim, name)
        if cont.total_degree() >= 1:
            pieces.extend(_factor_with(cont, split).factors)
        prim = prim.div_exact(cont)
    for sqf, mult in _sqf_split_multi(prim, name):
        if len(sqf.used_variables()) == 1:
            sqf = UniPoly.from_multipoly(sqf, name).content_primitive()[1]
            pieces.extend((g.to_multipoly(), mult) for g in split(sqf))
        else:
            pieces.extend((g, mult) for g in _factor_squarefree_multi(content_primitive(sqf)[1]))
    unit = P.lc()
    for g, m in pieces:
        unit /= g.with_variables(P.variables).lc() ** m
    out = Factorization(unit, pieces)
    if out.expand() != P:
        raise AlgebraError("factors do not multiply back to the input")
    return out


def factor_univariate(F):
    """Factor a univariate polynomial over Q into irreducibles, by the
    modular route.

    Accepts UniPoly or univariate MultiPoly; rational coefficients are fine,
    the denominator folds into the unit.
    """
    if isinstance(F, MultiPoly):
        F = UniPoly.from_multipoly(F)
    return _factor_with(F, _factor_squarefree)


def factor_multivariate(F):
    """Factor a MultiPoly over Q into irreducibles."""
    return _factor_with(F, _factor_squarefree)


def factor(F):
    """Factor a polynomial or an expression string."""
    if isinstance(F, str):
        F = parse_poly(F)
    return factor_multivariate(F)


def is_irreducible(F):
    """True when F is irreducible over Q (positive degree required)."""
    fact = _factor_with(F, _factor_squarefree)
    return len(fact.factors) == 1 and fact.factors[0][1] == 1


# ---------------------------------------------------------------------------
# factorization modulo p
# ---------------------------------------------------------------------------


def factor_mod_p(F, p):
    """Factor F modulo a prime p into monic irreducibles with
    multiplicities: squarefree split, then distinct- and equal-degree
    factorization (``kronecker.modp``).  No cap on p or the degree."""
    if isinstance(F, MultiPoly):
        F = UniPoly.from_multipoly(F)
    if not primes.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if not F.has_integer_coeffs():
        raise DomainError("mod-p factorization needs integer coefficients")
    if not F.num or F.num[-1] % p == 0:
        raise DomainError("leading coefficient vanishes mod p")
    _, factors = modp.factor(F.num, p)
    out = ModPFactorization(p, [(UniPoly(F.variable, g), k) for g, k in factors])
    if sum(g.degree * k for g, k in out.factors) != F.degree:
        raise AlgebraError("mod-p factor degrees do not add up to the degree")
    return out
