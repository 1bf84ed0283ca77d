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
   lc * f over Z; when every subset fails, what is left is irreducible.
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
substitution, with factors of the image recombined over subsets and
verified by inverse substitution and exact division (at most 16 image
factors).  Every factorization is checked by multiplying it back out.
"""

import itertools
from fractions import Fraction
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

    def factor_multiset(self):
        return sorted((str(f), m) for f, m in self.factors)

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


def _recombine(F, lifted, m):
    """Irreducible factors over Z of the primitive F from its monic factors
    mod m, by subsets of increasing size (Alg. 15.19, step 8)."""
    out = []
    size = 1
    tried = 0
    while 2 * size <= len(lifted):
        if tried + comb(len(lifted), size) > RECOMBINATION_BUDGET:
            raise DomainError(
                f"recombination of {len(lifted)} modular factors would try more "
                f"than {RECOMBINATION_BUDGET} subsets"
            )
        b = F[-1]
        for subset in itertools.combinations(range(len(lifted)), size):
            tried += 1
            g = [b % m]
            for i in subset:
                g = modp.mul(g, lifted[i], m)
            g = modp.symmetric(g, m)
            if g[0] and b * F[0] % g[0]:
                continue  # the constant terms rule the subset out cheaply
            q = polyring.exact_quotient([b * c for c in F], g)
            if q is not None:
                out.append(_primitive(g))
                F = _primitive(q)
                lifted = [f for i, f in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    out.append(F)
    return out


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
    return [UniPoly(f.variable, g) for g in _recombine(F, lifted, p ** (2**steps))]


def factor_univariate(F):
    """Factor a univariate polynomial over Q into irreducibles, by the
    modular route.

    Accepts UniPoly or univariate MultiPoly; rational coefficients are fine,
    the denominator folds into the unit.
    """
    return _factor_univariate_with(F, _factor_squarefree)


def _factor_univariate_with(F, split):
    """factor_univariate with ``split`` factoring each primitive squarefree
    part; the tests pass ``_factor_squarefree_interpolation`` as an oracle."""
    if isinstance(F, MultiPoly):
        F = UniPoly.from_multipoly(F)
    if F.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    unit, prim = F.content_primitive()
    if prim.degree == 0:
        return Factorization(unit, [])
    pieces = []
    for sqf, mult in _sqf_split_multi(prim.to_multipoly(), F.variable):
        sqf = UniPoly.from_multipoly(sqf, F.variable).content_primitive()[1]
        for g in split(sqf):
            pieces.append((g, mult))
    # account for signs/contents produced by the splits
    rebuilt = UniPoly(F.variable, [1])
    for g, m in pieces:
        rebuilt = rebuilt * g**m
    unit = F.lc() / rebuilt.lc()
    out = Factorization(unit, [(g.to_multipoly(), m) for g, m in pieces])
    if UniPoly.from_multipoly(out.expand(), F.variable) != F:
        raise AlgebraError("factors do not multiply back to the input")
    return out


# ---------------------------------------------------------------------------
# multivariate via Kronecker substitution
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


def _factor_squarefree_multi(f):
    """Irreducible factors of a primitive squarefree multivariate polynomial
    in >= 2 variables, by Kronecker substitution and subset recombination."""
    g = 1 + max(f.degree(v) for v in f.used_variables())
    reduced = f.with_variables(sorted(f.used_variables()))
    image, codec = polyring.kronecker_substitute(reduced, g)
    img_fact = factor_univariate(image)
    pool = []
    for poly, mult in img_fact.factors:
        pool.extend([UniPoly.from_multipoly(poly, image.variable)] * mult)
    if len(pool) > IMAGE_FACTOR_CAP:
        raise DomainError(
            f"Kronecker recombination is limited to {IMAGE_FACTOR_CAP} image factors"
        )
    factors = []
    remaining = f
    indices = list(range(len(pool)))
    size = 1
    while indices and remaining.total_degree() >= 1:
        if size >= len(indices):
            factors.append(content_primitive(remaining)[1])
            break
        hit = None
        for combo in itertools.combinations(indices, size):
            prod = UniPoly(image.variable, [1])
            for i in combo:
                prod = prod * pool[i]
            cand = content_primitive(polyring.kronecker_inverse(prod, codec))[1]
            if cand.total_degree() < 1:
                continue
            quo = remaining.div_exact(cand)
            if quo is not None:
                hit = (combo, cand, quo)
                break
        if hit is None:
            size += 1
            continue
        combo, cand, quo = hit
        factors.append(cand)
        remaining = quo
        indices = [i for i in indices if i not in combo]
        # factors smaller than the current size are already exhausted
    else:
        if remaining.total_degree() >= 1:
            factors.append(content_primitive(remaining)[1])
    return factors


def factor_multivariate(F):
    """Factor a MultiPoly over Q into irreducibles."""
    if F.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    if F.is_constant:
        return Factorization(F.constant_value(), [])
    used = sorted(F.used_variables())
    if len(used) == 1:
        return factor_univariate(F)
    unit, prim = content_primitive(F)
    name = used[0]
    pieces = []
    # split off the part free of the chosen variable, then squarefree-split
    cont = polyring._content_in(prim, name)
    pp = prim.div_exact(cont)
    if cont.total_degree() >= 1:
        sub = factor_multivariate(cont)
        unit *= sub.unit
        pieces.extend(sub.factors)
    else:
        unit *= cont.constant_value()
    for sqf, mult in _sqf_split_multi(pp, name):
        sqf = content_primitive(sqf)[1]
        if len(sqf.used_variables()) == 1:
            sub = factor_univariate(sqf)
            pieces.extend((f, m * mult) for f, m in sub.factors)
        else:
            for g in _factor_squarefree_multi(sqf):
                pieces.append((g, mult))
    rebuilt = MultiPoly.const(1, F.variables)
    for g, m in pieces:
        rebuilt = rebuilt * g**m
    quo = F.div_exact(rebuilt)
    if quo is None or not quo.is_constant:
        raise AlgebraError("re-expansion must recover the input")
    out = Factorization(quo.constant_value(), pieces)
    return out


def factor(F):
    """Factor a polynomial or an expression string."""
    if isinstance(F, str):
        F = parse_poly(F)
    if isinstance(F, UniPoly):
        return factor_univariate(F)
    return factor_multivariate(F)


def is_irreducible(F):
    """True when F is irreducible over Q (positive degree required)."""
    if isinstance(F, MultiPoly):
        fact = factor_multivariate(F)
    else:
        fact = factor_univariate(F)
    return len(fact.factors) == 1 and fact.factors[0][1] == 1 and (
        fact.factors[0][0].total_degree() >= 1
    )


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
