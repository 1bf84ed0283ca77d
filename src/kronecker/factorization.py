"""Effective factorization over Q by interpolation search.

Univariate polynomials are factored by evaluating at small integers,
enumerating divisor tuples of the values, and Lagrange-interpolating
candidate factors: a factor f of F satisfies f(r) | F(r) at every integer r,
so only finitely many candidates exist.  Multivariate polynomials reduce to
the univariate case through Kronecker substitution, with factors of the
image recombined over subsets and verified by inverse substitution and exact
division.  The method is exponential; it is kept at desk scale on purpose
(degree cap 12 for the univariate search, 16 image factors for the
recombination).
"""

import itertools
from fractions import Fraction

from kronecker import primes
from kronecker.errors import AlgebraError, DomainError
from kronecker.polyring import MultiPoly, UniPoly, content_primitive, parse_poly
from kronecker import polyring

UNIVARIATE_DEGREE_CAP = 12
IMAGE_FACTOR_CAP = 16
MODP_PRIME_CAP = 997
MODP_DEGREE_CAP = 8


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
        self.factors = sorted(factors, key=lambda fm: (fm[0].degree, fm[0].coeffs))

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
    k0 = next(i for i, c in enumerate(f.coeffs) if c)
    for _ in range(k0):
        found.append(UniPoly(f.variable, [0, 1]))
        f = f.div_exact(UniPoly(f.variable, [0, 1]))
    if f.degree >= 1:
        for pnum in primes.divisors(int(f.coeffs[0].numerator) or 1):
            for qden in primes.divisors(int(f.coeffs[-1].numerator)):
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
    roots, and f(r) != 0 on the evaluation points used.
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
    lcf = int(f.coeffs[-1])
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
        if any(c.denominator != 1 for c in cand.coeffs):
            continue
        if lcf % int(cand.coeffs[-1]):
            continue
        if f.div_exact(cand) is not None:
            _, prim = cand.content_primitive()
            return prim
    return None


def _factor_squarefree(f, cap=UNIVARIATE_DEGREE_CAP):
    """Irreducible factors of a primitive squarefree integer polynomial."""
    factors, f = _extract_integer_roots(f)
    factors = [g.content_primitive()[1] for g in factors]
    if f.degree >= 1 and f.degree > cap:
        raise DomainError(
            f"interpolation factor search is limited to degree {cap}"
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


def factor_univariate(F, _cap=UNIVARIATE_DEGREE_CAP):
    """Factor a univariate polynomial over Q into irreducibles.

    Accepts UniPoly or univariate MultiPoly; rational coefficients are fine,
    the denominator folds into the unit.  The interpolation search refuses
    squarefree cores above degree 12; the multivariate route passes a larger
    internal cap, relying on the divisor-tuple budget for safety.
    """
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
        for g in _factor_squarefree(sqf, _cap):
            pieces.append((g, mult))
    # account for signs/contents produced by the greedy splits
    rebuilt = UniPoly(F.variable, [1])
    for g, m in pieces:
        rebuilt = rebuilt * g**m
    unit = F.coeffs[-1] / rebuilt.coeffs[-1]
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
    img_fact = factor_univariate(image, _cap=4 * UNIVARIATE_DEGREE_CAP)
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
# factorization modulo p by exhaustive trial division
# ---------------------------------------------------------------------------


def _modp_norm(f, p):
    out = [int(c) % p for c in f]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _modp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _modp_norm(out, p)


def _modp_sub(a, b, p):
    return _modp_norm([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)], p)


def _modp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("mod-p division by zero")
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    if len(rem) - 1 < db:
        return (), tuple(rem)
    quo = [0] * (len(rem) - db)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db] * inv % p
        quo[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] = (rem[k + j] - c * y) % p
    return _modp_norm(quo, p), _modp_norm(rem, p)


def _modp_ext_euclid(a, b, p):
    """(A, B, C) with A*a + B*b = C (a nonzero constant) mod p, for coprime a, b."""
    r0, r1 = _modp_norm(a, p), _modp_norm(b, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while len(r1) - 1 > 0:
        q, r = _modp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _modp_sub(s0, _modp_mul(q, s1, p), p)
        t0, t1 = t1, _modp_sub(t0, _modp_mul(q, t1, p), p)
    if not r1:
        raise AlgebraError("polynomials are not coprime mod p")
    return s1, t1, r1[0]


def _modp_monic_candidates(d, p):
    """All monic degree-d polynomials over Z/p, lexicographic in the
    coefficient tuple read from the constant term up."""
    for m in range(p**d):
        coeffs = []
        x = m
        for _ in range(d):
            coeffs.append(x % p)
            x //= p
        yield tuple(coeffs) + (1,)


def factor_mod_p(F, p):
    """Factor F modulo a prime by trial division over Z/p.

    Exhaustive over all monic candidates of degree <= deg/2, so bounded to
    p <= 997 and deg <= 8.
    """
    if isinstance(F, MultiPoly):
        F = UniPoly.from_multipoly(F)
    if not primes.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p > MODP_PRIME_CAP or F.degree > MODP_DEGREE_CAP:
        raise DomainError(
            f"factor_mod_p is bounded to p <= {MODP_PRIME_CAP} and degree <= {MODP_DEGREE_CAP}"
        )
    if not F.has_integer_coeffs():
        raise DomainError("mod-p factorization needs integer coefficients")
    if int(F.coeffs[-1]) % p == 0:
        raise DomainError("leading coefficient vanishes mod p")
    var = F.variable
    f = _modp_norm([int(c) for c in F.coeffs], p)
    # make monic
    inv = pow(f[-1], -1, p)
    f = tuple(c * inv % p for c in f)
    factors = []
    d = 1
    while len(f) - 1 >= 2 * d:
        found = False
        for cand in _modp_monic_candidates(d, p):
            quo, rem = _modp_divmod(f, cand, p)
            if rem:
                continue
            mult = 1
            f = quo
            while True:
                quo, rem = _modp_divmod(f, cand, p)
                if rem:
                    break
                f = quo
                mult += 1
            factors.append((cand, mult))
            found = True
            break
        if not found:
            d += 1
    if len(f) - 1 >= 1:
        factors.append((f, 1))
    out = ModPFactorization(
        p, [(UniPoly(var, c), m) for c, m in factors]
    )
    total = sum(g.degree * m for g, m in out.factors)
    if total != F.degree:
        raise AlgebraError("mod-p factor degrees do not add up to the degree")
    return out
