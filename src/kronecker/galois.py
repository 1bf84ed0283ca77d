"""The splitting algebra and Galois groups read off the total resolvent.

For monic f of degree n the splitting algebra is the dimension-n! quotient
carrying universal roots x_1, ..., x_n; its basis is the monomial family
x_1^(h_1) * ... * x_(n-1)^(h_(n-1)) with h_k <= n-k, and the reduction data
is the cascade f_1 = f, f_(j+1) = f_j / (x - x_j) of universal synthetic
divisions.  The total resolvent of f at a weight vector u is the norm of
u_1 x_1 + ... + u_n x_n in this algebra, the characteristic polynomial of
multiplication by it:

    R(X) = prod over s in S_n of (X - v_s),  v_s = u_1 r_(s(1)) + ... + u_n r_(s(n)),

of degree n!, over the roots r_i of f.  Each coefficient of R is an integer
polynomial in u and the coefficients of f.  So once rational coefficients
and weights are scaled out, leaving a monic integral f and integral u, R is
read off roots modulo a prime power: at a prime p >= 3 where the squarefree
part of f splits into distinct linear factors, its roots mod p, the
linear factors x - a, are lifted along modp.hensel_lift's factor tree (von
zur Gathen and Gerhard, Alg. 15.17) to p-adic roots modulo the least
m = p^k > 2 max_k C(n!, k) beta^k, where beta = sum |u_i|
times an integer bound on the roots of f, and each is repeated by its
multiplicity in f.  Every v_s then has absolute value at most beta, so
the coefficient of X^(N-k) in a product of N of the factors X - v_s is at
most C(N, k) beta^k, and the product of all n! factors, taken modulo m and
lifted to the symmetric range, is R exactly.  Every such product over a set
of root sums, R itself and the orbit and coset polynomials below, is one
call to modp.from_roots: a product tree whose inner nodes are each one
integer product by Kronecker substitution (von zur Gathen and Gerhard, §8.4
and Alg. 10.3).  SplittingAlgebra builds the algebra itself; its
total_resolvent, the characteristic polynomial of multiplication, is the
definition and the reference the lifted roots are tested against.

The Galois group is found on the same p-adic roots (Stauduhar 1973; Geissler
and Kluners 2000), without forming R apart from its certificate.  The roots
of the monic integer model F of f are numbered by their residues mod a split
prime q in increasing order; a permutation s sends root i to root s(i), and
GaloisResult records q.

Split primes come from _split_primes.  A prime where F splits into distinct
linear factors makes disc(F), the product of (r_i - r_j)^2 over the roots
mod p, the square of a nonzero residue, so one pow of disc(F) passes over
about half the primes before the test that x^p = x mod F.  q must make the
n! root sums v_s distinct mod q, which needs q >= n! (pigeonhole), so
galois_group scans from the least prime >= max(3, n!) and finds the same q
as a scan from 3.

R is squarefree exactly when the v_s are distinct.  Let p0 be the first split
prime.  If the v_s are distinct mod p0, R is squarefree and q = p0.
Otherwise the roots are lifted at p0 to p0^K > (2 beta)^(n!), and R is
squarefree exactly when the v_s are distinct mod p0^K.  This is a norm
argument.  delta = v_s - v_t is an algebraic integer of the splitting field
L, and each of its conjugates, a difference of two root sums, has absolute
value at most 2 beta.  So its norm N(delta) is an integer of absolute value
at most (2 beta)^[L:Q] <= (2 beta)^(n!).  The lifted roots are the images of
the roots under an embedding of L into the p0-adic numbers, which exists
because p0 splits completely in L, unramified.  So if delta = 0 mod p0^K,
delta lies in the K-th power of a prime P of L above p0; the other factors
of N(delta) are algebraic integers, and v_P restricted to Z is v_p0, so
p0^K divides N(delta).  Then N(delta) = 0 and delta = 0.  Once R is
squarefree, q is the first split prime from p0 on where the v_s are
distinct mod q; only the finitely many primes dividing disc(R) fail.  At a
squarefree R the weights u stay; otherwise they are redrawn.

The group G is the first transitive subgroup H of S_n, in (order, elements)
order, that passes the coset certificate on the roots lifted at q to m =
q^k, the precision of R.  Every coset polynomial of H, the symmetric lift
mod m of the product of X - v_s over a right coset H s, is formed; the one
over H itself is the orbit polynomial g_H.  H passes when their integer
product P has every coefficient at most (m - 1)/2 in absolute value.  This
is a proof.  P = R mod m, and R's coefficients lie below m/2, so P = R.
Each coset polynomial is then a monic integer factor of R, and R mod q is a
product of distinct linear factors, so by Hensel uniqueness each is the
q-adic product over its coset itself.  G permutes the roots of g_H; v_e,
for the identity e, is one of them and t in G sends it to v_t, so t lies in
H, and G lies in H.  G passes too: its coset polynomials are integral, with
coefficients within the bounds C(|G|, k) beta^k below m/2, so their lifts
mod m are themselves and multiply to R.  So the first H accepted is G, and
P is R.  The answer is then checked: H is a transitive group, and |H| times
the number of cosets is n!.  H is proved a group by generator closure:
generators are picked from H in sorted order, each one the closure of the
earlier ones has not reached, and that closure, the group they generate,
must stay inside H and end up equal to it.

Two filters spare most certificates; neither can reject G.  Once H contains
G, the sum of v_s^k over s in H is fixed by G, so it is an integer, of
absolute value at most |H| beta^k, and its symmetric lift mod m is itself
wherever 2 |H| beta^k < m.  The power sums are tested from k = 2, because
for every transitive H the sum of the v_s, (|H|/n) (u_1 + ... + u_n) times
the sum of the roots, is rational.  Then g_H must have its coefficients
within C(|H|, k) beta^k.

The transitive subgroups of S_n come from one table of generators per
conjugacy class.  Each class's conjugates are the closures of its
generators conjugated by every s in S_n; an s whose conjugated generators
all lie in a conjugate already found gives that conjugate again, since
both groups have the same order, and costs no closure.
"""

import itertools
from fractions import Fraction
from math import comb, lcm

from kronecker import modp, primes
from kronecker.errors import AlgebraError, DomainError
from kronecker.factorization import is_irreducible
from kronecker.linalg import charpoly
from kronecker.polyring import MultiPoly, UniPoly, discriminant, parse_poly, poly_matrix_det

MAX_DEGREE = 5  # splitting dimension 120
MAX_ATTEMPTS = 20  # weight vectors galois_group tries for a squarefree resolvent

_FACT = [1, 1, 2, 6, 24, 120]


def _splittable(f):
    """f as a UniPoly, checked to have a splitting algebra here: monic, of
    degree 1 to MAX_DEGREE."""
    if isinstance(f, MultiPoly):
        f = UniPoly.from_multipoly(f)
    if f.degree < 1:
        raise DomainError("positive degree required")
    if f.degree > MAX_DEGREE:
        raise DomainError(f"splitting algebra capped at degree {MAX_DEGREE} (dimension 120)")
    if not f.is_monic():
        raise DomainError("splitting algebra requires a monic polynomial")
    return f


class SplittingAlgebra:
    """Q[x_1..x_n]/(symmetric relations of f), dimension n!.

    The definition of the total resolvent, as the norm of
    u_1 x_1 + ... + u_n x_n in this algebra, and the reference that
    resolvent_total_symmetric is checked against.  Its matrices have
    dimension n!, up to 120, so neither resolvent_total_symmetric nor
    galois_group builds it.
    """

    def __init__(self, f):
        f = _splittable(f)
        self.f = f
        n = self.n = f.degree
        self.dim = _FACT[n]
        self.variables = tuple(f"x{i}" for i in range(1, n))
        # cascade of universal synthetic divisions f_(j+1) = f_j / (x - x_j)
        self.cascade = []
        coeffs = [MultiPoly.const(c, self.variables) for c in f.coeffs]
        self.cascade.append(coeffs)
        for j in range(1, n):
            xj = MultiPoly.var(f"x{j}", self.variables)
            m = len(coeffs) - 1
            quo = [None] * m
            quo[m - 1] = coeffs[m]
            for i in range(m - 1, 0, -1):
                quo[i - 1] = coeffs[i] + xj * quo[i]
            coeffs = quo
            self.cascade.append(coeffs)
        # x_n in terms of the earlier variables: f_n is monic linear
        self.last_root = -self.cascade[n - 1][0]
        self.basis = sorted(
            itertools.product(*[range(n - k + 1) for k in range(1, n)])
        )
        self._index = {b: i for i, b in enumerate(self.basis)}
        # reduction rule per variable: x_j^(deg f_j) -> rest_j
        self._rules = []
        for j in range(1, n):
            xj = MultiPoly.var(f"x{j}", self.variables)
            fj = self.cascade[j - 1]
            rest = MultiPoly.zero(self.variables)
            for i, c in enumerate(fj[:-1]):
                rest = rest - c * xj**i
            self._rules.append((len(fj) - 1, rest))

    def reduce(self, p):
        """Canonical representative: every exponent of x_j below deg f_j."""
        p = p.with_variables(self.variables) if p.variables != self.variables else p
        for j in range(self.n - 1, 0, -1):
            name = f"x{j}"
            m, rest = self._rules[j - 1]
            while p.degree(name) >= m:
                d = p.degree(name)
                lead = p.coeffs_in(name)[d]
                xj = MultiPoly.var(name, self.variables)
                p = p - lead * xj**d + lead * xj ** (d - m) * rest
        return p

    def roots(self):
        """The universal roots x_1, ..., x_n as reduced algebra elements."""
        out = [MultiPoly.var(f"x{j}", self.variables) for j in range(1, self.n)]
        out.append(self.reduce(self.last_root))
        return out

    def elementary_symmetric(self, k):
        """e_k(x_1..x_n) reduced in the algebra."""
        rs = self.roots()
        total = MultiPoly.zero(self.variables)
        for combo in itertools.combinations(rs, k):
            prod = MultiPoly.const(1, self.variables)
            for r in combo:
                prod = prod * r
            total = total + prod
        return self.reduce(total)

    def multiplication_matrix(self, element):
        """Matrix of multiplication by a reduced element, basis-indexed."""
        elem = self.reduce(element)
        cols = []
        for b in self.basis:
            mono = MultiPoly.from_ints(self.variables, {b: 1})
            prod = self.reduce(elem * mono)
            col = [Fraction(0)] * self.dim
            for e, c in prod.num.items():
                col[self._index[e]] = Fraction(c, prod.den)
            cols.append(col)
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def total_resolvent(self, u):
        """The characteristic polynomial of multiplication by
        u_1 x_1 + ... + u_n x_n."""
        if len(u) != self.n:
            raise DomainError("need one weight per root")
        ell = MultiPoly.zero(self.variables)
        for ui, r in zip(u, self.roots()):
            ell = ell + r * Fraction(ui)
        return UniPoly("x", charpoly(self.multiplication_matrix(ell)))


def resolvent_total_symmetric(f, u):
    """The total resolvent of the monic f at the weights u: the degree-n!
    polynomial whose roots with multiplicity are the values
    u_1 r_(s(1)) + ... + u_n r_(s(n)) over all permutations s.

    Rational coefficients and weights are scaled out first.  f is monic, so
    its primitive part is f.num, of leading coefficient a = f.den, and the
    roots of F = _monic_integer_model(f) are a r_i.  With e the lcm of the
    weights' denominators and w = e u, the root sums of F at w are e a v_s,
    so R(X) = (ea)^(-N) R_(F,w)(eaX), N = n!.  R_(F,w) has integer
    coefficients and is the product of X - (w_1 a_(s(1)) + ... + w_n a_(s(n)))
    over roots a_i lifted modulo a prime power above twice every
    coefficient's bound, so it is exact.  Repeated roots need no other
    route: the roots of the squarefree part S of F are lifted at a prime p
    where S splits into distinct linear factors, and each is repeated by its
    multiplicity in F mod p.  S mod p is squarefree, so the squarefree
    factors of F stay coprime mod p, and that multiplicity is the one over
    Q.  The bound on the roots of F holds for them unchanged.
    """
    f = _splittable(f)
    if len(u) != f.degree:
        raise DomainError("need one weight per root")
    u = [Fraction(ui) for ui in u]
    e = lcm(*(ui.denominator for ui in u))
    w = [int(ui * e) for ui in u]
    F = _monic_integer_model(f)
    S = F.squarefree_part().num
    values, m = _lifted_root_sums(F.num, w, *next(_split_primes(S, 3)), S)
    scale = e * f.den
    R = _resolvent(values, m).num
    return UniPoly("x", [c * scale**j for j, c in enumerate(R)], scale ** len(values))


def _lifted_root_sums(F, u, p, residues, S=None):
    """(values, m): the root sums v_s of the monic integer coefficient list
    F at the integer weights u, in itertools order, over its roots lifted to
    m = p^k, the least prime power above twice every coefficient bound of
    the total resolvent.  S, the squarefree part of F and F itself by
    default, splits into distinct linear factors mod p, where its roots are
    the residues; its lifted roots are repeated by their multiplicities in
    F mod p."""
    size = _FACT[len(F) - 1]
    beta = _beta(F, u)
    roots, m = _numeric_roots(S or F, p, 2 * max(comb(size, j) * beta**j for j in range(size + 1)), residues)
    roots = [a for a in roots for _ in range(_multiplicity(F, a % p, p))]
    return _root_sums(roots, u, m), m


def _resolvent(values, m):
    """The total resolvent from the root sums modulo m.

    The coefficient of X^(N-k), N = n!, is up to sign the k-th elementary
    symmetric function of N values of absolute value at most beta, so its
    absolute value is at most C(N, k) beta^k.  It is an integer polynomial
    in the coefficients of F, so once F = prod (x - a_i) modulo m the
    product over the lifted roots a_i agrees with it modulo m.
    """
    return UniPoly("x", modp.symmetric(modp.from_roots(values, m), m))


def _beta(F, u):
    """A bound on |u_1 r_(s(1)) + ... + u_n r_(s(n))| over the roots r_i of F."""
    return sum(map(abs, u)) * _root_bound(F)


def _numeric_roots(F, p, bound, residues):
    """(roots, m): the roots of the monic F as p-adic numbers modulo m, the
    least power of p above bound, lifted from its simple roots mod p, the
    residues, in their order.  F = prod (x - a) mod p over the residues, and
    modp.hensel_lift lifts these linear factors."""
    lifts, m = modp.hensel_lift(F, [[-a % p, 1] for a in residues], p, bound)
    return [-g[0] % m for g in lifts], m


def _multiplicity(F, r, p):
    """The multiplicity of r as a root of F mod p."""
    f, k = modp.trim(F, p), 0
    while True:
        f, rest = modp.quo_rem(f, [-r % p, 1], p)
        if rest:
            return k
        k += 1


def _root_sums(a, u, m):
    """The values v_s = u_1 a_(s(1)) + ... + u_n a_(s(n)) mod m, over the
    permutations s in itertools order."""
    rows = [[ui * ai for ai in a] for ui in u]
    return [sum(map(list.__getitem__, rows, s)) % m for s in itertools.permutations(range(len(a)))]


def _split_primes(F, start):
    """(p, roots) for the primes p >= start, start >= 3, modulo which the
    monic squarefree F is a product of distinct linear factors, in
    increasing order, with the roots of F mod p sorted.  They are the p
    with x^p = x mod F, so that F divides x^p - x, which is squarefree mod
    p.  Such a p makes disc(F), the product of (r_i - r_j)^2 over the roots
    mod p, the square of a nonzero residue, so one pow of disc(F) passes
    over about half the primes before the test that x^p = x."""
    disc = int(discriminant(UniPoly("x", F).to_multipoly(), "x").constant_value())
    p = primes.next_prime(start - 1)
    while True:
        d = disc % p
        if d and pow(d, (p - 1) // 2, p) == 1:
            f = modp.trim(F, p)
            if modp.powmod([0, 1], p, f, p) == modp.rem([0, 1], f, p):
                yield p, modp.roots(f, p)
        p = primes.next_prime(p)


def _root_bound(F):
    """An integer bound on |r| for the roots r of the monic F: Fujiwara's
    2 max_k |a_(n-k)|^(1/k) (1916)."""
    n = len(F) - 1
    return 2 * max(_ceil_root(abs(F[n - k]), k) for k in range(1, n + 1))


def _ceil_root(a, k):
    """The least integer r >= 0 with r^k >= a, for a >= 0 and k >= 1."""
    lo, hi = 0, 1 << -(-a.bit_length() // k)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def _compose(a, b):
    """(a o b)(i) = a[b[i]] on 0-indexed image tuples."""
    return tuple(a[b[i]] for i in range(len(a)))


def _closure(gens, n):
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    gens = list(gens)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                c = _compose(h, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def _is_group(perms, n):
    """True when the permutations form a group: the closure of generators
    taken from them in sorted order, each one not yet reached, never leaves
    them and ends up reaching all of them.  The closure of a finite set of
    permutations is the group it generates, so this is a proof, at about
    |H| times the number of generators compositions instead of |H|^2."""
    elements = set(perms)
    gens = []
    reached = _closure(gens, n)
    for h in sorted(elements):
        if h not in reached:
            gens.append(h)
            reached = _closure(gens, n)
            if not reached <= elements:
                return False
    return reached == elements


def _is_transitive(perms, n):
    orbit = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for g in perms:
            if g[i] not in orbit:
                orbit.add(g[i])
                frontier.append(g[i])
    return len(orbit) == n


_subgroup_cache = {}

# One representative per conjugacy class of transitive subgroups of S_n,
# n <= 5, each given by generators (0-indexed image tuples).  The classes are
# those of Butler and McKay, "The transitive groups of degree up to eleven"
# (Comm. Algebra 11, 1983): 1, 1, 2, 5 and 5 classes for n = 1..5.
_TRANSITIVE_CLASSES = {
    1: [[(0,)]],
    2: [[(1, 0)]],
    3: [
        [(1, 2, 0)],  # C3
        [(1, 2, 0), (1, 0, 2)],  # S3
    ],
    4: [
        [(1, 2, 3, 0)],  # C4
        [(1, 0, 3, 2), (2, 3, 0, 1)],  # V4
        [(1, 2, 3, 0), (0, 3, 2, 1)],  # D4
        [(1, 2, 0, 3), (1, 0, 3, 2)],  # A4
        [(1, 2, 3, 0), (1, 0, 2, 3)],  # S4
    ],
    5: [
        [(1, 2, 3, 4, 0)],  # C5
        [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)],  # D5
        [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)],  # F20, x -> 2x mod 5
        [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],  # A5
        [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],  # S5
    ],
}


def _conjugate(h, s):
    """s h s^-1, which maps s(i) to s(h(i))."""
    out = [0] * len(h)
    for i, hi in enumerate(h):
        out[s[i]] = s[hi]
    return tuple(out)


def _transitive_subgroups(n):
    """All transitive subgroups of S_n for n <= 5, as sorted element lists,
    ordered by (order, elements).

    The conjugates of each representative in ``_TRANSITIVE_CLASSES``, the
    conjugacy classes of Butler and McKay (1983), are generated by the
    conjugated generators s g s^-1 over all n! permutations s.  An s whose
    conjugated generators all lie in a conjugate already found is passed
    over: they generate a subgroup of it of the same order, so the same
    group.  Every other s costs one closure.
    """
    if n in _subgroup_cache:
        return _subgroup_cache[n]
    if n not in _TRANSITIVE_CLASSES:
        raise DomainError(f"transitive subgroups are tabulated for degree <= {MAX_DEGREE}")
    out = []
    for gens in _TRANSITIVE_CLASSES[n]:
        found = []
        for s in itertools.permutations(range(n)):
            conjugated = [_conjugate(g, s) for g in gens]
            if not any(all(g in H for g in conjugated) for H in found):
                found.append(_closure(conjugated, n))
        out.extend(sorted(H) for H in found)
    out.sort(key=lambda H: (len(H), H))
    _subgroup_cache[n] = out
    return out


# ---------------------------------------------------------------------------
# Galois group extraction
# ---------------------------------------------------------------------------


class GaloisResult:
    """Permutations of the roots (1-indexed), resolvent and factor pattern.

    Root i is the i-th root of the monic integer model of f in increasing
    order of its residue mod the prime p; a permutation s, listed as the
    images (s(1), ..., s(n)), sends root i to root s(i).
    """

    def __init__(self, group, resolvent, factor_pattern, u, p):
        self.group = sorted(tuple(i + 1 for i in g) for g in group)
        self.order = len(group)
        self.resolvent = resolvent
        self.factor_pattern = factor_pattern
        self.u = tuple(u)
        self.p = p

    def to_json(self):
        return {
            "order": self.order,
            "elements": [list(g) for g in self.group],
            "factor_pattern": list(self.factor_pattern),
        }

    def __repr__(self):
        return f"GaloisResult(order={self.order}, pattern={self.factor_pattern})"


def _monic_integer_model(f):
    """Monic integer polynomial with the same splitting field and root order:
    a^(n-1) f(x/a) for the primitive part f of degree n and leading
    coefficient a, whose roots are a times those of f."""
    prim = f.content_primitive()[1]
    a, n = prim.num[-1], prim.degree
    return UniPoly(f.variable, [c * a ** (n - 1 - k) for k, c in enumerate(prim.num[:-1])] + [1])


def galois_group(f, u=None):
    """Galois group of an irreducible polynomial of degree <= 5.

    The roots of the monic integer model are found mod the first split
    prime p0 >= n!; u (default (0, 1, ..., n-1)) is redrawn until the total
    resolvent at u is squarefree, which holds when the n! root sums are
    distinct mod p0 and otherwise is decided on the roots lifted at p0 by
    _resolvent_is_squarefree.  The group is then read off the roots lifted
    at the first split prime q from p0 on where the root sums are distinct:
    see _identify_group and the module docstring for the proof.  The
    resolvent itself is never formed apart from that proof.
    """
    if isinstance(f, str):
        f = UniPoly.from_multipoly(parse_poly(f))
    if isinstance(f, MultiPoly):
        f = UniPoly.from_multipoly(f)
    n = f.degree
    if n < 1:
        raise DomainError("positive degree required")
    if n > MAX_DEGREE:
        raise DomainError(f"degree capped at {MAX_DEGREE}")
    if not is_irreducible(f):
        raise DomainError("polynomial is reducible: the group is defined for irreducible input")
    F = _monic_integer_model(f).num
    if u is None:
        u = tuple(range(n))
    u = tuple(int(x) for x in u)
    if len(u) != n:
        raise DomainError("need one weight per root")
    split = _split_primes(F, max(3, _FACT[n]))
    p0, residues = next(split)
    for _ in range(MAX_ATTEMPTS):
        if _distinct(_root_sums(residues, u, p0)):
            return _identify_group(F, u, p0, residues)
        if _resolvent_is_squarefree(F, u, p0, residues):
            return _identify_group(F, u, *next((q, r) for q, r in split if _distinct(_root_sums(r, u, q))))
        # component-dependent increments; i*i breaks the arithmetic
        # progressions that stay degenerate for root sets symmetric about 0
        u = tuple(ui + i * i for i, ui in enumerate(u))
    raise AlgebraError(f"no squarefree resolvent in {MAX_ATTEMPTS} weight vectors")


def _distinct(values):
    """True when no two of the values are equal."""
    return len(set(values)) == len(values)


def _resolvent_is_squarefree(F, u, p, residues):
    """True when the total resolvent of the monic squarefree F at the
    integer weights u is squarefree: when the root sums, on the roots
    lifted at the split prime p, are distinct mod p^K > (2 beta)^(n!).
    The module docstring gives the norm argument that makes this exact."""
    roots, m = _numeric_roots(F, p, (2 * _beta(F, u)) ** _FACT[len(F) - 1], residues)
    return _distinct(_root_sums(roots, u, m))


def _identify_group(F, u, p, residues):
    """The Galois group of the monic irreducible F at the weights u, on
    its roots lifted at the split prime p, where the root sums at u are
    distinct mod p, to m = p^k above twice every coefficient bound of the
    resolvent.  The transitive subgroups H are tried in order; the power
    sums and the orbit polynomial's coefficient bounds are filters, and the
    coset certificate decides: the first H whose coset polynomials multiply
    over Z to a polynomial with every coefficient at most (m - 1)/2 in
    absolute value is the group, and that product is the resolvent."""
    n = len(F) - 1
    values, m = _lifted_root_sums(F, u, p, residues)
    values = dict(zip(itertools.permutations(range(n)), values))
    beta = _beta(F, u)
    for H in _transitive_subgroups(n):
        if not _power_sums_fit(H, values, beta, m):
            continue
        g = _orbit_polynomial(values, H, m)
        if not _within_bounds(g, beta):
            continue
        cosets = _coset_polynomials(H, g, values, m)
        product = _certified_product(cosets, m)
        if product is None:
            continue
        if not (_is_group(H, n) and _is_transitive(H, n)):
            raise AlgebraError("the subgroup is not a transitive group")
        if len(H) * len(cosets) != _FACT[n]:
            raise AlgebraError("the subgroup order times the coset count is not n!")
        return GaloisResult(H, product, sorted(len(c) - 1 for c in cosets), u, p)
    raise AlgebraError("no transitive subgroup passes the coset certificate")


def _power_sums_fit(H, values, beta, m):
    """True when, for k = 2..n, the symmetric lift mod m of the sum of
    v_s^k over s in H is at most |H| beta^k in absolute value, as it is
    once H contains the group, wherever 2 |H| beta^k < m makes that a test.
    Only a filter: the coset certificate decides."""
    first = [values[s] for s in H]
    power = first
    for k in range(2, len(H[0]) + 1):
        power = [a * b % m for a, b in zip(power, first)]
        bound = len(H) * beta**k
        if 2 * bound < m:
            total = sum(power) % m
            if min(total, m - total) > bound:
                return False
    return True


def _within_bounds(g, beta):
    """True when the coefficient of X^(N-k) in g, of degree N, is at most
    C(N, k) beta^k in absolute value, as in every product of N factors
    X - v_s.  Only a filter: the coset certificate decides."""
    size = len(g) - 1
    return all(abs(c) <= comb(size, j) * beta**j for j, c in enumerate(reversed(g)))


def _orbit_polynomial(values, perms, m):
    """The symmetric lift mod m of the product of X - v_s over the s given."""
    return modp.symmetric(modp.from_roots([values[s] for s in perms], m), m)


def _coset_polynomials(H, g, values, m):
    """The orbit polynomials of the right cosets H s, in the order of their
    first elements among the values; the first, of H itself, is g."""
    out = [g]
    covered = set(H)
    for sigma in values:
        if sigma in covered:
            continue
        coset = [_compose(h, sigma) for h in H]
        covered.update(coset)
        out.append(_orbit_polynomial(values, coset, m))
    return out


def _certified_product(polys, m):
    """The product over Z of the coset polynomials if every coefficient is
    at most (m - 1)/2 in absolute value, else None.  It is a tree of
    pairwise products, and a node past that bound ends it: each node
    divides the product, so if the product is the resolvent, each node is
    a monic factor of it, with roots among the v_s and so coefficients at
    most C(N, k) beta^k, below m/2 as the resolvent's are."""
    level = [UniPoly("x", c) for c in polys]
    while len(level) > 1:
        level = [a * b for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1 :]
        if any(2 * abs(c) >= m for f in level for c in f.num):
            return None
    return level[0]


# ---------------------------------------------------------------------------
# the genus-discriminant identity det^2 = D^(n!/2)
# ---------------------------------------------------------------------------


def genus_disc_identity(n):
    """Square of the basis-conjugates determinant against the discriminant
    power: builds the n! x n! matrix of permuted basis monomials in
    indeterminate roots, returns (det^2, D^(n!/2), equal)."""
    if n not in (2, 3):
        raise DomainError("identity is computed symbolically for n = 2 and 3")
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    basis = sorted(itertools.product(*[range(n - k + 1) for k in range(1, n)]))
    perms = sorted(itertools.permutations(range(n)))
    rows = []
    for sigma in perms:
        row = []
        for b in basis:
            exps = [0] * n
            for k, h in enumerate(b):
                exps[sigma[k]] += h
            row.append(MultiPoly.from_ints(variables, {tuple(exps): 1}))
        rows.append(row)
    det = poly_matrix_det(rows)
    lhs = det * det
    disc = MultiPoly.const(1, variables)
    for i in range(n):
        for j in range(i + 1, n):
            diff = MultiPoly.var(variables[i], variables) - MultiPoly.var(
                variables[j], variables
            )
            disc = disc * diff * diff
    rhs = disc ** (_FACT[n] // 2)
    return lhs, rhs, lhs == rhs
