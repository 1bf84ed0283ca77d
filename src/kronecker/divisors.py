"""Divisor arithmetic in monogenic orders: forms in adjoined indeterminates.

A divisor is represented by a form D = sum_e c_e u^e in fresh indeterminates
u1, u2, ... whose coefficients c_e are algebraic integers of a number field
of degree n with generator theta.  A DivisorForm carries D as one MultiPoly
in (theta, u1, u2, ...) of theta-degree below n, so in the normal form that
MultiPoly, UniPoly and numberfield.AlgNum share: integer terms over one
positive denominator.  A product is a MultiPoly product reduced modulo the
defining polynomial f.

Every divisor quantity is read off the multiplication matrix M_D, the n x n
matrix over Q[u] of y -> D*y in the power basis, M_D = sum_e u^e M(c_e)
(Edwards, Divisor Theory, Birkhauser 1990):

* the norm Nm(D), the product of the conjugate forms, is det M_D; its
  content and the primitive cofactor Fm (content * Fm = Nm) drive
  everything else,
* the first column of the adjugate, C_i = (-1)^i det(minor(M_D, 0, i)),
  gives the form C = sum_i C_i theta^i with D*C = Nm(D),
* divisibility: D divides G iff the quotient Q = G*Fm(D)/D = G*C/content
  is again a form with algebraic integer coefficients.  The equivalent
  characteristic-equation criterion asks that Nm(X*D - G*Fm(D)) be
  divisible by Nm(D) with integer quotient coefficients; the norm is
  multiplicative, so Nm(X*D - G*Fm(D)) = Nm(D)*Nm(X - Q) and that quotient
  is the characteristic polynomial of M_Q.  Both are computed from Q and
  required to agree on every call,
* units are the forms of norm content 1,
* the gcd of algebraic integers x1, ..., xk is the linear form
  x1*u1 + ... + xk*uk,
* an unramified rational prime decomposes into the forms p + u_i*f_i(theta)
  built from the irreducible factors of the defining polynomial modulo p,
  with Bezout coprimality witnesses and a mutual-divisibility certificate
  for the product.

The base ring is Z throughout (monogenic order Z[theta], p never dividing
the polynomial discriminant), which is exactly the hypothesis under which
the prime-decomposition algorithm is provably correct.
"""

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm

from kronecker import linalg, modp, primes
from kronecker.errors import AlgebraError, DomainError
from kronecker.numberfield import AlgNum, is_integral
from kronecker.polyring import MultiPoly, UniPoly, poly_matrix_det, power


class DivisorForm:
    """Form D = sum_e c_e u^e with coefficients in one number field of
    degree n.

    Carried as ``poly``, one MultiPoly in (theta, *unames) of theta-degree
    below n, in the normal form that MultiPoly, UniPoly and AlgNum share;
    ``unames`` names the indeterminates u.  Its multiplication matrix M_D
    gives Nm(D) = det M_D, and the first column of its adjugate the form C
    with D*C = Nm(D).
    """

    __slots__ = ("field", "unames", "poly")

    def __init__(self, field, unames, coeffs):
        """coeffs maps u-exponent tuples to AlgNums, ints or Fractions."""
        coeffs = {e: c if isinstance(c, AlgNum) else field.element([c]) for e, c in coeffs.items()}
        den = int_lcm(*(c.den for c in coeffs.values()))
        num = {}
        for e, c in coeffs.items():
            scale = den // c.den
            for k, a in enumerate(c.num):
                if a:
                    num[(k,) + tuple(e)] = a * scale
        D = _form(field, MultiPoly.from_ints((field.minpoly.variable,) + tuple(unames), num, den))
        self.field, self.unames, self.poly = D.field, D.unames, D.poly

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, field, value):
        return cls(field, (), {(): value})

    @classmethod
    def linear(cls, elements, unames=None):
        """x1*u1 + ... + xk*uk with fresh indeterminates."""
        if not elements:
            raise DomainError("empty element list")
        if unames is None:
            unames = tuple(f"u{i + 1}" for i in range(len(elements)))
        k = len(elements)
        coeffs = {tuple(int(i == j) for j in range(k)): x for i, x in enumerate(elements)}
        return cls(elements[0].field, unames, coeffs)

    @classmethod
    def from_multipoly(cls, field, p, unames=None):
        """Parse a MultiPoly in the generator variable plus indeterminates."""
        tvar = field.minpoly.variable
        if unames is None:
            unames = tuple(v for v in p.variables if v != tvar)
        return _form(field, p.with_variables((tvar,) + tuple(unames)))

    # -- coefficients ----------------------------------------------------------

    def _columns(self):
        """{u-exponent: theta-coefficient list of length n} over poly.den."""
        n = self.field.degree
        out = {}
        for e, c in self.poly.num.items():
            out.setdefault(e[1:], [0] * n)[e[0]] = c
        return out

    @property
    def coeffs(self):
        """{u-exponent: AlgNum coefficient}."""
        den = self.poly.den
        return {e: self.field._reduce(v, den) for e, v in self._columns().items()}

    def is_integral_form(self):
        """Over den = 1 the form lies in Z[theta][u]; otherwise each
        coefficient is tested."""
        return self.poly.den == 1 or all(is_integral(c) for c in self.coeffs.values())

    # -- arithmetic --------------------------------------------------------------

    def _other(self, other):
        """other as a form over self's field."""
        other = _as_form(self.field, other)
        if other.field != self.field:
            raise DomainError("forms belong to different fields")
        return other

    def __add__(self, other):
        return _form(self.field, self.poly + self._other(other).poly)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _form(self.field, self.poly * other)
        return _form(self.field, self.poly * self._other(other).poly)

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, DivisorForm.constant(self.field, 1))

    def __eq__(self, other):
        if not isinstance(other, DivisorForm):
            return NotImplemented
        return self.poly == self._other(other).poly

    def __hash__(self):
        return hash((self.field, self.poly))

    # -- conversions ----------------------------------------------------------------

    def conj_quadratic(self):
        return DivisorForm(self.field, self.unames, {e: c.conj_quadratic() for e, c in self.coeffs.items()})

    def __str__(self):
        tvar = self.field.minpoly.variable
        den = self.poly.den
        chunks = []
        for e, v in sorted(self._columns().items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            mono = "*".join(u if k == 1 else f"{u}^{k}" for u, k in zip(self.unames, e) if k)
            body = str(MultiPoly.from_ints((tvar,), {(k,): a for k, a in enumerate(v) if a}, den))
            if " " in body:
                body = f"({body})"
            if mono:
                chunk = mono if body == "1" else ("-" + mono if body == "-1" else f"{body}*{mono}")
            else:
                chunk = body
            chunks.append(chunk)
        return " + ".join(chunks)

    def __repr__(self):
        return f"DivisorForm({self})"


def _form(field, poly):
    """The form of a MultiPoly in (theta, *unames), reduced modulo f."""
    if poly.variables[0] in poly.variables[1:]:
        raise AlgebraError("indeterminate names must avoid the generator variable")
    num = _reduce_terms(field, poly.num)
    if not num:
        raise AlgebraError("a divisor form needs at least one nonzero coefficient")
    D = object.__new__(DivisorForm)
    D.field, D.unames = field, poly.variables[1:]
    D.poly = poly if num is poly.num else MultiPoly.from_ints(poly.variables, num, poly.den)
    return D


def _reduce_terms(field, num):
    """The integer term map num in (theta, *u) reduced modulo f: every
    theta^k with k >= n is replaced by its row of the field's power table;
    num itself when no such term occurs."""
    n = field.degree
    top = max((e[0] for e in num), default=0)
    if top < n:
        return num
    rows = field._power_rows(top - n + 1)
    out = {}
    for e, c in num.items():
        if e[0] < n:
            out[e] = out.get(e, 0) + c
            continue
        rest = e[1:]
        for i, r in enumerate(rows[e[0] - n]):
            if r:
                key = (i,) + rest
                out[key] = out.get(key, 0) + c * r
    return {e: c for e, c in out.items() if c}


def _as_form(field, x):
    if isinstance(x, DivisorForm):
        return x
    return DivisorForm.constant(field, x)


# ---------------------------------------------------------------------------
# multiplication matrix: norm, content, Fm, cofactor
# ---------------------------------------------------------------------------


def _matrix(D):
    """M_D over Q[u]: entry (i, j) is the theta^i coordinate of D*theta^j."""
    n = D.field.degree
    num, cols = D.poly.num, []
    for j in range(n):
        if j:
            num = _reduce_terms(D.field, {(e[0] + 1,) + e[1:]: c for e, c in num.items()})
        col = [{} for _ in range(n)]
        for e, c in num.items():
            col[e[0]][e[1:]] = c
        cols.append(col)
    return [[MultiPoly.from_ints(D.unames, cols[j][i], D.poly.den) for j in range(n)] for i in range(n)]


def form_norm(D):
    """Nm(D): the product of the conjugate forms, a MultiPoly in the u's.

    It is det M_D; for the monic defining polynomial f this equals
    Res_theta(f, D), and Nm(c) = c^n for a rational constant c.
    """
    return poly_matrix_det(_matrix(D))


def _content_fm(nm):
    """(content, Fm) of the norm of an integral form."""
    if nm.den != 1:
        raise AlgebraError("norm of an integral form must have integer coefficients")
    content = int_gcd(*nm.num.values())
    return content, nm * Fraction(1, content)


def form_norm_content_fm(D):
    """(Nm, content, Fm) with content * Fm = Nm and Fm of content 1.

    Requires integral coefficients; the content is then a nonnegative
    integer, the gcd of the integer coefficients of the norm.
    """
    if not D.is_integral_form():
        raise DomainError("form has a non-integral coefficient")
    nm = form_norm(D)
    return (nm, *_content_fm(nm))


def _cofactor(D, m):
    """The form C with D*C = Nm(D), for m = M_D over D's indeterminates: C_i
    = (-1)^i det(minor(m, 0, i)) is the first column of the adjugate, so
    M_D C = det(M_D) e_0."""
    theta = MultiPoly.var(D.poly.variables[0], D.poly.variables)
    terms = ((-theta) ** i * poly_matrix_det(linalg.minor(m, 0, i)) for i in range(len(m)))
    return _form(D.field, sum(terms, MultiPoly.zero(D.poly.variables)))


def is_unit(D):
    """Primitive forms (norm content 1) are the units of the extended ring."""
    return form_norm_content_fm(D)[1] == 1


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------


def divides(D, G):
    """True when the divisor D divides the form (or element) G.

    Both historical criteria read the quotient Q = G*Fm(D)/D = G*C/content:
    criterion 1 asks that Q have algebraic-integer coefficients, criterion 2
    that Nm(X*D - G*Fm(D)) be divisible by Nm(D) with integer quotient
    coefficients.  The norm is multiplicative over Q(u)(theta), so
    Nm(X*D - G*Fm(D)) = Nm(D)*Nm(X - Q), and that quotient is the
    characteristic polynomial of M_Q.  The two are provably equivalent; the
    implementation insists they agree.

    Since both read Q, a fault in the norm or the cofactor C reaches them
    alike: the agreement check covers integrality read two ways, Q's
    coefficients against Q's characteristic polynomial.  The route through
    det(X*M_D - M_(G*Fm(D))) divided by Nm(D), which needs neither C nor Q,
    is the oracle in tests/test_divisors.py.
    """
    G = _as_form(D.field, G)
    if not D.is_integral_form() or not G.is_integral_form():
        raise DomainError("divisibility is defined for integral forms")
    m = _matrix(D)
    content = _content_fm(poly_matrix_det(m))[0]
    q = G * _cofactor(D, m) * Fraction(1, content)
    crit1 = q.is_integral_form()
    crit2 = _char_equation_criterion(q)
    if crit1 != crit2:
        raise AlgebraError(
            "internal inconsistency: the two divisibility criteria disagree"
        )
    return crit1


def _char_equation_criterion(q):
    """The characteristic polynomial of M_q has integer coefficients; for
    q = G*Fm(D)/D it is Nm(X*D - G*Fm(D)) / Nm(D)."""
    return all(c.den == 1 for c in linalg._berkowitz(_matrix(q)))


def absolute_equiv(d1, d2):
    """Equal up to a unit form: mutual divisibility."""
    return divides(d1, d2) and divides(d2, d1)


def gcd_divisor(elements):
    """The divisor x1*u1 + ... + xk*uk; the greatest common divisor of the
    given algebraic integers, with each division checked."""
    elements = list(elements)
    if not elements:
        raise DomainError("empty element list")
    if all(x.is_zero for x in elements):
        raise DomainError("the zero list has no gcd divisor")
    for x in elements:
        if not is_integral(x):
            raise DomainError("gcd divisor requires integral elements")
    form = DivisorForm.linear(elements)
    for x in elements:
        if not x.is_zero and not divides(form, x):
            raise AlgebraError("gcd divisor fails to divide one of its elements")
    return form


# ---------------------------------------------------------------------------
# prime decomposition
# ---------------------------------------------------------------------------


class PrimeDivisor:
    """A prime divisor p + u*f(theta) above an unramified rational prime."""

    __slots__ = ("p", "local_factor", "f", "form", "certified", "bezout")

    def __init__(self, p, local_factor, form, certified, bezout):
        self.p = p
        self.local_factor = local_factor
        self.f = local_factor.degree
        self.form = form
        self.certified = certified
        self.bezout = bezout

    def norm(self):
        return self.p**self.f

    def to_json(self):
        return {
            "p": self.p,
            "f": self.f,
            "local_factor": list(self.local_factor.num),
            "certified": self.certified,
        }

    def __str__(self):
        return str(self.form)

    def __repr__(self):
        return f"PrimeDivisor(p={self.p}, f={self.f}, {self.form})"


def decompose_prime(field, p):
    """Prime divisors of p in Z[theta], p not dividing the discriminant.

    Returns the divisors p + u_i*f_i(theta) from the irreducible factors of
    the defining polynomial mod p, ordered by (residue degree, lift
    coefficients).  Every pair carries a verified Bezout witness
    A*f_i + B*f_j = C + p*E with p not dividing C, and the product of the
    divisors is checked to divide p and be divisible by p.
    """
    if not primes.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if field.disc % p == 0:
        raise DomainError(
            f"ramified or index case: {p} divides the discriminant, "
            "outside the unramified hypothesis"
        )
    var = field.minpoly.variable
    _, factors = modp.factor(field.minpoly.num, p)
    if any(m != 1 for _, m in factors):
        raise AlgebraError("unramified prime with repeated factor")
    residues = [g for g, _ in factors]
    lifts = [UniPoly(var, g) for g in residues]
    theta = field.gen()
    out = []
    for i, lift in enumerate(lifts):
        uname = f"u{i + 1}"
        value = field.from_int_poly(lift)
        form = DivisorForm(
            field,
            (uname,),
            {(0,): field.element([p]), (1,): value},
        )
        out.append(PrimeDivisor(p, lift, form, False, {}))
    # pairwise coprimality witnesses
    for i in range(len(lifts)):
        for j in range(i + 1, len(lifts)):
            A, B, C = modp.ext_euclid(residues[i], residues[j], p)
            a_poly = UniPoly(var, A)
            b_poly = UniPoly(var, B)
            combo = a_poly * lifts[i] + b_poly * lifts[j] - C
            E = combo * Fraction(1, p)
            if not E.has_integer_coeffs():
                raise AlgebraError("Bezout witness failed to lift")
            if a_poly * lifts[i] + b_poly * lifts[j] != UniPoly(var, [C]) + E * p or C % p == 0:
                raise AlgebraError("Bezout witness does not certify coprimality")
            out[i].bezout[j] = (a_poly, b_poly, int(C), E)
            out[j].bezout[i] = (b_poly, a_poly, int(C), E)
    # product certificate: prod(D_i) and p divide each other
    prod = out[0].form
    for d in out[1:]:
        prod = prod * d.form
    p_form = DivisorForm.constant(field, p)
    if not (divides(prod, p_form) and divides(p_form, prod)):
        raise AlgebraError("product certificate failed")
    for d in out:
        if not (divides(d.form, p_form)):
            raise AlgebraError("prime divisor does not divide its prime")
        d.certified = True
    return out


def ramified_primes(field):
    """Primes dividing the discriminant of the defining polynomial.

    Under the monogenic restriction this is the polynomial discriminant,
    which may include index primes on top of the truly ramified ones; the
    prime-decomposition routine refuses exactly this set.
    """
    if field.degree == 1:
        return set()
    return set(primes.factorint(abs(field.disc)))
