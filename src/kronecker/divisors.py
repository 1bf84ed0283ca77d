"""Divisor arithmetic in monogenic orders: forms in adjoined indeterminates.

A divisor is represented by a form, a polynomial in fresh indeterminates
u1, u2, ... whose coefficients are algebraic integers of a number field.
The norm of a form is the product of its conjugates, computed exactly as a
resultant against the defining polynomial; the content of the norm and the
primitive cofactor Fm (content * Fm = Nm) drive everything else:

* divisibility: D divides G iff G*Fm(D)/D is again a form with algebraic
  integer coefficients; the equivalent characteristic-equation criterion
  (the norm of X*D - G*Fm(D) must be divisible by Nm(D) with integer
  quotient coefficients) is computed alongside and the two are required to
  agree on every call,
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

from kronecker import modp, primes
from kronecker.errors import AlgebraError, DomainError
from kronecker.numberfield import AlgNum, is_integral
from kronecker.polyring import MultiPoly, UniPoly, _grlex_key, divide_terms, power, resultant


class DivisorForm:
    """Form in indeterminates with AlgNum coefficients over one field."""

    __slots__ = ("field", "unames", "coeffs")

    def __init__(self, field, unames, coeffs):
        self.field = field
        self.unames = tuple(unames)
        gen_var = field.minpoly.variable
        if gen_var in self.unames:
            raise AlgebraError("indeterminate names must avoid the generator variable")
        clean = {}
        for e, c in coeffs.items():
            if not isinstance(c, AlgNum):
                c = field.element([c])
            if not c.is_zero:
                clean[tuple(e)] = c
        self.coeffs = clean
        if not clean:
            raise AlgebraError("a divisor form needs at least one nonzero coefficient")

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, field, value):
        if not isinstance(value, AlgNum):
            value = field.element([value])
        return cls(field, (), {(): value})

    @classmethod
    def linear(cls, elements, unames=None):
        """x1*u1 + ... + xk*uk with fresh indeterminates."""
        if not elements:
            raise DomainError("empty element list")
        field = elements[0].field
        if unames is None:
            unames = tuple(f"u{i + 1}" for i in range(len(elements)))
        coeffs = {}
        for i, x in enumerate(elements):
            e = [0] * len(elements)
            e[i] = 1
            coeffs[tuple(e)] = x
        return cls(field, unames, coeffs)

    @classmethod
    def from_multipoly(cls, field, p, unames=None):
        """Parse a MultiPoly in the generator variable plus indeterminates."""
        tvar = field.minpoly.variable
        if unames is None:
            unames = tuple(v for v in p.variables if v != tvar)
        ti = p.variables.index(tvar) if tvar in p.variables else None
        buckets = {}
        for e, c in p.num.items():
            k = e[ti] if ti is not None else 0
            ue = tuple(x for i, x in enumerate(e) if i != ti)
            bucket = buckets.setdefault(ue, [])
            while len(bucket) <= k:
                bucket.append(0)
            bucket[k] += c
        coeffs = {e: field._reduce(cs, p.den) for e, cs in buckets.items()}
        return cls(field, unames, coeffs)

    # -- bookkeeping -----------------------------------------------------------

    def with_unames(self, unames):
        unames = tuple(unames)
        mapping = []
        for i, u in enumerate(self.unames):
            if u not in unames:
                raise AlgebraError(f"cannot drop indeterminate {u!r}")
            mapping.append((i, unames.index(u)))
        coeffs = {}
        for e, c in self.coeffs.items():
            ne = [0] * len(unames)
            for i, j in mapping:
                ne[j] = e[i]
            coeffs[tuple(ne)] = c
        return DivisorForm(self.field, unames, coeffs)

    def _align(self, other):
        if self.field != other.field:
            raise DomainError("forms belong to different fields")
        if self.unames == other.unames:
            return self, other
        merged = list(self.unames)
        for u in other.unames:
            if u not in merged:
                merged.append(u)
        return self.with_unames(merged), other.with_unames(merged)

    def rename(self, mapping):
        """Fresh indeterminate names (for same-coefficient equivalent forms)."""
        return DivisorForm(
            self.field,
            tuple(mapping.get(u, u) for u in self.unames),
            dict(self.coeffs),
        )

    def is_integral_form(self):
        return all(is_integral(c) for c in self.coeffs.values())

    def coefficient_list(self):
        return [c for _, c in sorted(self.coeffs.items(), key=lambda t: _grlex_key(t[0]))]

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        a, b = self._align(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            cur = out.get(e)
            val = c if cur is None else cur + c
            if val.is_zero:
                out.pop(e, None)
            else:
                out[e] = val
        return DivisorForm(a.field, a.unames, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgNum)):
            if not isinstance(other, AlgNum):
                other = self.field.element([other])
            if other.is_zero:
                raise AlgebraError("zero product is not a divisor form")
            return DivisorForm(
                self.field, self.unames, {e: c * other for e, c in self.coeffs.items()}
            )
        a, b = self._align(other)
        out = {}
        for ea, ca in a.coeffs.items():
            for eb, cb in b.coeffs.items():
                key = tuple(i + j for i, j in zip(ea, eb))
                cur = out.get(key)
                out[key] = ca * cb if cur is None else cur + ca * cb
        return DivisorForm(a.field, a.unames, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, DivisorForm.constant(self.field, 1))

    def __eq__(self, other):
        if not isinstance(other, DivisorForm):
            return NotImplemented
        a, b = self._align(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash(
            (self.field, self.unames, tuple(sorted(self.coeffs.items(), key=lambda t: t[0])))
        )

    # -- conversions ----------------------------------------------------------------

    def to_multipoly(self):
        """As a MultiPoly in (generator variable, *unames)."""
        den = int_lcm(*(c.den for c in self.coeffs.values()))
        num = {}
        for e, c in self.coeffs.items():
            scale = den // c.den
            for k, a in enumerate(c.num):
                if a:
                    num[(k,) + e] = a * scale
        return MultiPoly.from_ints((self.field.minpoly.variable,) + self.unames, num, den)

    def conj_quadratic(self):
        return DivisorForm(
            self.field,
            self.unames,
            {e: c.conj_quadratic() for e, c in self.coeffs.items()},
        )

    def __str__(self):
        tvar = self.field.minpoly.variable
        chunks = []
        for e, c in sorted(self.coeffs.items(), key=lambda t: _grlex_key(t[0]), reverse=True):
            mono = "*".join(
                u if k == 1 else f"{u}^{k}" for u, k in zip(self.unames, e) if k
            )
            body = str(c).replace("t", tvar) if tvar != "t" else str(c)
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


# ---------------------------------------------------------------------------
# norm, content, Fm
# ---------------------------------------------------------------------------


def form_norm(D):
    """Nm(D): the product of the conjugate forms, a MultiPoly in the u's.

    Computed as Res_theta(minpoly, D); the defining polynomial is monic so
    no normalization is needed and Nm(c) = c^n for constants.
    """
    field = D.field
    tvar = field.minpoly.variable
    p = D.to_multipoly()
    if p.degree(tvar) <= 0:
        out = p ** field.degree
    else:
        out = resultant(field.minpoly.to_multipoly((tvar,)), p, tvar)
    return out.with_variables(D.unames) if D.unames else out.with_variables(())


def form_norm_content_fm(D):
    """(Nm, content, Fm) with content * Fm = Nm and Fm of content 1.

    Requires integral coefficients; the content is then a nonnegative
    integer, the gcd of the integer coefficients of the norm.
    """
    if not D.is_integral_form():
        raise DomainError("form has a non-integral coefficient")
    nm = form_norm(D)
    if nm.den != 1:
        raise AlgebraError("norm of an integral form must have integer coefficients")
    content = int_gcd(*nm.num.values())
    fm = nm * Fraction(1, content)
    return nm, content, fm


def is_unit(D):
    """Primitive forms (norm content 1) are the units of the extended ring."""
    return form_norm_content_fm(D)[1] == 1


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------


def _as_form(field, x):
    if isinstance(x, DivisorForm):
        return x
    return DivisorForm.constant(field, x)


def exact_quotient(G, D):
    """G/D in the field-coefficient polynomial ring, or None."""
    a, b = G._align(D)
    inv = b.coeffs[max(b.coeffs, key=_grlex_key)].inverse()
    quo = divide_terms(dict(a.coeffs), b.coeffs, lambda c: c * inv)
    if quo is None:
        return None
    return DivisorForm(a.field, a.unames, quo)


def divides(D, G):
    """True when the divisor D divides the form (or element) G.

    Both historical criteria are evaluated: the quotient G*Fm(D)/D must be a
    form with algebraic-integer coefficients, and the characteristic
    equation Nm(X*D - G*Fm(D)) must be divisible by Nm(D) with integer
    coefficients.  They are provably equivalent; the implementation insists
    they agree.
    """
    field = D.field
    G = _as_form(field, G)
    if not D.is_integral_form() or not G.is_integral_form():
        raise DomainError("divisibility is defined for integral forms")
    nm, content, fm = form_norm_content_fm(D)
    gfm = G * DivisorForm.from_multipoly(field, fm, unames=tuple(fm.variables))
    quo = exact_quotient(gfm, D)
    crit1 = quo is not None and quo.is_integral_form()

    crit2 = _char_equation_criterion(D, gfm, nm)
    if crit1 != crit2:
        raise AlgebraError(
            "internal inconsistency: the two divisibility criteria disagree"
        )
    return crit1


def _char_equation_criterion(D, gfm, nm):
    """Nm(X*D - G*Fm(D)) divisible by Nm(D) with integer coefficients,
    for gfm = G*Fm(D)."""
    field = D.field
    tvar = field.minpoly.variable
    xname = "X_"
    while xname in D.unames or xname in gfm.unames or xname == tvar:
        xname += "_"
    xd, gfm = D._align(gfm)
    # X*D - G*Fm as a MultiPoly in (tvar, xname, u...)
    m_xd = xd.to_multipoly()
    m_gfm = gfm.to_multipoly()
    x = MultiPoly.var(xname, (xname,))
    m = m_xd * x - m_gfm
    w = resultant(field.minpoly.to_multipoly((tvar,)), m, tvar)
    quo = w.div_exact(nm)
    if quo is None:
        return False
    return quo.den == 1


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
