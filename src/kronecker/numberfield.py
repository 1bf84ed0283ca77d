"""Monogenic orders Z[theta]: exact algebraic-number arithmetic.

A NumberField is defined by a monic irreducible integer polynomial; elements
are vectors in the power basis 1, theta, ..., theta^(n-1).  An element is
carried as one integer vector ``num`` over one positive integer denominator
``den``, normalised so that gcd(den, *num) = 1, with zero stored as den = 1
(Cohen, A Course in Computational Algebraic Number Theory, §4.2).  Sums and
products are polyring.UniPoly's, on the element read as a polynomial in
theta, reduced by the field's power table: the defining polynomial is monic
with integer coefficients, so the table that reduces theta^n,
theta^(n+1), ... to the power basis is integral, and everything runs on
integers.  Rational coordinates appear only at the API edge, through
``AlgNum.coords``.

Integrality: theta is an algebraic integer, so Z[theta] lies in the ring of
integers, and an element with den = 1 is integral.  Every other element is
decided by its characteristic polynomial.  Norms, traces and minimal
polynomials come from the multiplication matrix, never from numerical
embeddings.
"""

from fractions import Fraction

from kronecker import linalg
from kronecker.errors import AlgebraError, DomainError
from kronecker.factorization import is_irreducible
from kronecker.polyring import MultiPoly, UniPoly, discriminant, normal_form, parse_poly, power

_ZERO = Fraction(0)


def _make(field, num, den):
    """The element num/den of the field, normalised; num has length n."""
    x = object.__new__(AlgNum)
    x.field = field
    x.num, x.den = normal_form(num, den)
    return x


class NumberField:
    """Q[x]/(minpoly) with the order Z[theta]; minpoly monic irreducible."""

    def __init__(self, minpoly):
        if isinstance(minpoly, str):
            minpoly = UniPoly.from_multipoly(parse_poly(minpoly))
        if isinstance(minpoly, MultiPoly):
            minpoly = UniPoly.from_multipoly(minpoly)
        if minpoly.degree < 1:
            raise DomainError("defining polynomial must have positive degree")
        if not minpoly.is_monic():
            raise DomainError("defining polynomial must be monic")
        if not minpoly.has_integer_coeffs():
            raise DomainError("defining polynomial must have integer coefficients")
        if minpoly.degree > 1 and not is_irreducible(minpoly):
            raise DomainError("not a genus-defining equation: polynomial is reducible")
        self.minpoly = minpoly
        self.degree = minpoly.degree
        if self.degree == 1:
            self.disc = 1
        else:
            d = discriminant(minpoly.to_multipoly(), minpoly.variable).constant_value()
            self.disc = int(d)
            if self.disc == 0:
                raise DomainError("degenerate defining polynomial (zero discriminant)")
        # integer reduction table: row k is theta^(n+k) in the power basis;
        # products need k = 0 .. n-2, longer inputs extend it on demand
        self._power_table = [[-c for c in minpoly.num[:-1]]]
        self._power_rows(self.degree - 1)

    def _power_rows(self, count):
        """The first `count` rows of the reduction table."""
        rows = self._power_table
        while len(rows) < count:
            prev = rows[-1]
            top = prev[-1]
            rows.append([b + top * a for a, b in zip(rows[0], [0] + prev[:-1])])
        return rows

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.minpoly})"

    # -- element constructors ------------------------------------------------

    def element(self, coords):
        """Element from power-basis coordinates (ints or rationals); entries
        past theta^(n-1) are reduced modulo the defining polynomial."""
        num, den = normal_form(list(coords))
        return self._reduce(list(num), den)

    def _reduce(self, num, den):
        """The element num/den for an integer vector num of any length."""
        n = self.degree
        if len(num) > n:
            out = num[:n]
            for c, row in zip(num[n:], self._power_rows(len(num) - n)):
                if c:
                    for i, r in enumerate(row):
                        out[i] += c * r
            num = out
        elif len(num) < n:
            num = num + [0] * (n - len(num))
        return _make(self, num, den)

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def gen(self):
        return self.element([0, 1])

    def from_int_poly(self, poly):
        """Element from a polynomial in theta (UniPoly or coefficient list)."""
        if isinstance(poly, UniPoly):
            return self._reduce(list(poly.num), poly.den)
        return self.element(list(poly))

    def element_from_multipoly(self, p, name):
        """Element from a MultiPoly in the single variable `name`."""
        coords = [0] * max(p.degree(name) + 1, 1)
        for e, c in p.num.items():
            k = e[p.variables.index(name)] if name in p.variables else 0
            if sum(e) != k:
                raise AlgebraError("polynomial involves foreign variables")
            coords[k] += c
        return self._reduce(coords, p.den)


class AlgNum:
    """Element num/den of a NumberField in the power basis: num a tuple of
    n ints, den a positive int, gcd(den, *num) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coords):
        num, den = normal_form(list(coords))
        if len(num) != field.degree:
            raise AlgebraError("coordinate length must equal the field degree")
        self.field = field
        self.num, self.den = num, den

    @property
    def coords(self):
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def _lift(self, other):
        if isinstance(other, AlgNum):
            if other.field is not self.field and other.field != self.field:
                raise DomainError("elements belong to different fields")
            return other
        return self.field.element([other])

    @property
    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element([other])
        if not isinstance(other, AlgNum):
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def _poly(self):
        """The element as a UniPoly in theta, of degree below n."""
        return UniPoly(self.field.minpoly.variable, self.num, self.den)

    def __add__(self, other):
        return self.field.from_int_poly(self._poly() + self._lift(other)._poly())

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            other = self._lift(other)._poly()
        return self.field.from_int_poly(self._poly() * other)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return power(self.inverse(), -k, self.field.one())
        return power(self, k, self.field.one())

    def inverse(self):
        """Multiplicative inverse via the extended Euclid algorithm."""
        if self.is_zero:
            raise ZeroDivisionError("division by zero in the number field")
        return self.field.from_int_poly(self._poly().inverse_mod(self.field.minpoly))

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def multiplication_matrix(self):
        """Matrix of y -> self*y in the power basis (columns are images)."""
        n = self.field.degree
        num = list(self.num)
        cols = [self.field._reduce([0] * j + num, self.den).coords for j in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def charpoly(self):
        """Characteristic polynomial of multiplication by self, monic degree n."""
        return UniPoly("x", linalg.charpoly(self.multiplication_matrix()))

    def trace(self):
        n = self.field.degree
        m = self.multiplication_matrix()
        return sum(m[i][i] for i in range(n))

    def norm(self):
        return (-1) ** self.field.degree * self.charpoly()[0]

    def minimal_polynomial(self):
        """True minimal polynomial: the squarefree part of the charpoly."""
        return self.charpoly().squarefree_part()

    def conj_quadratic(self):
        """Image under the nontrivial automorphism of a quadratic field."""
        if self.field.degree != 2:
            raise DomainError("conjugation shortcut requires a quadratic field")
        s = -self.field.minpoly.num[1]  # theta + conj(theta)
        a, b = self.num
        return _make(self.field, [a + b * s, -b], self.den)

    def __str__(self):
        return str(MultiPoly.from_ints(("t",), {(k,): a for k, a in enumerate(self.num) if a}, self.den))

    def __repr__(self):
        return f"AlgNum({self})"


def norm_trace_minpoly(a):
    """(norm, trace, minimal polynomial) of an element."""
    cp = a.charpoly()
    n = a.field.degree
    nm = (-1) ** n * cp[0]
    tr = -cp[n - 1]
    return nm, tr, a.minimal_polynomial()


def is_integral(a):
    """True when the minimal polynomial is monic with integer coefficients.

    An element with den = 1 lies in Z[theta], which is integral because
    theta is.  Otherwise the characteristic polynomial decides: it is a
    power of the minimal polynomial, and both are monic, so it lies in Z[x]
    exactly when the minimal polynomial does (Gauss's lemma).
    """
    return a.den == 1 or a.charpoly().has_integer_coeffs()


def discriminant_of_quantities(field, quantities):
    """Gram determinant det Tr(x_g * x_h): the squared conjugate determinant
    of n quantities, computed without embeddings."""
    if len(quantities) != field.degree:
        raise DomainError(
            f"need exactly {field.degree} quantities, got {len(quantities)}"
        )
    n = field.degree
    gram = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = (quantities[i] * quantities[j]).trace()
            gram[i][j] = gram[j][i] = t
    return linalg.mat_det(gram)
