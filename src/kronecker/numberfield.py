"""Monogenic orders Z[theta]: exact algebraic-number arithmetic.

A NumberField is defined by a monic irreducible integer polynomial; elements
are coordinate vectors in the power basis 1, theta, ..., theta^(n-1).  Norms,
traces and minimal polynomials come from the multiplication matrix, never
from numerical embeddings.
"""

from fractions import Fraction

from kronecker import linalg
from kronecker.errors import AlgebraError, DomainError
from kronecker.factorization import is_irreducible
from kronecker.polyring import MultiPoly, UniPoly, discriminant, parse_poly

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NumberField:
    """Q[x]/(minpoly) with the order Z[theta]; minpoly monic irreducible."""

    def __init__(self, minpoly, check_irreducible=True):
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
        if check_irreducible and minpoly.degree > 1 and not is_irreducible(minpoly):
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
        # reduction table for theta^k, k = n .. 2n-2
        n = self.degree
        rows = []
        prev = [-c for c in minpoly.coeffs[:-1]]
        rows.append(list(prev))
        for _ in range(n - 2):
            nxt = [_ZERO] + prev[:-1]
            top = prev[-1]
            if top:
                for i in range(n):
                    nxt[i] += top * rows[0][i]
            rows.append(nxt)
            prev = nxt
        self._power_table = rows

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.minpoly})"

    # -- element constructors ------------------------------------------------

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > self.degree:
            head, tail = coords[: self.degree], coords[self.degree :]
            out = list(head)
            for k, c in enumerate(tail):
                if c:
                    for i, r in enumerate(self._power_table[k]):
                        out[i] += c * r
            coords = out
        coords += [_ZERO] * (self.degree - len(coords))
        return AlgNum(self, coords)

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def gen(self):
        return self.element([0, 1])

    def from_int_poly(self, poly):
        """Element from a polynomial in theta (UniPoly or coefficient list)."""
        if isinstance(poly, UniPoly):
            poly = list(poly.coeffs)
        return self.element(list(poly))

    def element_from_multipoly(self, p, name):
        """Element from a MultiPoly in the single variable `name`."""
        coords = [_ZERO] * max(p.degree(name) + 1, 1)
        for e, c in p.terms.items():
            k = e[p.variables.index(name)] if name in p.variables else 0
            if sum(e) != (e[p.variables.index(name)] if name in p.variables else 0):
                raise AlgebraError("polynomial involves foreign variables")
            coords[k] += c
        return self.element(coords)


class AlgNum:
    """Element of a NumberField in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)
        if len(self.coords) != field.degree:
            raise AlgebraError("coordinate length must equal the field degree")

    def _lift(self, other):
        if isinstance(other, AlgNum):
            if other.field != self.field:
                raise DomainError("elements belong to different fields")
            return other
        return self.field.element([other])

    @property
    def is_zero(self):
        return not any(self.coords)

    def is_rational(self):
        return not any(self.coords[1:])

    def rational_value(self):
        if not self.is_rational():
            raise AlgebraError("element is not rational")
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element([other])
        if not isinstance(other, AlgNum):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __add__(self, other):
        other = self._lift(other)
        return AlgNum(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgNum(self.field, [a * other for a in self.coords])
        other = self._lift(other)
        n = self.field.degree
        prod = [_ZERO] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        prod[i + j] += a * b
        return self.field.element(prod)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse via the extended Euclid algorithm."""
        if self.is_zero:
            raise ZeroDivisionError("division by zero in the number field")
        var = self.field.minpoly.variable
        a = UniPoly(var, self.coords)
        b = self.field.minpoly
        r0, r1 = b, a
        s0, s1 = UniPoly(var, []), UniPoly(var, [1])
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r1.is_zero:
            raise AlgebraError("element shares a factor with the minimal polynomial")
        inv = s1 * (1 / r1.coeffs[0])
        return self.field.from_int_poly(inv)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def multiplication_matrix(self):
        """Matrix of y -> self*y in the power basis (columns are images)."""
        n = self.field.degree
        cols = []
        for j in range(n):
            img = self * self.field.element([0] * j + [1])
            cols.append(img.coords)
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def charpoly(self):
        """Characteristic polynomial of multiplication by self, monic degree n."""
        return UniPoly("x", linalg.charpoly(self.multiplication_matrix()))

    def trace(self):
        n = self.field.degree
        m = self.multiplication_matrix()
        return sum(m[i][i] for i in range(n))

    def norm(self):
        n = self.field.degree
        cp = self.charpoly()
        return (-1) ** n * cp.coeffs[0] if cp.coeffs else _ZERO

    def minimal_polynomial(self):
        """True minimal polynomial: the squarefree part of the charpoly."""
        return self.charpoly().squarefree_part()

    def conj_quadratic(self):
        """Image under the nontrivial automorphism of a quadratic field."""
        if self.field.degree != 2:
            raise DomainError("conjugation shortcut requires a quadratic field")
        s = -self.field.minpoly.coeffs[1]  # theta + conj(theta)
        a, b = self.coords
        return self.field.element([a + b * s, -b])

    def __str__(self):
        var = "t"
        p = MultiPoly(
            (var,), {(k,): c for k, c in enumerate(self.coords) if c}
        )
        return str(p)

    def __repr__(self):
        return f"AlgNum({self})"


def nf_new(minpoly):
    """Construct a number field, verifying monicity and irreducibility."""
    return NumberField(minpoly)


def norm_trace_minpoly(a):
    """(norm, trace, minimal polynomial) of an element."""
    cp = a.charpoly()
    n = a.field.degree
    nm = (-1) ** n * cp.coeffs[0]
    tr = -cp.coeffs[n - 1] if n >= 1 else _ZERO
    return nm, tr, a.minimal_polynomial()


def is_integral(a):
    """True when the minimal polynomial is monic with integer coefficients.

    The characteristic polynomial is a power of the minimal polynomial, and
    both are monic, so it lies in Z[x] exactly when the minimal polynomial
    does (Gauss's lemma).
    """
    return a.charpoly().has_integer_coeffs()


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
