"""Class numbers of imaginary quadratic fields at desk scale.

Classes are generated by the prime divisors of norm at most
M = ceil((2/pi) sqrt|disc|).  `quadratic_field` builds the maximal order, in
which every divisor class holds exactly one reduced binary quadratic form of
discriminant disc (Gauss; Cohen, A Course in Computational Algebraic Number
Theory, section 5.2).  One map, `_ideal_form`, takes a divisor to the ideal
I of its coefficients, written I = g*(aZ + (r + theta)Z) by its Hermite
normal form, and to the form (a, b, c) = N(a*x + (r + theta)*y)/a of
discriminant disc.  A prime divisor is keyed by the reduced form of its
ideal, and a product by the reduced Dirichlet composition of the keys of
its factors.  Class lookup, closure and element orders are integer work,
and two divisors with different keys lie in different classes by the
uniqueness of reduced forms.

Principality is decided by reducing the ideal's form: I is principal
exactly when the reduction reaches the identity form, and then the first
column (x, y) of the reducing SL2(Z) transformation gives the generator
g*(a*x + (r + theta)*y) of norm g^2*a, in O(log a) steps.  The paper's
divisor arithmetic certifies that generator by mutual divisibility, and one
that fails raises AlgebraError.  Two facts are checked that way: a small
prime divisor D whose key names an existing class with representative R
makes D * conj(R) principal (D itself for the principal class), and a
representative of order k > 1 has a principal k-th power.
"""

from math import ceil, gcd, pi

from kronecker import modp, primes
from kronecker.divisors import (
    DivisorForm,
    PrimeDivisor,
    absolute_equiv,
    decompose_prime,
)
from kronecker.errors import AlgebraError, DomainError
from kronecker.numberfield import NumberField
from kronecker.polyring import UniPoly

# The slowest squarefree d under the cap is -194 (h = 20): 1.2-1.4 s
# in-process and about 1.5 s as one CLI call (2 cores, Python 3.11.7), nearly
# all of it in the divisor tests of the order certificates.
MAX_ABS_D = 200


class ClassGroupResult:
    def __init__(self, d, disc, h, bound, field):
        self.d = d
        self.disc = disc
        self.h = h
        self.bound = bound
        self.field = field
        self.class_representatives = []  # (form, norm, order)

    def to_json(self):
        return {
            "d": self.d,
            "h": self.h,
            "generators": [
                {"form": str(f), "norm": n, "order": o}
                for f, n, o in self.class_representatives
                if o == self.h and self.h > 1
            ]
            or [{"form": "1", "norm": 1, "order": 1}],
        }


def quadratic_field(d):
    """The monogenic order for Q(sqrt(d)): Z[(1+sqrt d)/2] when d = 1 mod 4."""
    if d % 4 == 1:
        minpoly = UniPoly("t", [(1 - d) // 4, -1, 1])
    else:
        minpoly = UniPoly("t", [-d, 0, 1])
    return NumberField(minpoly)


def _ramified_divisor(field, p):
    """The divisor above a ramified prime via the double root mod p."""
    _, factors = modp.factor(field.minpoly.num, p)
    if [(len(g), mult) for g, mult in factors] != [(2, 2)]:
        raise AlgebraError(f"ramified prime {p}: expected a double linear factor mod p")
    lift = UniPoly(field.minpoly.variable, factors[0][0])
    form = DivisorForm(
        field, ("u1",), {(0,): field.element([p]), (1,): field.from_int_poly(lift)}
    )
    return PrimeDivisor(p, lift, form, True, {})


def _small_prime_divisors(field, disc, bound):
    """The prime divisors of norm at most bound, by rational prime."""
    small = []
    for p in primes.primes_up_to(bound):
        if disc % p == 0:
            small.append(_ramified_divisor(field, p))
        else:
            small.extend(pd for pd in decompose_prime(field, p) if pd.norm() <= bound)
    return small


def _reduce_form(a, b, c):
    """The reduced form equivalent to the positive definite (a, b, c):
    |b| <= a <= c, and b >= 0 when |b| = a or a = c (Cohen, Alg. 5.4.2);
    with the first column (x, y) of the SL2(Z) transformation that reaches
    it, so (a, b, c) takes the reduced a at (x, y)."""
    x, y, z, w = 1, 0, 0, 1  # the transformation's columns (x, y), (z, w)
    while True:
        if not -a < b <= a:
            q, r = divmod(b, 2 * a)
            if r > a:
                q, r = q + 1, r - 2 * a
            b, c = r, c - q * (b + r) // 2
            z, w = z - q * x, w - q * y
        if a < c or a == c and b >= 0:
            return (a, b, c), (x, y)
        a, b, c = c, -b, a
        x, y, z, w = z, w, -x, -y


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1, y0, y1 = x1, x0 - q * x1, y1, y0 - q * y1
    return a, x0, y0


def _compose(f, g, disc):
    """The reduced Dirichlet composition of two primitive positive definite
    forms of discriminant disc (Cohen, Alg. 5.4.7)."""
    (a1, b1, _), (a2, b2, c2) = f, g
    s = (b1 + b2) // 2
    n = b2 - s
    d, y1, _ = _xgcd(a2, a1)
    d1, x2, v = _xgcd(s, d)
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * v * n - x2 * c2) % v1
    a3, b3 = v1 * v2, b2 + 2 * v2 * r
    return _reduce_form(a3, b3, (b3 * b3 - disc) // (4 * a3))[0]


def _identity_form(disc):
    return (1, disc % 2, (disc % 2 - disc) // 4)


def _form_order(key, disc):
    """The number of compositions of key with itself that reach the identity."""
    one = _identity_form(disc)
    k, power = 1, key
    while power != one:
        k, power = k + 1, _compose(power, key, disc)
    return k


def _ideal_form(D):
    """(g, (a, b, c)) for the ideal I of D's coefficients, I = g*(aZ + (r +
    theta)Z), from the Hermite normal form of the lattice spanned by the
    coefficients and their theta-multiples; (a, b, c) = (a, 2r + tr theta,
    N(r + theta)/a) is the form N(a*x + (r + theta)*y)/a of I/g."""
    if D.poly.den != 1:
        raise DomainError("form has a non-integral coefficient")
    p0, p1, _ = D.field.minpoly.num  # theta^2 = -p1*theta - p0
    A = B = C = 0  # I = A*Z + (B + C*theta)*Z
    for x, y in D._columns().values():
        for u, v in ((x, y), (-p0 * y, x - p1 * y)):
            g, s, t = _xgcd(C, v)
            if g:
                A, B, C = gcd(A, C // g * u - v // g * B), s * B + t * u, g
            else:
                A = gcd(A, u)
    if C < 0:
        B, C = -B, -C
    if A % C or B % C:
        raise AlgebraError("the coefficients of a divisor form span no ideal")
    a, r = A // C, B // C % (A // C)
    return C, (a, 2 * r - p1, (r * r - p1 * r + p0) // a)


def _norm_of(form):
    g, (a, _, _) = _ideal_form(form)
    return g * g * a


def principal_generator(form):
    """An element generating the divisor, or None when its class is not
    principal: the reduction of the ideal's form reaches the identity
    exactly when I is principal, and then its first column (x, y) gives the
    generator g*(a*x + (r + theta)*y) of norm g^2*a, certified by the
    divisor arithmetic."""
    field = form.field
    g, (a, b, c) = _ideal_form(form)
    reduced, (x, y) = _reduce_form(a, b, c)
    if reduced != _identity_form(field.disc):
        return None
    r = (b + field.minpoly.num[1]) // 2
    alpha = field.element([g * (a * x + r * y), g * y])
    if not absolute_equiv(form, DivisorForm.constant(field, alpha)):
        raise AlgebraError(f"reduction gave {alpha}, which does not generate {form}")
    return alpha


def class_number_imag_quadratic(d):
    """Kronecker-style class group of Q(sqrt d), d < 0 squarefree.

    Representatives are the first divisors met in each class: the small
    prime divisors in order, then products rep * prime in closure passes.
    Classes are told apart by their reduced forms; the divisor arithmetic
    certifies each prime divisor that lands in an existing class and the
    order of each representative (see the module docstring).
    """
    if d >= 0:
        raise DomainError("imaginary quadratic fields need d < 0")
    if abs(d) > MAX_ABS_D:
        raise DomainError(f"|d| capped at {MAX_ABS_D}")
    if primes.squarefree_part_sign(d) != d:
        raise DomainError("d must be squarefree")
    fieldK = quadratic_field(d)
    disc = d if d % 4 == 1 else 4 * d
    bound = ceil((2 / pi) * abs(disc) ** 0.5)
    small = _small_prime_divisors(fieldK, disc, bound)
    # representative of each class by its reduced form; the principal class first
    one = _identity_form(disc)
    classes = {one: DivisorForm.constant(fieldK, 1)}
    prime_keys = []
    for pd in small:
        key = _reduce_form(*_ideal_form(pd.form)[1])[0]
        prime_keys.append(key)
        rep = classes.get(key)
        if rep is None:
            classes[key] = pd.form
            continue
        quotient = pd.form if key == one else pd.form * rep.conj_quadratic()
        if principal_generator(quotient) is None:
            raise AlgebraError(f"prime divisor {pd.form} is not in the class of {rep}")
    # close under multiplication by the small prime divisors
    changed = True
    while changed:
        changed = False
        for key, rep in list(classes.items())[1:]:
            for pd, pkey in zip(small, prime_keys):
                product = _compose(key, pkey, disc)
                if product not in classes:
                    classes[product] = rep * pd.form
                    changed = True
    h = len(classes)
    result = ClassGroupResult(d, disc, h, bound, fieldK)
    for key, rep in classes.items():
        order = _form_order(key, disc)
        if h % order:
            raise AlgebraError("element order does not divide the class number")
        if order > 1 and principal_generator(rep**order) is None:
            raise AlgebraError(f"{rep} to the power {order} is not principal")
        result.class_representatives.append((rep, _norm_of(rep), order))
    return result
