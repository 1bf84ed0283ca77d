"""Class numbers of imaginary quadratic fields at desk scale.

Classes are generated by the prime divisors of norm at most
M = ceil((2/pi) sqrt|disc|).  `quadratic_field` builds the maximal order, in
which every divisor class holds exactly one reduced binary quadratic form of
discriminant disc (Gauss; Cohen, A Course in Computational Algebraic Number
Theory, section 5.2).  Each divisor the search handles is keyed by that
form: a prime divisor (p, t - r) by (p, 2r - 1, (r^2 - r + (1-d)/4)/p) when
d = 1 mod 4 and by (p, 2r, (r^2 - d)/p) otherwise, an inert prime by the
identity form, and a product by the reduced Dirichlet composition of the
keys of its factors.  Class lookup, closure and element orders are integer
work, and two divisors with different keys lie in different classes by the
uniqueness of reduced forms.

The paper's divisor arithmetic certifies the rest.  Principality of a
divisor of norm N is decided by exhaustive search over the elements of
norm N (the definite norm form a^2 + |d| b^2 = N, or a^2 + |disc| b^2 = 4N
for half-integer coefficients), through the divisor module's exact
divisibility tests.  Two facts are checked that way, and a failure raises
AlgebraError: a small prime divisor D whose key names an existing class
with representative R makes D * conj(R) principal (D itself for the
principal class), and a representative of order k > 1 has a principal
k-th power.
"""

from fractions import Fraction
from math import ceil, isqrt, pi

from kronecker import modp, primes
from kronecker.divisors import (
    DivisorForm,
    PrimeDivisor,
    absolute_equiv,
    decompose_prime,
    form_norm_content_fm,
)
from kronecker.errors import AlgebraError, DomainError
from kronecker.numberfield import NumberField
from kronecker.polyring import UniPoly

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


def _norm_elements(field, d, n):
    """All elements of the order with norm exactly n (n > 0)."""
    out = []
    if d % 4 == 1:
        # (a + b sqrt d)/2, a = b mod 2, norm (a^2 + |d| b^2)/4
        target = 4 * n
        bmax = isqrt(target // abs(d))
        for b in range(-bmax, bmax + 1):
            rest = target - abs(d) * b * b
            if rest < 0:
                continue
            a = isqrt(rest)
            if a * a != rest or (a - b) % 2:
                continue
            for aa in {a, -a}:
                out.append(field.element([Fraction(aa - b, 2), b]))
    else:
        bmax = isqrt(n // abs(d)) if abs(d) <= n else 0
        for b in range(-bmax, bmax + 1):
            rest = n - abs(d) * b * b
            if rest < 0:
                continue
            a = isqrt(rest)
            if a * a != rest:
                continue
            for aa in {a, -a}:
                out.append(field.element([aa, b]))
    return [x for x in out if not x.is_zero]


def _norm_of(form):
    return form_norm_content_fm(form)[1]


def principal_generator(form, d):
    """An element generating the divisor, or None when the class is not
    principal; exhaustive over the finitely many elements of matching norm."""
    n = _norm_of(form)
    for x in _norm_elements(form.field, d, n):
        cand = DivisorForm.constant(form.field, x)
        if absolute_equiv(form, cand):
            return x
    return None


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
    |b| <= a <= c, and b >= 0 when |b| = a or a = c (Cohen, Alg. 5.4.2)."""
    while True:
        if not -a < b <= a:
            q, r = divmod(b, 2 * a)
            if r > a:
                q, r = q + 1, r - 2 * a
            b, c = r, c - q * (b + r) // 2
        if a <= c:
            return (a, -b, c) if a == c and b < 0 else (a, b, c)
        a, b, c = c, -b, a


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
    return _reduce_form(a3, b3, (b3 * b3 - disc) // (4 * a3))


def _identity_form(disc):
    return (1, disc % 2, (disc % 2 - disc) // 4)


def _prime_form(p, local_factor, d):
    """The reduced form keying the prime divisor p + u*local_factor(theta)
    of Q(sqrt d): the identity for an inert p, else the form of the ideal
    (p, theta - r) at the root r of the monic linear local factor."""
    disc = d if d % 4 == 1 else 4 * d
    if local_factor.degree != 1:
        return _identity_form(disc)
    r = -local_factor.num[0] % p
    if d % 4 == 1:
        return _reduce_form(p, 2 * r - 1, (r * r - r + (1 - d) // 4) // p)
    return _reduce_form(p, 2 * r, (r * r - d) // p)


def _form_order(key, disc):
    """The number of compositions of key with itself that reach the identity."""
    one = _identity_form(disc)
    k, power = 1, key
    while power != one:
        k, power = k + 1, _compose(power, key, disc)
    return k


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
        key = _prime_form(pd.p, pd.local_factor, d)
        prime_keys.append(key)
        rep = classes.get(key)
        if rep is None:
            classes[key] = pd.form
            continue
        quotient = pd.form if key == one else pd.form * rep.conj_quadratic()
        if principal_generator(quotient, d) is None:
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
        if order > 1 and principal_generator(rep**order, d) is None:
            raise AlgebraError(f"{rep} to the power {order} is not principal")
        result.class_representatives.append((rep, _norm_of(rep), order))
    return result
