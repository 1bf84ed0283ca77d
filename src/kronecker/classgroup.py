"""Class numbers of imaginary quadratic fields at desk scale.

Classes are generated by the prime divisors of norm at most
M = ceil((2/pi) sqrt|disc|); principality of a divisor of norm N is decided
by exhaustive search over the elements of norm N (the definite norm form
a^2 + |d| b^2 = N, or a^2 + |disc| b^2 = 4N for half-integer coefficients),
and two divisors fall in the same class exactly when one times the
conjugate of the other is principal.  Everything reduces to the divisor
module's exact divisibility tests.
"""

from dataclasses import dataclass, field
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


@dataclass
class ClassGroupResult:
    d: int
    disc: int
    h: int
    bound: int
    field: NumberField
    class_representatives: list = field(default_factory=list)  # (form, norm, order)
    generator: DivisorForm = None
    generator_order: int = 0

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
        minpoly = UniPoly("t", [Fraction(1 - d, 4), -1, 1])
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
    _, factors = modp.factor([int(c) for c in field.minpoly.coeffs], p)
    if [(len(g), mult) for g, mult in factors] != [(2, 2)]:
        raise AlgebraError(f"ramified prime {p}: expected a double linear factor mod p")
    lift = UniPoly(field.minpoly.variable, factors[0][0])
    form = DivisorForm(
        field, ("u1",), {(0,): field.element([p]), (1,): field.from_int_poly(lift)}
    )
    return PrimeDivisor(p, lift, form, True, {})


def class_number_imag_quadratic(d):
    """Kronecker-style class group of Q(sqrt d), d < 0 squarefree."""
    if d >= 0:
        raise DomainError("imaginary quadratic fields need d < 0")
    if abs(d) > MAX_ABS_D:
        raise DomainError(f"|d| capped at {MAX_ABS_D}")
    if primes.squarefree_part_sign(d) != d:
        raise DomainError("d must be squarefree")
    fieldK = quadratic_field(d)
    disc = d if d % 4 == 1 else 4 * d
    bound = ceil((2 / pi) * abs(disc) ** 0.5)
    small = []
    for p in primes.primes_up_to(bound):
        if disc % p == 0:
            small.append(_ramified_divisor(fieldK, p))
        else:
            for pd in decompose_prime(fieldK, p):
                if pd.norm() <= bound:
                    small.append(pd)
    # classify by relative equivalence: same class iff D1 * conj(D2) principal
    one = DivisorForm.constant(fieldK, 1)
    reps = [one]

    def class_of(form):
        if principal_generator(form, d) is not None:
            return 0
        for i, rep in enumerate(reps):
            if i == 0:
                continue
            if principal_generator(form * rep.conj_quadratic(), d) is not None:
                return i
        reps.append(form)
        return len(reps) - 1

    prime_forms = [pd.form for pd in small]
    for f in prime_forms:
        class_of(f)
    # close under multiplication
    changed = True
    while changed:
        changed = False
        snapshot = list(reps)
        for a in snapshot[1:]:
            for f in prime_forms:
                before = len(reps)
                class_of(a * f)
                if len(reps) != before:
                    changed = True
    h = len(reps)
    result = ClassGroupResult(d, disc, h, bound, fieldK)
    for rep in reps:
        n = _norm_of(rep)
        order = _order_of(rep, d, h)
        result.class_representatives.append((rep, n, order))
        if order == h and result.generator is None and h > 1:
            result.generator = rep
            result.generator_order = order
    if result.generator is None:
        result.generator = one
        result.generator_order = 1
    return result


def _order_of(form, d, h):
    power = form
    for k in range(1, h + 1):
        if principal_generator(power, d) is not None:
            if h % k:
                raise AlgebraError("element order does not divide the class number")
            return k
        power = power * form
    raise AlgebraError("order exceeds the class number: grouping is inconsistent")
