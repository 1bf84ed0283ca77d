"""Algebraic-number arithmetic in monogenic orders."""

import math
import random
from fractions import Fraction

import pytest

from kronecker.errors import DomainError
from kronecker.numberfield import (
    NumberField,
    discriminant_of_quantities,
    is_integral,
    norm_trace_minpoly,
)
from kronecker.polyring import UniPoly, parse_poly


def test_gaussian_field():
    K = NumberField("x^2 + 1")
    assert K.degree == 2 and K.disc == -4


def test_cubic_field_disc():
    K = NumberField("x^3 - x - 1")
    assert K.degree == 3 and K.disc == -23


def test_reducible_rejected():
    with pytest.raises(DomainError):
        NumberField("x^2 - 1")


def test_non_monic_rejected():
    with pytest.raises(DomainError):
        NumberField("2*x^2 + 1")


def test_elements_print_in_the_generator_variable():
    assert str(NumberField("x^2 + 1").element([1, 2])) == "2*x + 1"
    assert str(NumberField("t^3 - t - 1").element([Fraction(1, 2), 0, -3])) == "-3*t^2 + 1/2"
    assert str(NumberField("w^2 - 5").element([7])) == "7"


def test_arithmetic_in_gaussian():
    K = NumberField("x^2 + 1")
    i = K.gen()
    assert (K.one() + i) ** 2 == 2 * i
    assert (i * i) == K.element([-1])
    a = K.element([3, 4])
    assert a + K.zero() == a


def test_inverse():
    F = NumberField("x^3 - x - 1")
    th = F.gen()
    inv = th.inverse()
    assert inv == F.element([-1, 0, 1])  # theta^2 - 1
    assert th * inv == F.one()
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_field_mismatch():
    K = NumberField("x^2 + 1")
    F = NumberField("x^2 + 5")
    with pytest.raises(DomainError):
        K.gen() + F.gen()


def test_norm_trace_examples():
    K = NumberField("x^2 + 1")
    nm, tr, mp = norm_trace_minpoly(K.one() + K.gen())
    assert nm == 2 and tr == 2
    F = NumberField("x^3 - x - 1")
    nm, tr, mp = norm_trace_minpoly(F.gen())
    assert tr == 0 and nm == 1
    assert mp == F.minpoly.monic()


def test_minpoly_of_rational_element():
    K = NumberField("x^2 + 1")
    nm, tr, mp = norm_trace_minpoly(K.element([5]))
    assert mp.degree == 1 and mp.eval(5) == 0
    assert nm == 25 and tr == 10


def test_is_integral():
    K5 = NumberField("x^2 - 5")
    golden = K5.element([Fraction(1, 2), Fraction(1, 2)])
    assert is_integral(golden)  # minpoly x^2 - x - 1
    assert golden.minimal_polynomial() == UniPoly("x", [-1, -1, 1])
    assert not is_integral(K5.element([Fraction(1, 2)]))
    Ki = NumberField("x^2 + 1")
    assert is_integral(Ki.gen())


def test_is_integral_agrees_with_the_minimal_polynomial():
    rng = random.Random(4)
    for text in ("x^2 + 1", "x^2 + 5", "x^2 - 5", "x^2 - x - 1", "x^3 - x - 1", "x^3 - 2"):
        K = NumberField(text)
        for denom in (1, 2, 3):
            for _ in range(6):
                a = _random_element(rng, K, denom)
                assert is_integral(a) == a.minimal_polynomial().has_integer_coeffs()
        # rational elements: the charpoly is a proper power of the minimal polynomial
        for c in (Fraction(3, 2), Fraction(-4)):
            assert is_integral(K.element([c])) == (c.denominator == 1)
    # (1 + sqrt 5) / 2 is integral with non-integer coordinates
    half = NumberField("x^2 - 5").element([Fraction(1, 2), Fraction(1, 2)])
    assert is_integral(half) and half.minimal_polynomial() == UniPoly("x", [-1, -1, 1])


def test_disc_of_quantities_examples():
    Ki = NumberField("x^2 + 1")
    assert discriminant_of_quantities(Ki, [Ki.one(), Ki.gen()]) == -4
    F = NumberField("x^3 - x - 1")
    th = F.gen()
    assert discriminant_of_quantities(F, [F.one(), th, th * th]) == -23
    assert discriminant_of_quantities(Ki, [Ki.one(), Ki.element([2])]) == 0
    with pytest.raises(DomainError):
        discriminant_of_quantities(Ki, [Ki.one()])


def _random_element(rng, field, denom=1):
    return field.element(
        [Fraction(rng.randint(-6, 6), denom) for _ in range(field.degree)]
    )


def test_norm_trace_multiplicative_additive():
    rng = random.Random(41)
    fields = [NumberField("x^2 + 1"), NumberField("x^2 + 5"), NumberField("x^3 - x - 1")]
    for _ in range(300):
        K = rng.choice(fields)
        a = _random_element(rng, K)
        b = _random_element(rng, K)
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a + b).trace() == a.trace() + b.trace()


def test_power_basis_disc_matches_minpoly_disc():
    for text in ("x^2 + 1", "x^2 + 5", "x^2 - x + 6", "x^3 - x - 1", "x^3 - 3*x - 1"):
        K = NumberField(text)
        basis = [K.element([0] * k + [1]) for k in range(K.degree)]
        assert discriminant_of_quantities(K, basis) == K.disc


def test_integral_closed_under_ring_ops():
    rng = random.Random(43)
    fields = [NumberField("x^2 + 5"), NumberField("x^2 - x + 6"), NumberField("x^3 - x - 1")]
    for _ in range(100):
        K = rng.choice(fields)
        a = _random_element(rng, K)
        b = _random_element(rng, K)
        assert is_integral(a) and is_integral(b)
        assert is_integral(a + b)
        assert is_integral(a * b)


def test_integral_implies_integer_norm_trace():
    rng = random.Random(47)
    K = NumberField("x^2 - x + 6")
    F = NumberField("x^3 - x - 1")
    for _ in range(100):
        for field in (K, F):
            a = _random_element(rng, field)
            assert a.norm().denominator == 1
            assert a.trace().denominator == 1


# -- the integer carrier num/den against a Fraction reference ----------------

_CARRIER_FIELDS = ("t^2 + 5", "t^2 - t + 6", "t^3 - t - 1", "x^2 - 5")


def _ref_reduce(coeffs, minpoly):
    """Remainder of a Fraction coefficient list modulo the monic minpoly."""
    coeffs = [Fraction(c) for c in coeffs]
    m = [Fraction(c) for c in minpoly.coeffs]
    n = len(m) - 1
    for k in range(len(coeffs) - 1, n - 1, -1):
        c = coeffs[k]
        for i in range(n + 1):
            coeffs[k - n + i] -= c * m[i]
    return coeffs[:n] + [Fraction(0)] * (n - len(coeffs))


def _ref_mul(a, b, minpoly):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, minpoly)


def _ref_inverse(b, minpoly):
    """Solve b * x = 1 by Gauss-Jordan on the matrix of multiplication by b."""
    n = len(b)
    basis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    cols = [_ref_mul(b, e, minpoly) for e in basis]
    m = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))] for i in range(n)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                m[i] = [x - m[i][k] * y for x, y in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]


def _random_coords(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(n)]


def _assert_normal_form(a):
    assert all(type(x) is int for x in a.num) and type(a.den) is int
    assert len(a.num) == a.field.degree
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    assert a.coords == tuple(Fraction(x, a.den) for x in a.num)


def test_carrier_arithmetic_matches_a_fraction_reference():
    rng = random.Random(8)
    for text in _CARRIER_FIELDS:
        K = NumberField(text)
        mp, n = K.minpoly, K.degree
        for _ in range(60):
            ra, rb = _random_coords(rng, n), _random_coords(rng, n)
            a, b = K.element(ra), K.element(rb)
            for x, ref in (
                (a, ra),
                (a + b, [x + y for x, y in zip(ra, rb)]),
                (a - b, [x - y for x, y in zip(ra, rb)]),
                (-a, [-x for x in ra]),
                (a * b, _ref_mul(ra, rb, mp)),
                (a * 3, [3 * x for x in ra]),
                (a * Fraction(-2, 9), [Fraction(-2, 9) * x for x in ra]),
                (a + Fraction(1, 2), [ra[0] + Fraction(1, 2)] + ra[1:]),
                (a ** 3, _ref_mul(_ref_mul(ra, ra, mp), ra, mp)),
                (a ** 0, [1] + [0] * (n - 1)),
            ):
                _assert_normal_form(x)
                assert x.coords == tuple(ref)
            if any(rb):
                rinv = _ref_inverse(rb, mp)
                _assert_normal_form(a / b)
                assert (a / b).coords == tuple(_ref_mul(ra, rinv, mp))
                assert (b ** -2).coords == tuple(_ref_mul(rinv, rinv, mp))
            # elements past theta^(2n-2) reduce modulo the defining polynomial
            long = _random_coords(rng, 3 * n + 1)
            assert K.element(long).coords == tuple(_ref_reduce(long, mp))
    Ki = NumberField("t^2 + 1")
    assert Ki.element_from_multipoly(parse_poly("t^3 + t^6"), "t") == -Ki.gen() - 1


def test_carrier_equality_and_hash_follow_the_value():
    rng = random.Random(9)
    for text in _CARRIER_FIELDS:
        K = NumberField(text)
        for _ in range(60):
            ra = _random_coords(rng, K.degree)
            k = rng.randint(2, 5)
            a = K.element(ra)
            # the same value from unreduced rationals, and through arithmetic
            b = K.element([Fraction(x.numerator * k, x.denominator * k) for x in ra])
            c = (a * k) / k
            for other in (b, c):
                assert a == other and hash(a) == hash(other)
                assert (a.num, a.den) == (other.num, other.den)
            rb = _random_coords(rng, K.degree)
            assert (a == K.element(rb)) == (ra == rb)
        assert K.element([Fraction(2, 2)]) == K.element([1])
        assert hash(K.element([Fraction(2, 2)])) == hash(K.element([1]))
        assert K.element([Fraction(3, 2)]) == Fraction(3, 2) and K.one() == 1
        zero = K.element([Fraction(0, 7)] * K.degree)
        assert zero.is_zero and zero.den == 1 and zero == K.zero()
        assert (K.gen() * Fraction(1, 2) - K.gen() / 2).den == 1


def test_is_integral_reads_den_then_the_charpoly():
    K = NumberField("x^2 - 5")
    golden = K.element([Fraction(1, 2), Fraction(1, 2)])  # (1 + x) / 2
    assert golden.den == 2 and is_integral(golden)
    assert not is_integral(K.gen() / 2)
    assert K.element([3, -7]).den == 1 and is_integral(K.element([3, -7]))


def test_negative_powers_are_powers_of_the_inverse():
    F = NumberField("x^3 - x - 1")
    a = F.element([1, Fraction(1, 2), -3])
    assert a ** -1 == a.inverse()
    assert a ** -3 * a ** 3 == F.one()
    assert a ** 0 == F.one()
    assert bool(a) and not bool(F.zero())


def test_equal_fields_hash_alike_whatever_the_variable():
    K, L = NumberField("t^2 + 1"), NumberField("x^2 + 1")
    assert K == L and hash(K) == hash(L) and len({K, L}) == 1
    assert K != NumberField("x^2 + 2")
