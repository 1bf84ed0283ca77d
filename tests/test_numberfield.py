"""Algebraic-number arithmetic in monogenic orders."""

import random
from fractions import Fraction

import pytest

from kronecker.errors import DomainError
from kronecker.numberfield import (
    NumberField,
    discriminant_of_quantities,
    is_integral,
    nf_new,
    norm_trace_minpoly,
)
from kronecker.polyring import UniPoly, parse_poly


def test_gaussian_field():
    K = nf_new("x^2 + 1")
    assert K.degree == 2 and K.disc == -4


def test_cubic_field_disc():
    K = nf_new("x^3 - x - 1")
    assert K.degree == 3 and K.disc == -23


def test_reducible_rejected():
    with pytest.raises(DomainError):
        nf_new("x^2 - 1")


def test_non_monic_rejected():
    with pytest.raises(DomainError):
        nf_new("2*x^2 + 1")


def test_arithmetic_in_gaussian():
    K = nf_new("x^2 + 1")
    i = K.gen()
    assert (K.one() + i) ** 2 == 2 * i
    assert (i * i) == K.element([-1])
    a = K.element([3, 4])
    assert a + K.zero() == a


def test_inverse():
    F = nf_new("x^3 - x - 1")
    th = F.gen()
    inv = th.inverse()
    assert inv == F.element([-1, 0, 1])  # theta^2 - 1
    assert th * inv == F.one()
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_field_mismatch():
    K = nf_new("x^2 + 1")
    F = nf_new("x^2 + 5")
    with pytest.raises(DomainError):
        K.gen() + F.gen()


def test_norm_trace_examples():
    K = nf_new("x^2 + 1")
    nm, tr, mp = norm_trace_minpoly(K.one() + K.gen())
    assert nm == 2 and tr == 2
    F = nf_new("x^3 - x - 1")
    nm, tr, mp = norm_trace_minpoly(F.gen())
    assert tr == 0 and nm == 1
    assert mp == F.minpoly.monic()


def test_minpoly_of_rational_element():
    K = nf_new("x^2 + 1")
    nm, tr, mp = norm_trace_minpoly(K.element([5]))
    assert mp.degree == 1 and mp.eval(5) == 0
    assert nm == 25 and tr == 10


def test_is_integral():
    K5 = nf_new("x^2 - 5")
    golden = K5.element([Fraction(1, 2), Fraction(1, 2)])
    assert is_integral(golden)  # minpoly x^2 - x - 1
    assert golden.minimal_polynomial() == UniPoly("x", [-1, -1, 1])
    assert not is_integral(K5.element([Fraction(1, 2)]))
    Ki = nf_new("x^2 + 1")
    assert is_integral(Ki.gen())


def test_is_integral_agrees_with_the_minimal_polynomial():
    rng = random.Random(4)
    for text in ("x^2 + 1", "x^2 + 5", "x^2 - 5", "x^2 - x - 1", "x^3 - x - 1", "x^3 - 2"):
        K = nf_new(text)
        for denom in (1, 2, 3):
            for _ in range(6):
                a = _random_element(rng, K, denom)
                assert is_integral(a) == a.minimal_polynomial().has_integer_coeffs()
        # rational elements: the charpoly is a proper power of the minimal polynomial
        for c in (Fraction(3, 2), Fraction(-4)):
            assert is_integral(K.element([c])) == (c.denominator == 1)
    # (1 + sqrt 5) / 2 is integral with non-integer coordinates
    half = nf_new("x^2 - 5").element([Fraction(1, 2), Fraction(1, 2)])
    assert is_integral(half) and half.minimal_polynomial() == UniPoly("x", [-1, -1, 1])


def test_disc_of_quantities_examples():
    Ki = nf_new("x^2 + 1")
    assert discriminant_of_quantities(Ki, [Ki.one(), Ki.gen()]) == -4
    F = nf_new("x^3 - x - 1")
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
    fields = [nf_new("x^2 + 1"), nf_new("x^2 + 5"), nf_new("x^3 - x - 1")]
    for _ in range(300):
        K = rng.choice(fields)
        a = _random_element(rng, K)
        b = _random_element(rng, K)
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a + b).trace() == a.trace() + b.trace()


def test_power_basis_disc_matches_minpoly_disc():
    for text in ("x^2 + 1", "x^2 + 5", "x^2 - x + 6", "x^3 - x - 1", "x^3 - 3*x - 1"):
        K = nf_new(text)
        basis = [K.element([0] * k + [1]) for k in range(K.degree)]
        assert discriminant_of_quantities(K, basis) == K.disc


def test_integral_closed_under_ring_ops():
    rng = random.Random(43)
    fields = [nf_new("x^2 + 5"), nf_new("x^2 - x + 6"), nf_new("x^3 - x - 1")]
    for _ in range(100):
        K = rng.choice(fields)
        a = _random_element(rng, K)
        b = _random_element(rng, K)
        assert is_integral(a) and is_integral(b)
        assert is_integral(a + b)
        assert is_integral(a * b)


def test_integral_implies_integer_norm_trace():
    rng = random.Random(47)
    K = nf_new("x^2 - x + 6")
    F = nf_new("x^3 - x - 1")
    for _ in range(100):
        for field in (K, F):
            a = _random_element(rng, field)
            assert a.norm().denominator == 1
            assert a.trace().denominator == 1
