"""Dense polynomial arithmetic modulo an integer, and factorization over F_p."""

import random

import pytest

from kronecker import modp
from kronecker.errors import AlgebraError


def _value(f, x, m):
    out = 0
    for c in reversed(f):
        out = (out * x + c) % m
    return out


def test_products_agree_with_evaluation():
    # evaluation is a ring map, and at len(a) + len(b) - 1 distinct points
    # modulo a large prime it determines the product
    rng = random.Random(61)
    for m in (1009, 2**127 - 1):
        for la, lb in ((1, 500), (20, 20), (21, 40), (64, 3), (100, 100)):
            a = [rng.randrange(m) for _ in range(la - 1)] + [rng.randrange(1, m)]
            b = [rng.randrange(m) for _ in range(lb - 1)] + [rng.randrange(1, m)]
            ab = modp.mul(a, b, m)
            assert len(ab) == la + lb - 1
            for x in range(la + lb - 1):
                assert _value(ab, x, m) == _value(a, x, m) * _value(b, x, m) % m
            assert modp.mul(a, [], m) == []


def test_product_of_linear_factors_agrees_with_evaluation():
    rng = random.Random(83)
    for m in (1009, 7**5, 2**127 - 1):
        for size in (0, 1, 2, 7, 30):
            values = [rng.randrange(-2 * m, 2 * m) for _ in range(size)]
            f = modp.from_roots(values, m)
            assert len(f) == size + 1 and f[-1] == 1
            for x in range(size + 2):
                expected = 1
                for v in values:
                    expected = expected * (x - v) % m
                assert _value(f, x, m) == expected


def _from_roots_directly(values, m):
    """The linear factors multiplied in one at a time."""
    out = [1]
    for v in values:
        out = [(a - v * b) % m for a, b in zip([0] + out, out + [0])]
    return out


def test_product_tree_equals_the_direct_product():
    # leaves of 8 values: sizes on both sides of one leaf, an odd leaf
    # count and the 120 values of an S5 orbit polynomial
    rng = random.Random(67)
    for m in (2**89 - 1, 3**40, 2):
        for size in (0, 1, 7, 8, 9, 31, 120):
            values = [rng.randrange(m) for _ in range(size)]
            assert modp.from_roots(values, m) == _from_roots_directly(values, m), (m, size)
    # a modulus near the Galois moduli, and values left unreduced
    m = 1973**40
    values = [rng.randrange(-m, 2 * m) for _ in range(120)]
    assert modp.from_roots(values, m) == _from_roots_directly(values, m)


def test_roots_agree_with_evaluation():
    rng = random.Random(89)
    for p in (3, 5, 7, 101):
        for _ in range(40):
            f = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [rng.randrange(1, p)]
            assert modp.roots(f, p) == [a for a in range(p) if _value(f, a, p) == 0]
    # degree 1, where x^p - x reduces to 0 modulo f; repeated roots count once
    assert modp.roots([-2, 1], 7) == [2]
    assert modp.roots([0, 1], 7) == [0]
    assert modp.roots(modp.mul([1, 1], [1, 1], 5), 5) == [4]
    assert modp.roots(modp.from_roots(range(11), 11), 11) == list(range(11))
    with pytest.raises(AlgebraError):
        modp.roots([7, 14], 7)


def test_division_identity_modulo_a_prime_power():
    rng = random.Random(67)
    m = 7**5
    for _ in range(100):
        a = modp.trim([rng.randrange(m) for _ in range(rng.randint(0, 12))], m)
        b = [rng.randrange(m) for _ in range(rng.randint(0, 6))] + [rng.choice([1, 3, 5])]
        q, r = modp.quo_rem(a, b, m)
        assert len(r) < len(b)
        assert modp.add(modp.mul(q, b, m), r, m) == a
    with pytest.raises(ZeroDivisionError):
        modp.quo_rem([1, 2], [], m)


def test_ext_euclid_is_a_bezout_identity():
    rng = random.Random(71)
    p = 101
    for _ in range(100):
        a = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
        b = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
        if len(modp.gcd(a, b, p)) > 1:
            with pytest.raises(AlgebraError):
                modp.ext_euclid(a, b, p)
            continue
        s, t, c = modp.ext_euclid(a, b, p)
        assert c % p and modp.add(modp.mul(s, a, p), modp.mul(t, b, p), p) == [c % p]


def test_squarefree_split_with_inseparable_parts():
    p = 3
    # (x + 1)^2 * (x^2 + 1)^3 * x^4 over F_3: x^2 + 1 cubed is a polynomial in x^3
    f = [1]
    for g, k in (([1, 1], 2), ([1, 0, 1], 3), ([0, 1], 4)):
        for _ in range(k):
            f = modp.mul(f, g, p)
    assert sorted(modp.sqf_list(f, p)) == sorted([([1, 1], 2), ([1, 0, 1], 3), ([0, 1], 4)])
    lc, factors = modp.factor(modp.mul([2], f, p), p)
    assert lc == 2 and factors == [([0, 1], 4), ([1, 1], 2), ([1, 0, 1], 3)]


def test_equal_degree_split_is_deterministic():
    p = 1009
    f = [1] + [0] * 11 + [1]  # x^12 + 1
    first = modp.factor(f, p)
    assert all(modp.factor(f, p) == first for _ in range(3))
    product = [first[0]]
    for g, k in first[1]:
        assert k == 1
        product = modp.mul(product, g, p)
    assert product == f


def test_hensel_step_lifts_both_relations():
    rng = random.Random(79)
    p = 5
    for _ in range(30):
        g0 = [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [rng.randrange(1, p)]
        h0 = [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1]
        if len(modp.gcd(g0, h0, p)) > 1:
            continue
        # an integer polynomial f = g0 h0 mod p, perturbed by p times a random tail
        f = modp.mul(g0, h0, p ** 8)
        f = [c + p * rng.randint(-20, 20) for c in f[:-1]] + [f[-1]]
        s, t = modp.bezout(g0, h0, p)
        assert len(s) < len(h0) and len(t) < len(g0)
        g, h, m = g0, h0, p
        for _ in range(3):
            g, h, s, t = modp.hensel_step(f, g, h, s, t, m)
            m *= m
            assert h[-1] == 1 and len(h) == len(h0) and len(g) == len(g0)
            assert modp.mul(g, h, m) == modp.trim(f, m)
            assert modp.add(modp.mul(s, g, m), modp.mul(t, h, m), m) == [1]
            assert modp.trim(g, p) == modp.trim(g0, p) and modp.trim(h, p) == h0


def _irreducible_count(p, d):
    """Monic irreducibles of degree d over F_p, by Gauss's formula."""
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1}
    return sum(mobius[d // e] * p**e for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("p, d", [(2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2)])
def test_x_to_the_field_size_minus_x_splits_into_every_irreducible(p, d):
    # x^(p^d) - x is the product of all monic irreducibles whose degree
    # divides d, each once: several of each degree for the EDF to separate
    f = modp.trim([0, -1] + [0] * (p**d - 2) + [1], p)
    lc, factors = modp.factor(f, p)
    assert lc == 1 and all(k == 1 for _, k in factors)
    degrees = [len(g) - 1 for g, _ in factors]
    assert len(set(map(tuple, (g for g, _ in factors)))) == len(factors)
    for e in range(1, d + 1):
        assert degrees.count(e) == (_irreducible_count(p, e) if d % e == 0 else 0)


def test_symmetric_lift_takes_the_range_above_minus_half():
    assert modp.symmetric([0, 1, 2, 3, 4], 5) == [0, 1, 2, -2, -1]
    assert modp.symmetric([0, 2, 3, 5], 6) == [0, 2, 3, -1]
    assert modp.symmetric(modp.from_roots([-3 % 101, 7], 101), 101) == [-21, -4, 1]
