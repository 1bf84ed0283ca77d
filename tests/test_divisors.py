"""Divisor forms: norm/content/Fm, divisibility, units, prime decomposition."""

import random
from fractions import Fraction

import pytest

from kronecker import divisors
from kronecker.divisors import (
    DivisorForm,
    _cofactor,
    _matrix,
    absolute_equiv,
    decompose_prime,
    divides,
    form_norm,
    form_norm_content_fm,
    gcd_divisor,
    is_unit,
    ramified_primes,
)
from kronecker.errors import AlgebraError, DomainError
from kronecker.numberfield import NumberField
from kronecker.polyring import MultiPoly, parse_poly, poly_matrix_det


@pytest.fixture(scope="module")
def K5():
    return NumberField("t^2 + 5")


@pytest.fixture(scope="module")
def Ki():
    return NumberField("t^2 + 1")


@pytest.fixture(scope="module")
def K23():
    return NumberField("t^2 - t + 6")


@pytest.fixture(scope="module")
def QQ():
    return NumberField("t")


def _lin(field, elements, names):
    return DivisorForm.linear(elements, names)


def test_norm_content_fm(K5):
    D = _lin(K5, [K5.element([2]), K5.one() + K5.gen()], ("u", "v"))
    nm, content, fm = form_norm_content_fm(D)
    assert nm == parse_poly("4*u^2 + 4*u*v + 6*v^2")
    assert content == 2
    assert fm == parse_poly("2*u^2 + 2*u*v + 3*v^2")


def test_norm_of_constant(Ki):
    nm, content, fm = form_norm_content_fm(DivisorForm.constant(Ki, 3))
    assert nm == 9 and content == 9 and fm == 1


def test_norm_of_plain_indeterminate(Ki):
    D = DivisorForm(Ki, ("u",), {(1,): Ki.one()})
    nm, content, fm = form_norm_content_fm(D)
    assert nm == parse_poly("u^2") and content == 1


def test_non_integral_rejected(K5):
    D = DivisorForm.constant(K5, K5.element([Fraction(1, 2)]))
    with pytest.raises(DomainError):
        form_norm_content_fm(D)


def test_divides_examples(K5):
    D = _lin(K5, [K5.element([2]), K5.one() + K5.gen()], ("u", "v"))
    assert divides(D, K5.element([2]))
    assert divides(D, K5.one() + K5.gen())
    assert not divides(D, K5.element([3]))
    assert not divides(D, K5.one())


def test_divides_element_times_indeterminate(K5):
    x = K5.element([1, 2])  # any integral element
    D = DivisorForm(K5, ("u",), {(1,): x})
    assert divides(D, x)


def test_is_unit(K5, QQ):
    assert is_unit(DivisorForm.constant(QQ, 1))
    D = _lin(K5, [K5.element([2]), K5.one() + K5.gen()], ("u", "v"))
    assert not is_unit(D)
    E = _lin(QQ, [QQ.one(), QQ.one()], ("u", "v"))
    assert is_unit(E)  # u + v over Q


def test_absolute_equiv_same_coefficients(K5):
    a = _lin(K5, [K5.element([2]), K5.one() + K5.gen()], ("u", "v"))
    b = _lin(K5, [K5.element([2]), K5.one() + K5.gen()], ("w", "s"))
    assert absolute_equiv(a, b)


def test_absolute_equiv_with_constant(QQ):
    D = _lin(QQ, [QQ.element([2]), QQ.element([4])], ("u", "v"))
    assert absolute_equiv(D, DivisorForm.constant(QQ, 2))
    assert not absolute_equiv(
        DivisorForm.constant(QQ, 2), DivisorForm.constant(QQ, 3)
    )


def test_gcd_divisor_examples(QQ, K5):
    g = gcd_divisor([QQ.element([4]), QQ.element([6])])
    assert absolute_equiv(g, DivisorForm.constant(QQ, 2))
    g2 = gcd_divisor([K5.element([2]), K5.one() + K5.gen()])
    assert form_norm_content_fm(g2)[1] == 2
    # no element of norm 2 exists in Z[sqrt(-5)]: not equivalent to any constant
    for a in range(-2, 3):
        for b in range(-1, 2):
            x = K5.element([a, b])
            if x.is_zero:
                continue
            if x.norm() == 2:
                pytest.fail("no element of norm 2 should exist")
    g3 = gcd_divisor([K5.element([3, 1])])
    assert absolute_equiv(g3, DivisorForm.constant(K5, K5.element([3, 1])))


def test_gcd_divisor_rejects_zero_list(QQ):
    with pytest.raises(DomainError):
        gcd_divisor([QQ.zero()])


def test_first_fundamental_theorem(K5, Ki):
    """divides(D, E*G) with E primitive implies divides(D, G)."""
    rng = random.Random(53)
    fields = [K5, Ki]
    tested = 0
    nonvacuous = 0
    while tested < 200:
        K = rng.choice(fields)
        D = _random_form(rng, K, ("u", "v"))
        E = _random_form(rng, K, ("u", "v"))
        if not is_unit(E):
            continue
        if rng.random() < 0.5:
            H = _random_form(rng, K, ("u", "v"))
            G = D * H  # force the antecedent
        else:
            G = _random_form(rng, K, ("u", "v"))
        tested += 1
        if divides(D, E * G):
            nonvacuous += 1
            assert divides(D, G)
    assert nonvacuous >= 50


def test_divisor_gauss_lemma(K5, Ki):
    """divides(D, A*B) with A coprime to D implies divides(D, B)."""
    rng = random.Random(59)
    fields = [K5, Ki]
    tested = 0
    nonvacuous = 0
    while tested < 200:
        K = rng.choice(fields)
        D = _random_form(rng, K, ("u",))
        A = _random_form(rng, K, ("v",))
        combined = D * DivisorForm(K, ("w1",), {(1,): K.one()}) + A * DivisorForm(
            K, ("w2",), {(1,): K.one()}
        )
        if not is_unit(combined):
            continue
        if rng.random() < 0.5:
            B = D * _random_form(rng, K, ("v",))
        else:
            B = _random_form(rng, K, ("v",))
        tested += 1
        if divides(D, A * B):
            nonvacuous += 1
            assert divides(D, B)
    assert nonvacuous >= 40


def _random_form(rng, field, names):
    while True:
        coeffs = {}
        for i in range(len(names)):
            e = [0] * len(names)
            e[i] = rng.randint(0, 1)
            c = field.element([rng.randint(-3, 3) for _ in range(field.degree)])
            if not c.is_zero:
                coeffs[tuple(e)] = c
        if coeffs:
            return DivisorForm(field, names, coeffs)


def test_norm_multiplicative(K5, Ki):
    rng = random.Random(61)
    for _ in range(60):
        K = rng.choice([K5, Ki])
        a = _random_form(rng, K, ("u", "v"))
        b = _random_form(rng, K, ("w",))
        nm_a, c_a, _ = form_norm_content_fm(a)
        nm_b, c_b, _ = form_norm_content_fm(b)
        nm_ab, c_ab, _ = form_norm_content_fm(a * b)
        assert nm_ab == nm_a * nm_b
        assert c_ab == c_a * c_b  # primitive * primitive = primitive


def test_decompose_prime_gaussian(Ki):
    split = decompose_prime(Ki, 5)
    assert [(d.p, d.f) for d in split] == [(5, 1), (5, 1)]
    assert all(d.certified for d in split)
    inert = decompose_prime(Ki, 3)
    assert [(d.p, d.f) for d in inert] == [(3, 2)]


def test_decompose_prime_23(K23):
    split = decompose_prime(K23, 2)
    assert [(d.p, d.f) for d in split] == [(2, 1), (2, 1)]
    lifts = sorted(str(d.local_factor) for d in split)
    assert lifts == ["t", "t + 1"]
    assert all(d.certified for d in split)


def test_decompose_prime_rejects_ramified(Ki, K23):
    with pytest.raises(DomainError):
        decompose_prime(Ki, 2)
    with pytest.raises(DomainError):
        decompose_prime(K23, 23)


def test_bezout_witnesses(K23):
    split = decompose_prime(K23, 2)
    a_poly, b_poly, c, e = split[0].bezout[1]
    assert c % 2 != 0
    lhs = a_poly * split[0].local_factor + b_poly * split[1].local_factor
    assert lhs == c + e * 2


def test_prime_decomposition_soundness():
    """Norm bookkeeping for every corpus field and unramified p <= 50."""
    from kronecker import primes

    fields = [NumberField(t) for t in ("t^2 + 1", "t^2 + 5", "t^2 - t + 6", "t^3 - t - 1")]
    for K in fields:
        n = K.degree
        for p in primes.primes_up_to(50):
            if K.disc % p == 0:
                continue
            decomp = decompose_prime(K, p)
            assert sum(d.f for d in decomp) == n
            prod = decomp[0].form
            for d in decomp[1:]:
                prod = prod * d.form
            _, content, _ = form_norm_content_fm(prod)
            assert content == p**n


def test_residue_class_count():
    """The number of residues modulo a prime divisor equals its norm."""
    cases = [
        (NumberField("t^2 + 1"), [3, 5, 7]),
        (NumberField("t^2 + 5"), [3, 7]),
    ]
    for K, ps in cases:
        for p in ps:
            for d in decompose_prime(K, p):
                # enumerate a + b*theta over a full residue grid
                classes = []
                for a in range(p):
                    for b in range(p):
                        x = K.element([a, b])
                        for rep in classes:
                            if divides(d.form, x - rep):
                                break
                        else:
                            classes.append(x)
                assert len(classes) == p**d.f


def test_ramified_primes_examples():
    assert ramified_primes(NumberField("t^2 + 1")) == {2}
    assert ramified_primes(NumberField("t^2 - t + 6")) == {23}
    assert ramified_primes(NumberField("t^3 - t - 1")) == {23}
    assert ramified_primes(NumberField("t")) == set()


def _char_equation_by_determinant(D, G):
    """The characteristic-equation criterion the long way round, with
    neither the cofactor nor the quotient: det(X*M_D - M_(G*Fm(D))) =
    Nm(X*D - G*Fm(D)) in one extra variable X_, divided exactly by Nm(D),
    must have integer coefficients."""
    nm, _, fm = form_norm_content_fm(D)
    gfm = DivisorForm.from_multipoly(D.field, fm) * G
    variables = gfm.unames + ("X_",)  # Fm(D), so gfm, is a form in all of D's indeterminates
    x = MultiPoly.var("X_", variables)
    md, mg = ([[a.with_variables(variables) for a in row] for row in _matrix(F)] for F in (D, gfm))
    w = poly_matrix_det([[x * a - b for a, b in zip(ra, rb)] for ra, rb in zip(md, mg)])
    quo = w.div_exact(nm)
    return quo is not None and quo.den == 1


def _agreement_pairs(rng, fields, names, count):
    """count (D, G) pairs over forms in the given indeterminates; every
    other D carries a nonunit constant factor and every third G is a
    multiple of D, so that both answers occur."""
    for k in range(count):
        K = rng.choice(fields)
        D = _random_form(rng, K, names)
        if k % 2:
            D = D * K.element([rng.randint(1, 3)] + [rng.randint(-2, 2) for _ in range(K.degree - 1)])
        if k % 3 == 0:
            G = D * _random_form(rng, K, names[:1])
        elif rng.random() < 0.5:
            G = _random_form(rng, K, names[:1])
        else:
            G = DivisorForm.constant(K, K.element([rng.randint(-5, 5) or 1]))
        yield D, G


def test_divides_criteria_always_agree(K5, Ki):
    """divides() agrees with the determinant-and-divide route on random
    pairs, over quadratic fields in two indeterminates and over the cubic
    t^3 - t - 1 in two and three, where criterion 2 runs a 3 x 3 Berkowitz
    recurrence over Q[u]."""
    rng = random.Random(67)
    K3 = NumberField("t^3 - t - 1")
    pairs = [
        *_agreement_pairs(rng, [K5, Ki], ("u", "v"), 120),
        *_agreement_pairs(rng, [K3], ("u", "v"), 30),
        *_agreement_pairs(rng, [K3], ("u", "v", "w"), 20),
    ]
    answers = [divides(D, G) for D, G in pairs]
    assert answers == [_char_equation_by_determinant(D, G) for D, G in pairs]
    assert True in answers and False in answers


def test_divides_raises_when_the_criteria_disagree(K5, monkeypatch):
    """The agreement check is a raise, so it survives python -O."""
    D = _lin(K5, [K5.element([2]), K5.one() + K5.gen()], ("u", "v"))
    criterion = divisors._char_equation_criterion
    monkeypatch.setattr(divisors, "_char_equation_criterion", lambda q: not criterion(q))
    for G in (K5.element([2]), K5.element([3])):
        with pytest.raises(AlgebraError, match="criteria disagree"):
            divides(D, G)


def test_negative_form_power_raises(K5):
    D = _lin(K5, [K5.element([2]), K5.one() + K5.gen()], ("u", "v"))
    with pytest.raises(AlgebraError):
        D ** -1
    assert D ** 2 == D * D


@pytest.mark.parametrize(
    "p, witnesses",
    [
        (7, [{1: ("6*t + 4", "1", "4", "t^2 + 3*t + 1")}, {0: ("1", "6*t + 4", "4", "t^2 + 3*t + 1")}]),
        (
            59,
            [
                {1: ("1", "58", "30", "t + 45"), 2: ("1", "58", "21", "t + 54")},
                {0: ("58", "1", "30", "t + 45"), 2: ("1", "58", "50", "t + 54")},
                {0: ("58", "1", "21", "t + 54"), 1: ("58", "1", "50", "t + 54")},
            ],
        ),
    ],
)
def test_bezout_witnesses_are_pinned(p, witnesses):
    decomp = decompose_prime(NumberField("t^3 - t - 1"), p)
    assert [{j: tuple(map(str, w)) for j, w in d.bezout.items()} for d in decomp] == witnesses


def test_equal_forms_hash_alike(K5):
    t = K5.gen()
    pairs = [
        # u1*t + u2 under both orders of the indeterminates
        (DivisorForm(K5, ("u1", "u2"), {(1, 0): t, (0, 1): 1}), DivisorForm(K5, ("u2", "u1"), {(0, 1): t, (1, 0): 1})),
        # t*u1 with and without an unused u2
        (DivisorForm(K5, ("u1",), {(1,): t}), DivisorForm(K5, ("u1", "u2"), {(1, 0): t})),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def _coeffs_over(F, unames):
    """The AlgNum coefficients of F keyed by exponents over unames."""
    return {tuple(e[F.unames.index(u)] if u in F.unames else 0 for u in unames): c for e, c in F.coeffs.items()}


def _divide_forms_by_rescan(G, D):
    """G / D in K[u] by graded-lex long division over AlgNum coefficients,
    the leading remainder term found by a max over the whole remainder at
    every step; None when a remainder survives."""
    unames = D.unames + tuple(u for u in G.unames if u not in D.unames)
    num, den = _coeffs_over(G, unames), _coeffs_over(D, unames)
    key = lambda e: (sum(e), e)  # noqa: E731
    de = max(den, key=key)
    inv = den[de].inverse()
    quo = {}
    while num:
        ne = max(num, key=key)
        qe = tuple(i - j for i, j in zip(ne, de))
        if qe and min(qe) < 0:
            return None
        qc = quo[qe] = num[ne] * inv
        for e, c in den.items():
            k = tuple(i + j for i, j in zip(e, qe))
            v = num[k] - qc * c if k in num else -(qc * c)
            if v.is_zero:
                del num[k]
            else:
                num[k] = v
    return DivisorForm(D.field, unames, quo)


def _random_integral(rng, K):
    """A random algebraic integer of K; over t^2 - 5 half of them are
    (a + b*t)/2 with a = b mod 2."""
    if K.minpoly.num == (-5, 0, 1) and rng.random() < 0.5:
        a = rng.randint(-4, 4)
        return K.element([Fraction(a, 2), Fraction(a + 2 * rng.randint(-2, 2), 2)])
    return K.element([rng.randint(-3, 3) for _ in range(K.degree)])


def _random_integral_form(rng, K, names):
    while True:
        coeffs = {tuple(rng.randint(0, 1) for _ in names): _random_integral(rng, K) for _ in range(rng.randint(1, 3))}
        if any(not c.is_zero for c in coeffs.values()):
            return DivisorForm(K, names, coeffs)


@pytest.mark.parametrize("minpoly", ["t^2 + 1", "t^2 - 5", "t^3 - t - 1"])
def test_cofactor_gives_the_norm_and_the_long_division_quotient(minpoly):
    """D*C = Nm(D), and G*C/content equals the K[u] quotient of G*Fm(D) by D."""
    K = NumberField(minpoly)
    rng = random.Random(71)
    names = ("u1", "u2", "u3")
    halves = 0
    for _ in range(25):
        D = _random_integral_form(rng, K, names[: rng.randint(1, 3)])
        G = _random_integral_form(rng, K, tuple(rng.sample(names, rng.randint(1, 3))))
        halves += D.poly.den == 2
        nm, content, fm = form_norm_content_fm(D)
        C = _cofactor(D, _matrix(D))
        assert (D * C).poly == form_norm(D) == nm
        quo = G * C * Fraction(1, content)
        ref = _divide_forms_by_rescan(G * DivisorForm.from_multipoly(K, fm), D)
        assert quo == ref
        assert divides(D, G) == ref.is_integral_form()
    assert halves > 0 or minpoly != "t^2 - 5"
