"""Exact polynomial arithmetic: parser, gcd, resultants, substitution."""

import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronecker import polyring
from kronecker.errors import AlgebraError, DomainError, ParseError
from kronecker.polyring import (
    MultiPoly,
    UniPoly,
    content_primitive,
    discriminant,
    gcd,
    kronecker_inverse,
    kronecker_substitute,
    mul_terms,
    parse_poly,
    poly_matrix_det,
    resultant,
    sylvester_matrix,
)


def rand_poly(rng, nvars=2, max_deg=3, nterms=4, coeff=9, den=1):
    names = ("x", "y", "z", "u", "v", "w")[:nvars]
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = Fraction(rng.randint(-coeff, coeff), rng.randint(1, den) if den > 1 else 1)
        if c:
            terms[e] = terms.get(e, 0) + c
    return MultiPoly(names, {e: c for e, c in terms.items() if c})


# -- parsing ----------------------------------------------------------------


def test_parse_zero():
    assert parse_poly("0").is_zero


def test_parse_simple():
    p = parse_poly("x^2 - 1")
    assert p.terms == {(2,): Fraction(1), (0,): Fraction(-1)}


def test_parse_product_expands():
    assert parse_poly("(x+y)*(x-y)") == parse_poly("x^2 - y^2")


def test_parse_rational_literal():
    p = parse_poly("1/2*x + 3/4")
    assert p.terms == {(1,): Fraction(1, 2), (0,): Fraction(3, 4)}


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + * y")
    assert err.value.position == 4


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("x + q", variables=("x", "y"))


def test_parse_exponent_overflow():
    with pytest.raises(ParseError):
        parse_poly(f"x^{2**31}")


def test_juxtaposition_is_not_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2 x")


def test_variable_order_first_appearance():
    assert parse_poly("y + x").variables == ("y", "x")
    assert parse_poly("y + x", variables=("x", "y")).variables == ("x", "y")


def test_print_parse_roundtrip_corpus():
    corpus = [
        "0",
        "x^2 - 1",
        "(x+y)*(x-y)",
        "-x^3 + 2*x*y - 7",
        "1/3*x^2*y^3 - 5/2",
        "x*y*z - x - y - z + 1",
        "-1",
        "x^2 + 2*x + 1",
    ]
    for text in corpus:
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.fractions(min_value=-50, max_value=50),
        ),
        min_size=0,
        max_size=6,
    )
)
def test_print_parse_roundtrip_random(items):
    terms = {}
    for e, c in items:
        terms[e] = terms.get(e, Fraction(0)) + c
    p = MultiPoly(("x", "y"), {e: c for e, c in terms.items() if c})
    assert parse_poly(str(p), variables=("x", "y")) == p


# -- content and primitive part ----------------------------------------------


def test_content_linear():
    c, prim = content_primitive(parse_poly("2*x + 4"))
    assert c == 2 and prim == parse_poly("x + 2")


def test_content_bivariate():
    c, prim = content_primitive(parse_poly("6*x^2*y - 9*y"))
    assert c == 3 and prim == parse_poly("2*x^2*y - 3*y")


def test_content_zero_convention():
    c, prim = content_primitive(parse_poly("0"))
    assert c == 0 and prim.is_zero


def test_content_gauss_multiplicative():
    rng = random.Random(11)
    for _ in range(120):
        p = rand_poly(rng)
        q = rand_poly(rng)
        if p.is_zero or q.is_zero:
            continue
        cp = content_primitive(p)[0]
        cq = content_primitive(q)[0]
        cpq = content_primitive(p * q)[0]
        assert cpq == cp * cq


# -- gcd ----------------------------------------------------------------------


def test_gcd_monomials():
    assert gcd(parse_poly("x*z"), parse_poly("y*z")) == parse_poly("z")


def test_gcd_explicit_factor():
    assert gcd(parse_poly("x^2-1"), parse_poly("x-1")) == parse_poly("x - 1")


def test_gcd_with_zero():
    p = parse_poly("-3*x + 3")
    g = gcd(p, MultiPoly.zero(("x",)))
    assert g == parse_poly("x - 1")  # normalized primitive, positive lc
    assert gcd(MultiPoly.zero(()), MultiPoly.zero(())).is_zero


def test_gcd_divides_both_ways():
    rng = random.Random(5)
    checked = 0
    for _ in range(500):
        p = rand_poly(rng, nvars=rng.randint(1, 3), max_deg=2, nterms=3, coeff=6)
        q = rand_poly(rng, nvars=rng.randint(1, 3), max_deg=2, nterms=3, coeff=6)
        common = rand_poly(rng, nvars=2, max_deg=2, nterms=2, coeff=3)
        if not common.is_zero:
            p = p * common
            q = q * common
        g = gcd(p, q)
        if g.is_zero:
            continue
        for f in (p, q):
            quo = f.div_exact(g)
            assert quo is not None
            assert g * quo == f
        checked += 1
    assert checked >= 450


def test_gcd_keeps_the_content_of_a_vanishing_evaluation():
    # at c = 31 the first input becomes 31*(b^2 - 31*b), which vanishes at
    # b = 31; gcd(a, 0) must keep the content of a, or the answer shrinks to c
    p = parse_poly("b^2*c - b*c^2")
    q = parse_poly("-6*b^2*c^2", ["b", "c"])
    assert gcd(p, q) == parse_poly("b*c")


def test_gcd_heuristic_matches_prs():
    rng = random.Random(23)
    for _ in range(400):
        nvars = rng.choice((1, 1, 2, 3, 5, 6))
        den = rng.choice((1, 1, 4))
        p = rand_poly(rng, nvars, rng.randint(0, 3), rng.randint(0, 4), 9, den)
        q = rand_poly(rng, nvars, rng.randint(0, 3), rng.randint(0, 4), 9, den)
        common = rand_poly(rng, nvars, rng.randint(0, 2), rng.randint(1, 3), 5, den)
        shape = rng.random()
        if shape < 0.6:
            p, q = p * common, q * common
        elif shape < 0.7:
            q = p
        elif shape < 0.8:
            q = p * common * common
        g = gcd(p, q)
        ref = polyring._gcd_prs(p, q)
        assert str(g) == str(ref), (p, q)


def test_gcd_falls_back_to_prs(monkeypatch):
    monkeypatch.setattr(polyring, "_HEU_MAX_BITS", 1)
    p = parse_poly("(x^2 + y*z - 3)*(x*y - z + 2)")
    q = parse_poly("(x^2 + y*z - 3)*(x*z + y^2 - 1)")
    assert gcd(p, q) == parse_poly("x^2 + y*z - 3")


def test_gcd_of_large_trivariate_products_is_fast():
    # perfbench resultant seed 1: cofactors of x-degree 3 and (y, z)-degree
    # 2; the pseudo-remainder sequence takes more than a minute on it
    p = parse_poly(
        "2*x^4*y^2 - 6*x^4*y*z + 4*x^4*y - 6*x^4*z^2 + 6*x^4*z + 6*x^4 - 3*x^3*y^3"
        " + 6*x^3*y^2*z - 7*x^3*y^2 + 18*x^3*y*z^2 - 12*x^3*y*z - 9*x^3*y + 9*x^3*z^3"
        " - 4*x^3*z^2 - 16*x^3*z + x^3 - 5*x^2*y^2 - 3*x^2*y*z^2 - 3*x^2*y*z - 13*x^2*y"
        " - 3*x^2*z^3 + x^2*z^2 - 2*x^2*z + 3*x*y^3 + 12*x*y^2*z + 12*x*y^2 + 15*x*y*z^2"
        " + 15*x*y*z + 2*x*y + 6*x*z^3 + 3*x*z^2 - 8*x*z - 3*x - 3*y^3 - 12*y^2*z - 4*y^2"
        " - 15*y*z^2 + 2*y - 6*z^3 + 4*z^2 + 5*z + 1"
    )
    q = parse_poly(
        "6*x^4*y^2 + 6*x^4*y*z - 4*x^4*y - 6*x^4*z^2 - 6*x^4 - 9*x^3*y^3 - 18*x^3*y^2*z"
        " - x^3*y^2 + x^3*y*z + 5*x^3*y + 9*x^3*z^3 - 3*x^3*z^2 + 3*x^3*z + x^3"
        " + 6*x^2*y^3 + 9*x^2*y^2*z + 17*x^2*y^2 + 12*x^2*y*z^2 + 25*x^2*y*z + 9*x^2*z^3"
        " + 18*x^2*z^2 + 2*x^2*z + 3*x^2 - 9*x*y^3 - 18*x*y^2*z - 18*x*y*z^2 + 8*x*y*z"
        " - 6*x*y - 9*x*z^3 + x*z^2 - 7*x*z - x + 9*y^3 + 15*y^2*z + 12*y^2 + 9*y*z^2"
        " + 20*y*z + 3*y + 3*z^3 + 10*z^2 + 3*z",
        ["x", "y", "z"],
    )
    start = time.perf_counter()
    g = gcd(p, q)
    assert time.perf_counter() - start < 1.0
    assert g == parse_poly("2*x - 3*y - 3*z - 1")


# -- resultants -----------------------------------------------------------------


def test_resultant_linear():
    p = parse_poly("x - a")
    q = parse_poly("x - b")
    assert resultant(p, q, "x") == parse_poly("a - b")


def test_resultant_eliminates():
    assert resultant(parse_poly("x^2+y^2-1"), parse_poly("y", ["y"]), "y") == parse_poly(
        "x^2 - 1"
    )


def test_resultant_shared_factor_vanishes():
    p = parse_poly("x^2 + 1")
    assert resultant(p, p, "x").is_zero


def test_resultant_constant_convention():
    assert resultant(parse_poly("5", ["x"]), parse_poly("x^3 - 2"), "x") == 125
    with pytest.raises(DomainError):
        resultant(parse_poly("3", ["x"]), parse_poly("4", ["x"]), "x")


def test_resultant_swap_sign():
    rng = random.Random(13)
    for _ in range(40):
        p = rand_poly(rng, nvars=2, max_deg=3, nterms=3)
        q = rand_poly(rng, nvars=2, max_deg=3, nterms=3)
        if p.degree("x") < 1 or q.degree("x") < 1:
            continue
        lhs = resultant(p, q, "x")
        rhs = resultant(q, p, "x")
        sign = (-1) ** (p.degree("x") * q.degree("x"))
        assert lhs == rhs * sign


def test_resultant_is_sylvester_det():
    p = parse_poly("2*x^2 + y")
    q = parse_poly("x^3 - y*x + 1")
    assert resultant(p, q, "x") == poly_matrix_det(sylvester_matrix(p, q, "x"))


def _rand_entry(rng, nvars, den):
    shape = rng.random()
    names = ("x", "y", "z", "u")[:nvars]
    if shape < 0.2:
        return MultiPoly.zero(names)
    if shape < 0.35:
        return MultiPoly.const(Fraction(rng.randint(-9, 9), den), names)
    return rand_poly(rng, nvars, 2, rng.randint(1, 4), 20, den)


def _leibniz_det(rows):
    """Reference determinant of MultiPoly rows: the signed sum over
    permutations of the products of one entry from each row."""
    n = len(rows)
    total = MultiPoly.zero(rows[0][0].variables) if n else MultiPoly.const(1)
    for perm in itertools.permutations(range(n)):
        factors = [rows[i][j] for i, j in enumerate(perm)]
        if not all(factors):
            continue
        term = factors[0]
        for f in factors[1:]:
            term = term * f
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total = total - term if inversions % 2 else total + term
    return total


def _term_route_calls(monkeypatch):
    """A list that records the size of every matrix that poly_matrix_det
    sends to the term maps."""
    calls = []
    route = polyring._poly_matrix_det_terms

    def counted(rows):
        calls.append(len(rows))
        return route(rows)

    monkeypatch.setattr(polyring, "_poly_matrix_det_terms", counted)
    return calls


def test_packed_det_matches_term_bareiss():
    rng = random.Random(31)
    for _ in range(150):
        nvars = rng.randint(1, 4)
        n = rng.randint(1, 4 if nvars < 4 else 3)
        rows = []
        for _ in range(n):
            den = rng.choice((1, 1, 6))
            rows.append([_rand_entry(rng, nvars, den) for _ in range(n)])
        assert poly_matrix_det(rows) == polyring._poly_matrix_det_terms(rows) == _leibniz_det(rows)


def test_det_gate_cases_on_both_routes():
    names = ("x", "y", "z")
    x, y, z = (MultiPoly.var(v, names) for v in names)
    zero, one = MultiPoly.zero(names), MultiPoly.const(1, names)
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        ([[zero, x], [y, one]], -x * y),  # a zero first pivot
        ([[zero, x, y], [zero, y, z], [x, one, z]], x * (x * z - y * y)),  # zero leading column above the last row
        ([[x, y], [zero, zero]], zero),  # a zero row
        ([[zero] * 3 for _ in range(3)], zero),
        ([[MultiPoly.const(2), MultiPoly.const(-3)], [MultiPoly.const(5), MultiPoly.const(7)]], MultiPoly.const(29)),
        ([[one * 4]], one * 4),
        ([[x * half + third, y * -half], [z * third, x - half]], None),  # rational rows
        ([[x * half, y * third, one], [z, x * third, y * half], [one * third, z * half, x]], None),
    ]
    for rows, expect in cases:
        det = _leibniz_det(rows)
        assert poly_matrix_det(rows) == polyring._poly_matrix_det_terms(rows) == det
        assert expect is None or det == expect


def _sparse_entry(rng, names):
    """Zero, or one or two monomials in at most two variables of degree up
    to 4, with rational coefficients and sometimes a constant term."""
    if rng.random() < 0.3:
        return MultiPoly.zero(names)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        e = [0] * len(names)
        for v in rng.sample(range(len(names)), min(2, len(names))):
            e[v] = rng.randint(1, 4)
        terms[tuple(e)] = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
    if rng.random() < 0.3:
        terms[(0,) * len(names)] = rng.randint(-4, 4)
    return MultiPoly(names, terms)


def test_sparse_det_in_1_to_19_variables(monkeypatch):
    calls = _term_route_calls(monkeypatch)
    rng = random.Random(41)
    for nvars in range(1, 20):
        names = tuple(f"a{i}" for i in range(nvars))
        n = rng.randint(2, 4)
        rows = [[_sparse_entry(rng, names) for _ in range(n)] for _ in range(n)]
        before = len(calls)
        assert poly_matrix_det(rows) == _leibniz_det(rows)
        # past one variable the slots outnumber the terms, so the term maps run
        assert len(calls) - before == (nvars > 1)


def test_packed_det_at_digit_boundaries():
    # a 1x1 monomial attains the Leibniz bound, so its coefficient sits at
    # the edge of the signed digit; the 2x2 case mixes signs across slots
    x = MultiPoly.var("x", ("x", "y"))
    y = MultiPoly.var("y", ("x", "y"))
    for c in (127, 128, 255, 256, 2**63, 2**64 - 1):
        for sign in (1, -1):
            rows = [[x * (sign * c), y], [MultiPoly.zero(("x", "y")), x - 1]]
            assert poly_matrix_det(rows) == x * x * (sign * c) - x * (sign * c)
            assert poly_matrix_det([[y * (sign * c)]]) == y * (sign * c)


def test_sparse_det_past_the_slot_cap_uses_term_bareiss(monkeypatch):
    calls = _term_route_calls(monkeypatch)
    names = tuple(f"a{i}" for i in range(12))
    rows = [[MultiPoly.var(names[3 * i + j], names) + (i - j) for j in range(3)] for i in range(3)]
    rows[2][0] = rows[2][0] * MultiPoly.var("a11", names) ** 3
    det = poly_matrix_det(rows)
    assert calls == [3]
    assert det == _leibniz_det(rows)


def _u_run_sylvester_4x4(monkeypatch):
    """The 4x4 Sylvester matrix that elimination's u-run forms for
    -x - 3*y^2 + 3 and x^2 + x*z - 3*y^2, over the 7 variables x, y, z, X_
    and the weights u0, u1, u2, with 9^5 = 59,049 slots."""
    from kronecker.elimination import decompose_variety

    seen = []
    det = polyring.poly_matrix_det
    monkeypatch.setattr(polyring, "poly_matrix_det", lambda rows: seen.append(rows) or det(rows))
    decompose_variety(polyring.parse_polys(["-x - 3*y^2 + 3", "x^2 + x*z - 3*y^2"]))
    monkeypatch.setattr(polyring, "poly_matrix_det", det)
    return next(rows for rows in seen if len(rows) == 4 and len(rows[0][0].variables) == 7)


def test_sparse_u_run_det_takes_the_term_route(monkeypatch):
    # the rows' monomial counts multiply to 50,625, past 59,049 / 16, but
    # their Minkowski sum (495) stays below it; packed, it took over a second
    rows = _u_run_sylvester_4x4(monkeypatch)
    calls = _term_route_calls(monkeypatch)
    assert poly_matrix_det(rows) == _leibniz_det(rows)
    assert calls == [4]


def test_dense_sylvester_det_of_two_quartic_trivariates_packs(monkeypatch):
    calls = _term_route_calls(monkeypatch)
    p = parse_poly("2*x^4 + x^3*y - 3*x^2*y*z + x*z^3 - y^4 + 5*y - 1")
    q = parse_poly("x^4 - 2*x^3*z + x^2*y^2 + 4*x*y*z - z^4 + x - 3").with_variables(p.variables)
    rows = sylvester_matrix(p, q, "x")
    assert len(rows) == 8
    assert poly_matrix_det(rows) == _leibniz_det(rows)
    assert calls == []


def test_resultant_and_disc_match_the_term_route():
    rng = random.Random(37)
    checked = 0
    for _ in range(30):
        p = rand_poly(rng, 3, 3, rng.randint(2, 9), 5, rng.choice((1, 3)))
        q = rand_poly(rng, 3, 3, rng.randint(2, 9), 5)
        if p.degree("x") < 1 or q.degree("x") < 1:
            continue
        assert resultant(p, q, "x") == _leibniz_det(sylvester_matrix(p, q, "x"))
        m = p.degree("x")
        if m >= 2:
            expect = _leibniz_det(sylvester_matrix(p, p.derivative("x"), "x")).div_exact(p.coeffs_in("x")[m])
            assert discriminant(p, "x") == (-expect if (m * (m - 1) // 2) % 2 else expect)
        checked += 1
    assert checked >= 20


def test_gcd_and_resultant_against_sympy():
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")

    def to_sympy(p):
        return sympy.Poly(sympy.sympify(str(p).replace("^", "**")), x, y, z)

    rng = random.Random(41)
    for _ in range(20):
        common = rand_poly(rng, 3, 2, 3, 5)
        p = rand_poly(rng, 3, 2, 4, 5) * common
        q = rand_poly(rng, 3, 2, 4, 5) * common
        if p.is_zero or q.is_zero:
            continue
        expect = to_sympy(p).gcd(to_sympy(q)).primitive()[1]
        assert to_sympy(gcd(p, q)) in (expect, -expect)
        if p.degree("x") >= 1 and q.degree("x") >= 1:
            assert to_sympy(resultant(p, q, "x")) == sympy.Poly(to_sympy(p).resultant(to_sympy(q)), x, y, z)


# -- discriminant -----------------------------------------------------------------


def test_disc_quadratic_formula():
    assert discriminant(parse_poly("x^2 + b*x + c", ["x", "b", "c"]), "x") == parse_poly(
        "b^2 - 4*c", ["b", "c"]
    )


def test_disc_23():
    assert discriminant(parse_poly("x^3 - x - 1"), "x") == -23


def test_disc_double_root():
    assert discriminant(parse_poly("x^2"), "x").is_zero


def test_disc_degree_zero_error():
    with pytest.raises(DomainError):
        discriminant(parse_poly("5", ["x"]), "x")


def test_disc_against_root_differences():
    # (x-1)(x-2)(x-4): disc = prod (ri - rj)^2 = 1*9*4 = 36
    p = parse_poly("(x-1)*(x-2)*(x-4)")
    assert discriminant(p, "x") == 36


# -- Kronecker substitution ---------------------------------------------------------


def test_substitute_basic():
    u, codec = kronecker_substitute(parse_poly("x + y"), 2)
    assert u == UniPoly("x", [0, 1, 1])


def test_substitute_xy():
    u, codec = kronecker_substitute(parse_poly("x*y"), 3)
    assert u == UniPoly("x", [0, 0, 0, 0, 1])
    assert kronecker_inverse(u, codec) == parse_poly("x*y")


def test_substitute_requires_large_base():
    with pytest.raises(DomainError):
        kronecker_substitute(parse_poly("x^3 + y"), 3)


def test_substitute_roundtrip_random():
    rng = random.Random(17)
    for _ in range(500):
        p = rand_poly(rng, nvars=rng.randint(1, 3), max_deg=3, nterms=4)
        if p.is_zero:
            continue
        g = max(p.degree(v) for v in p.variables) + rng.randint(1, 3)
        u, codec = kronecker_substitute(p, g)
        assert kronecker_inverse(u, codec) == p


# -- the packing codec -------------------------------------------------------------


def test_pack_and_unpack_round_trip_signed_digits():
    rng = random.Random(23)
    for width in (1, 2, 3):
        top = (1 << (8 * width - 1)) - 1
        for _ in range(200):
            slots = rng.randint(1, 12)
            used = rng.sample(range(slots), rng.randint(0, slots))
            digits = {s: d for s in used if (d := rng.choice([-top, top, rng.randint(-top, top)]))}
            assert polyring.unpack(polyring.pack(digits, width), slots, width) == digits
        for digits in ({0: top, 1: -top}, {0: -top, 2: -top}, {3: -1}, {0: 5, 4: -top}, {}):
            assert polyring.unpack(polyring.pack(digits, width), 5, width) == digits
    assert polyring.pack({}, 2) == 0
    assert polyring.pack({0: 0, 1: 3}, 1) == 3 * 256


def test_unpack_raises_when_the_integer_needs_more_slots():
    for width in (1, 2, 3):
        t = 1 << (8 * width)
        for n in (t**3, -(t**3), polyring.pack({3: 1}, width), polyring.pack({3: -1}, width)):
            with pytest.raises(OverflowError):
                polyring.unpack(n, 3, width)
        assert polyring.unpack(polyring.pack({2: -1}, width), 3, width) == {2: -1}


def test_slot_exponent_inverts_slot_weights():
    rng = random.Random(29)
    for _ in range(200):
        spans = [rng.randint(1, 6) for _ in range(rng.randint(0, 4))]
        weights = polyring.slot_weights(spans)
        exps = list(itertools.product(*(range(s) for s in spans)))
        assert sorted(sum(map(operator.mul, e, weights)) for e in exps) == list(range(math.prod(spans)))
        for e in exps:
            assert polyring.slot_exponent(sum(map(operator.mul, e, weights)), spans) == e
        with pytest.raises(AlgebraError):
            polyring.slot_exponent(math.prod(spans), spans)


def _quotient_by_terms(a, b):
    """The exact quotient of integer lists by the term kernel divide_terms."""
    quo = polyring.divide_terms({(k,): c for k, c in enumerate(a) if c}, {(k,): c for k, c in enumerate(b) if c})
    return None if quo is None else [quo.get((k,), 0) for k in range(len(a) - len(b) + 1)]


def _int_list(rng, degree, size):
    return [rng.randint(-size, size) for _ in range(degree)] + [rng.choice([-1, 1]) * rng.randint(1, size)]


def _int_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _quotient_cases(rng):
    """Pairs (a, b) of integer lists: exact products and near misses."""
    for _ in range(150):
        b = _int_list(rng, rng.randint(0, 6), rng.choice([1, 9, 10**6]))
        q = _int_list(rng, rng.randint(0, 8), rng.choice([1, 9, 10**9]))
        a = _int_product(b, q)
        yield a, b
        yield [a[0] + 1] + a[1:], b
        k = rng.randrange(len(a))
        yield a[:k] + [a[k] + rng.choice([-1, 1]) * rng.randint(1, 5)] + a[k + 1 :], b
        yield a, [0] + b  # b with a zero constant term
        yield _int_product(a, [0, 1]), [0] + b
        yield a, b[:-1] + [-b[-1]]  # the leading coefficient's sign flipped
        yield [-c for c in a], [-c for c in b]
        yield b, a  # deg b > deg a unless q is a constant
        yield [], b


def test_exact_quotient_agrees_with_divide_terms():
    found = {True: 0, False: 0}
    for a, b in _quotient_cases(random.Random(31)):
        q = polyring.exact_quotient(a, b)
        assert q == _quotient_by_terms(a, b), (a, b)
        found[q is not None] += 1
    assert min(found.values()) > 300


def test_exact_quotient_never_errs_under_a_wrong_bound(monkeypatch):
    # with a bound too small for the quotient, the digits read back are
    # refused; a divisor may then be missed, but no quotient is wrong
    monkeypatch.setattr(polyring, "_quotient_bound", lambda a, n: 1)
    # q = 256 - x packs to 0 at base 256 beside b = x + 1, so an unchecked
    # read would return the zero quotient
    assert polyring.exact_quotient([256, 255, -1], [1, 1]) is None
    answered = 0
    for a, b in _quotient_cases(random.Random(37)):
        q = polyring.exact_quotient(a, b)
        assert q is None or q == _quotient_by_terms(a, b), (a, b)
        answered += q is not None
    assert answered > 0


# -- misc structures ---------------------------------------------------------------


def test_mul_is_convolution():
    a = {(1, 0): Fraction(2)}
    b = {(0, 1): Fraction(3), (1, 0): Fraction(-2)}
    assert mul_terms(a, b) == {(1, 1): Fraction(6), (2, 0): Fraction(-4)}


def test_cancellation_drops_zero():
    a = {(0,): Fraction(1), (1,): Fraction(1)}
    b = {(0,): Fraction(-1), (1,): Fraction(1)}
    # (1+x)(x-1) = x^2 - 1
    assert mul_terms(a, b) == {(2,): Fraction(1), (0,): Fraction(-1)}


def test_exact_division_detects_failure():
    p = parse_poly("x^2 + 1")
    q = parse_poly("x + 1")
    assert p.div_exact(q) is None
    assert (q * q).div_exact(q) == q


def test_canonical_print_order_is_graded_lex():
    p = parse_poly("y^3 + x^2*y + x", variables=("x", "y"))
    assert str(p) == "x^2*y + y^3 + x"


def test_eval_and_derivative():
    p = parse_poly("x^2*y - 3*y")
    assert p.eval_at({"x": 2, "y": 5}) == 5
    assert p.derivative("x") == parse_poly("2*x*y")


# -- one implementation per primitive ------------------------------------------


def _div_reference(a, b):
    """Graded-lex division by one divisor over Q on Fraction term maps:
    the quotient, or None when a remainder survives."""
    key = lambda e: (sum(e), e)  # noqa: E731
    be = max(b.terms, key=key)
    rem, quo = dict(a.terms), {}
    while rem:
        re = max(rem, key=key)
        qe = tuple(i - j for i, j in zip(re, be))
        if min(qe) < 0:
            return None
        qc = rem[re] / b.terms[be]
        quo[qe] = qc
        for e, c in b.terms.items():
            k = tuple(i + j for i, j in zip(e, qe))
            rem[k] = rem.get(k, 0) - qc * c
            if not rem[k]:
                del rem[k]
    return MultiPoly(a.variables, quo)


def test_div_exact_matches_a_fraction_division_reference():
    rng = random.Random(11)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        b = rand_poly(rng, nvars=nvars, max_deg=2, nterms=3, den=4)
        if b.is_zero:
            continue
        q = rand_poly(rng, nvars=nvars, max_deg=2, nterms=4, den=5)
        for a in (b * q, b * q + rand_poly(rng, nvars=nvars, max_deg=2, nterms=2, den=3)):
            got = a.div_exact(b)
            assert got == _div_reference(a, b)
            if got is not None:
                assert got * b == a


def test_divide_terms_stops_without_a_coefficient_quotient():
    # (2x + 2)(2x - 3) = 4x^2 - 2x - 6 divides over Z
    assert polyring.divide_terms({(2,): 4, (1,): -2, (0,): -6}, {(1,): 2, (0,): 2}) == {(1,): 2, (0,): -3}
    # 3x^2 / 2x: the leading coefficient 3 is not a multiple of 2
    assert polyring.divide_terms({(2,): 3}, {(1,): 2}) is None
    # 2x^2 + x over 2x + 2: the first step goes through, the second stops at -x / 2x
    assert polyring.divide_terms({(2,): 2, (1,): 1}, {(1,): 2, (0,): 2}) is None


def _divide_terms_by_rescan(num, den):
    """divide_terms with the leading remainder term found by a max over
    the whole remainder at every step."""
    key = lambda e: (sum(e), e)  # noqa: E731
    de = max(den, key=key)
    quo = {}
    while num:
        ne = max(num, key=key)
        qe = tuple(i - j for i, j in zip(ne, de))
        if qe and min(qe) < 0:
            return None
        qc, r = divmod(num[ne], den[de])
        if r:
            return None
        quo[qe] = qc
        for e, c in den.items():
            k = tuple(i + j for i, j in zip(e, qe))
            v = num[k] - qc * c if k in num else -(qc * c)
            if v:
                num[k] = v
            else:
                del num[k]
    return quo


def _rand_terms(rng, nvars, coeff):
    """A nonzero term map of up to five terms with coefficients coeff()."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 5)):
            c = coeff()
            if c:
                terms[tuple(rng.randint(0, 3) for _ in range(nvars))] = c
    return terms


def test_heap_division_matches_a_rescan_reference():
    rng = random.Random(29)
    coeff = lambda: rng.randint(-9, 9)  # noqa: E731
    outcomes = set()
    for _ in range(150):
        nvars = rng.randint(1, 3)
        den, q = _rand_terms(rng, nvars, coeff), _rand_terms(rng, nvars, coeff)
        num = polyring.mul_terms(den, q)
        if rng.random() < 0.4:
            num = polyring.add_scaled_terms(num, _rand_terms(rng, nvars, coeff), 1)
        if not num:
            continue
        got = polyring.divide_terms(dict(num), den)
        assert got == _divide_terms_by_rescan(dict(num), den)
        outcomes.add(got is None)
        if got is not None:
            assert polyring.mul_terms(den, got) == num
    assert outcomes == {False, True}


def _eval_by_fractions(p, point):
    """MultiPoly evaluation term by term on Fractions."""
    total = Fraction(0)
    for e, c in p.terms.items():
        for v, k in zip(p.variables, e):
            if k:
                c *= Fraction(point[v]) ** k
        total += c
    return total


def test_eval_at_matches_a_fraction_reference():
    rng = random.Random(31)
    values = [0, 0, 1, -1, 3, -7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-9, 10)]
    for _ in range(300):
        nvars = rng.randint(1, 4)
        p = rand_poly(rng, nvars=nvars, max_deg=4, nterms=rng.randint(0, 6), den=rng.choice((1, 6)))
        # an unused variable with no value in the point
        p = p.with_variables(p.variables + ("s",))
        point = {v: rng.choice(values) for v in p.variables[:-1]}
        got = p.eval_at(point)
        assert got == _eval_by_fractions(p, point) and type(got) is Fraction
    assert parse_poly("x^3 - 2*x*y + 5").eval_at({"x": Fraction(-3, 2), "y": Fraction(1, 3)}) == Fraction(-27, 8) + 1 + 5


def _str_by_fractions(p):
    """MultiPoly printing with every coefficient a Fraction."""
    if p.is_zero:
        return "0"
    out = ""
    for e, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(p.variables, e) if k)
        body = mono if mono and abs(c) == 1 else f"{abs(c)}*{mono}" if mono else str(abs(c))
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += f" {'-' if c < 0 else '+'} {body}"
    return out


def test_printing_matches_fraction_formatting():
    rng = random.Random(43)
    samples = [MultiPoly.zero(("x",)), MultiPoly.const(1), MultiPoly.const(Fraction(-3, 4), ("x", "y"))]
    for _ in range(400):
        nvars, nterms = rng.randint(1, 3), rng.randint(1, 6)
        p = rand_poly(rng, nvars=nvars, nterms=nterms, coeff=rng.choice((1, 2, 12)), den=rng.choice((1, 2, 6)))
        samples.append(p)
        samples.append(-p + Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    for p in samples:
        assert str(p) == _str_by_fractions(p)
    assert str(parse_poly("-x^2*y + 1/2*x - 1/3*y - 1")) == "-x^2*y + 1/2*x - 1/3*y - 1"


def test_negative_powers_raise():
    with pytest.raises(AlgebraError):
        parse_poly("x + 1") ** -1
    with pytest.raises(AlgebraError):
        UniPoly("x", [1, 1]) ** -1
    assert UniPoly("x", [1, 1]) ** 0 == 1
    assert UniPoly("x", [1, 1]) ** 3 == UniPoly("x", [1, 3, 3, 1])


def _euclid_reference(a, b):
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def test_unipoly_gcd_matches_plain_euclid():
    rng = random.Random(5)
    for _ in range(100):
        g = UniPoly("x", [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])
        a = g * UniPoly("x", [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        b = g * UniPoly("x", [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        assert a.gcd(b) == _euclid_reference(a, b)
    assert UniPoly("x", []).gcd(UniPoly("x", [])) == UniPoly("x", [])


def test_inverse_mod_is_an_inverse():
    f = UniPoly.from_multipoly(parse_poly("x^3 - 2*x + 7"))
    for coeffs in ([1, 1], [Fraction(1, 2), 0, 3], [0, 0, 1], [5]):
        a = UniPoly("x", coeffs)
        assert (a * a.inverse_mod(f)) % f == UniPoly("x", [1])
    with pytest.raises(AlgebraError):
        UniPoly("x", [-1, 1]).inverse_mod(UniPoly("x", [-1, 0, 1]))


def test_content_primitive_agrees_across_carriers():
    rng = random.Random(3)
    for _ in range(50):
        u = UniPoly("x", [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))])
        if u.is_zero:
            continue
        c, prim = u.content_primitive()
        cm, primm = content_primitive(u.to_multipoly())
        assert (c, prim.to_multipoly()) == (cm, primm)
        assert prim * c == u and prim.has_integer_coeffs() and prim.lc() > 0


def test_gcd_list_stops_at_a_constant():
    polys = [parse_poly(t) for t in ("x*y + x", "x^2 + x", "x*y - x")]
    assert polyring.gcd_list(polys) == parse_poly("x")
    assert polyring.gcd_list([parse_poly("x + 1"), parse_poly("3"), parse_poly("x + 1")]) == 1
    assert polyring.gcd_list([]).is_zero


def test_parse_polys_shares_the_variable_order():
    a, b = polyring.parse_polys(["y + 1", "x*y"])
    assert a.variables == b.variables == ("y", "x")


@pytest.mark.parametrize("spans, packed", [((1024, 1024), True), ((17, 61681), False)])
def test_det_at_the_packed_byte_cap(monkeypatch, spans, packed):
    # [[x^a, y^b], [y^c, x^d + 1]] has one-byte slots and (1 + a + d) * (1 + b + c)
    # of them: 2^20 bytes packs, 2^20 + 1 bytes goes to the term maps
    calls = _term_route_calls(monkeypatch)
    monkeypatch.setattr(polyring, "_SLOTS_PER_TERM", 2**40)  # only the byte cap decides
    names = ("x", "y")
    x, y = MultiPoly.var("x", names), MultiPoly.var("y", names)
    a, d = (spans[0] - 1) // 2, spans[0] - 1 - (spans[0] - 1) // 2
    b, c = (spans[1] - 1) // 2, spans[1] - 1 - (spans[1] - 1) // 2
    assert spans[0] * spans[1] == 2**20 + (not packed)
    rows = [[x**a, y**b], [y**c, x**d + 1]]
    det = poly_matrix_det(rows)
    assert calls == ([] if packed else [2])
    assert det == _leibniz_det(rows) == x ** (a + d) + x**a - y ** (b + c)


# -- the integer carrier against a Fraction term-map reference ----------------

_XYZ = ("x", "y", "z")


def _assert_normal(p):
    """num maps exponent tuples of the right width to nonzero ints, den is
    a positive int, gcd(den, *num) = 1, and zero is ({}, 1)."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert all(len(e) == len(p.variables) for e in p.num)
    assert math.gcd(p.den, *p.num.values()) == 1


def _ref_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_pow(a, k):
    out = {(0,) * len(_XYZ): Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_content(a):
    """The rational content of a nonzero Fraction term map, signed like its
    graded-lex leading coefficient."""
    den = math.lcm(*(c.denominator for c in a.values()))
    g = math.gcd(*(c.numerator * (den // c.denominator) for c in a.values()))
    lead = max(a, key=lambda e: (sum(e), e))
    return Fraction(g, den) if a[lead] > 0 else Fraction(-g, den)


def _carrier_sample(rng):
    """Zero, a constant or a polynomial in x, y, z, entered through unreduced
    Fractions with mixed denominators and signs."""
    shape = rng.random()
    terms = {}
    if shape < 0.1:
        return MultiPoly(_XYZ, {(1, 0, 0): Fraction(0, 7)})
    count = 1 if shape < 0.25 else rng.randint(1, 5)
    for _ in range(count):
        e = (0, 0, 0) if shape < 0.25 else tuple(rng.randint(0, 2) for _ in _XYZ)
        k = rng.choice((1, 2, 6))
        terms[e] = Fraction(k * rng.randint(-12, 12), k * rng.choice((1, 1, 2, 3, 4, 9)))
    return MultiPoly(_XYZ, terms)


def test_carrier_arithmetic_matches_a_fraction_reference():
    rng = random.Random(41)
    for _ in range(300):
        a, b = _carrier_sample(rng), _carrier_sample(rng)
        ta, tb = a.terms, b.terms
        for p in (a, b):
            _assert_normal(p)
            assert all(type(c) is Fraction for c in p.terms.values())
        cases = [
            (a + b, _ref_add(ta, tb)),
            (a - b, _ref_add(ta, tb, -1)),
            (-a, _ref_add({}, ta, -1)),
            (a * b, _ref_mul(ta, tb)),
            (a * Fraction(-3, 4), _ref_add({}, ta, Fraction(-3, 4))),
            (a**3, _ref_pow(ta, 3)),
            (a.derivative("y"), {(i, j - 1, k): c * j for (i, j, k), c in ta.items() if j}),
        ]
        for got, want in cases:
            _assert_normal(got)
            assert got.terms == want
        point = {"x": Fraction(-2, 3), "y": Fraction(5, 2), "z": 7}
        want = sum((c * Fraction(-2, 3) ** i * Fraction(5, 2) ** j * 7**k for (i, j, k), c in ta.items()), Fraction(0))
        assert a.eval_at(point) == want and type(a.eval_at(point)) is Fraction
        for k, coeff in a.coeffs_in("x").items():
            _assert_normal(coeff)
            assert coeff.terms == {(0, j, l): c for (i, j, l), c in ta.items() if i == k}
        assert sum(len(c.num) for c in a.coeffs_in("x").values()) == len(ta)


def test_carrier_substitution_matches_a_fraction_reference():
    rng = random.Random(43)
    for _ in range(120):
        a, v = _carrier_sample(rng), _carrier_sample(rng)
        value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        got = a.subs({"x": v, "z": value})
        _assert_normal(got)
        want = {}
        for (i, j, k), c in a.terms.items():
            part = _ref_mul({(0, j, 0): c * value**k}, _ref_pow(v.terms, i))
            want = _ref_add(want, part)
        assert got.terms == want


def test_carrier_division_and_content_match_a_fraction_reference():
    rng = random.Random(47)
    checked = 0
    for _ in range(200):
        a, b = _carrier_sample(rng), _carrier_sample(rng)
        if a.is_zero:
            continue
        c, prim = content_primitive(a)
        _assert_normal(prim)
        assert c == _ref_content(a.terms)
        assert prim.den == 1 and prim.terms == {e: v / c for e, v in a.terms.items()}
        if b.is_zero:
            continue
        for num in (a * b, a * b + 1):
            got = num.div_exact(b)
            want = _div_reference(num, b)
            assert (got is None) == (want is None)
            if got is not None:
                _assert_normal(got)
                assert got.terms == want.terms
                checked += 1
        g = gcd(a * b, b * b + b)
        _assert_normal(g)
        assert g.den == 1 and g.lc() > 0
        for f in (a * b, b * b + b):
            assert _div_reference(f, g) is not None
        cofactors = [_div_reference(f, g) for f in (a * b, b * b + b)]
        assert gcd(*cofactors).is_constant
    assert checked >= 100


def test_equal_polynomials_hash_alike():
    a = MultiPoly(("x", "y"), {(1, 0): Fraction(2, 4), (0, 2): Fraction(-6, 8)})
    b = MultiPoly(("y", "x", "z"), {(2, 0, 0): Fraction(-3, 4), (0, 1, 0): Fraction(1, 2)})
    c = parse_poly("1/2*x - 3/4*y^2")
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert (a.num, a.den) == ({(1, 0): 2, (0, 2): -3}, 4)
    two = MultiPoly(("x",), {(1,): Fraction(4, 2)})
    assert two == MultiPoly(("x",), {(1,): 2}) and (two.num, two.den) == ({(1,): 2}, 1)
    half = MultiPoly.const(Fraction(3, 6), ("x", "y"))
    assert half == MultiPoly.const(Fraction(1, 2)) and hash(half) == hash(MultiPoly.const(Fraction(1, 2)))
    assert MultiPoly(("x",), {(1,): Fraction(0, 3)}) == MultiPoly.zero(("y",))
    assert hash(MultiPoly.zero(("x",))) == hash(MultiPoly.zero(()))
    assert a != a + 1 and a != a * 2
    rng = random.Random(53)
    for _ in range(50):
        p = _carrier_sample(rng)
        q = p.with_variables(("z", "w", "x", "y"))
        assert p == q and hash(p) == hash(q)


# -- UniPoly on the integer carrier --------------------------------------------


def _assert_uni_normal(p):
    """num is a tuple of ints with no trailing zero, den a positive int,
    gcd(den, *num) = 1, so zero is ((), 1)."""
    assert type(p.num) is tuple and all(type(c) is int for c in p.num)
    assert type(p.den) is int and p.den > 0
    assert not p.num or p.num[-1]
    assert math.gcd(p.den, *p.num) == 1


def _uni_sample(rng):
    """Fraction coefficients, low to high, with no trailing zero: zero, a
    constant or a polynomial of degree up to 5 with mixed denominators and
    signs."""
    shape = rng.random()
    if shape < 0.1:
        return []
    size = 1 if shape < 0.25 else rng.randint(2, 6)
    out = [Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 9))) for _ in range(size)]
    while out and not out[-1]:
        out.pop()
    return out


def _ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_uni_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _ref_trim([x + sign * y for x, y in zip(a, b)])


def _ref_uni_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_uni_divmod(a, b):
    """Long division over Q on Fraction lists."""
    rem, quo = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _ref_trim(quo), _ref_trim(rem)


def _ref_uni_gcd(a, b):
    while b:
        a, b = b, _ref_uni_divmod(a, b)[1]
    return a


def test_unipoly_carrier_matches_a_fraction_reference():
    rng = random.Random(59)
    divisions = {"negative lc": 0, "non-unit lc": 0, "higher degree": 0, "exact": 0}
    for _ in range(300):
        ra, rb = _uni_sample(rng), _uni_sample(rng)
        a, b = UniPoly("x", ra), UniPoly("x", rb)
        for p, ref in ((a, ra), (b, rb)):
            _assert_uni_normal(p)
            assert p.coeffs == tuple(ref) and all(type(c) is Fraction for c in p.coeffs)
            assert p.lc() == (ref[-1] if ref else 0) and p[1] == (ref[1] if len(ref) > 1 else 0)
            # the same value from unreduced integers over a denominator
            d = math.lcm(*(c.denominator for c in ref)) * rng.randint(1, 6)
            same = UniPoly("x", [int(c * d) for c in ref] + [0], d)
            assert same == p and hash(same) == hash(p) and (same.num, same.den) == (p.num, p.den)
        x = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        cases = [
            (a + b, _ref_uni_add(ra, rb)),
            (a - b, _ref_uni_add(ra, rb, -1)),
            (-a, _ref_uni_add([], ra, -1)),
            (a + Fraction(1, 3), _ref_uni_add(ra, [Fraction(1, 3)])),
            (a * b, _ref_uni_mul(ra, rb)),
            (a * 6, [6 * c for c in ra]),
            (a * 0, []),
            (a * Fraction(-4, 9), [Fraction(-4, 9) * c for c in ra]),
            (a**3, _ref_uni_mul(_ref_uni_mul(ra, ra), ra)),
            (a**0, [1]),
            (a.derivative(), [k * c for k, c in enumerate(ra)][1:]),
        ]
        if ra:
            cases.append((a.monic(), [c / ra[-1] for c in ra]))
            content, prim = a.content_primitive()
            assert prim.den == 1 and prim.lc() > 0 and prim * content == a
            lcm = math.lcm(*(c.denominator for c in ra))
            g = math.gcd(*(int(c * lcm) for c in ra))
            assert content == Fraction(g if ra[-1] > 0 else -g, lcm)
            cases.append((prim, [c / content for c in ra]))
        for got, want in cases:
            _assert_uni_normal(got)
            assert got.variable == "x" and got.coeffs == tuple(want)
        value = a.eval(x)
        assert type(value) is Fraction and value == sum((c * x**k for k, c in enumerate(ra)), Fraction(0))
        if not rb:
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            continue
        for num, ref in ((a, ra), (a * b, _ref_uni_mul(ra, rb)), (a * b + 1, _ref_uni_add(_ref_uni_mul(ra, rb), [1]))):
            q, r = num.divmod(b)
            want_q, want_r = _ref_uni_divmod(ref, rb)
            _assert_uni_normal(q)
            _assert_uni_normal(r)
            assert (q.coeffs, r.coeffs) == (tuple(want_q), tuple(want_r))
            assert (num % b).coeffs == tuple(want_r)
            exact = num.div_exact(b)
            assert (exact is None) == bool(want_r)
            if exact is not None:
                assert exact.coeffs == tuple(want_q)
                divisions["exact"] += 1
            divisions["negative lc"] += rb[-1] < 0
            divisions["non-unit lc"] += abs(rb[-1]) != 1
            divisions["higher degree"] += len(rb) > len(ref)
        if len(rb) >= 2 and ra:
            if len(_ref_uni_gcd(ra, rb)) == 1:
                inv = a.inverse_mod(b)
                _assert_uni_normal(inv)
                assert _ref_uni_divmod(_ref_uni_mul(ra, list(inv.coeffs)), rb)[1] == [1]
            else:
                with pytest.raises(AlgebraError):
                    a.inverse_mod(b)
    assert min(divisions.values()) >= 50, divisions


def test_equal_unipolys_hash_alike_in_any_variable():
    p, q = UniPoly("x", [1, 0, 1]), UniPoly("t", [1, 0, 1])
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert UniPoly("x", [Fraction(2, 4)]) == Fraction(1, 2)
    r, s = UniPoly("y", [1, 2], 4), UniPoly("x", [Fraction(1, 4), Fraction(1, 2)])
    assert r == s and hash(r) == hash(s) and (r.num, r.den) == ((1, 2), 4)
