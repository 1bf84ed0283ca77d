"""Variety decomposition, elimination steps, component parametrization."""

import random
from fractions import Fraction

import pytest

from kronecker.elimination import (
    _X,
    EliminationConfig,
    _weighted_step,
    decompose_variety,
    eliminate_step,
    total_resolvente,
)
from kronecker.errors import AlgebraError, DomainError
from kronecker.polyring import MultiPoly, parse_poly, parse_polys


# -- eliminate_step ------------------------------------------------------------


def test_step_resultant_projection():
    step = eliminate_step(parse_polys(["x^2+y^2-1", "y"]), "y")
    assert step.eliminated
    assert any(g == parse_poly("x^2 - 1") for g in step.generators)


def test_step_single_generator_projects_densely():
    step = eliminate_step(parse_polys(["x-y"]), "y")
    assert step.eliminated
    assert step.generators == []


def test_step_passthrough():
    gens = parse_polys(["x", "y"])
    step = eliminate_step(gens, "y")
    assert step.eliminated
    assert step.generators == [parse_poly("x")]


def test_step_variable_absent():
    gens = parse_polys(["x^2 - 1"])
    step = eliminate_step(gens, "z")
    assert not step.eliminated
    assert step.generators == gens


def _weighted_oracle(gens, var):
    """eliminate_step by Kronecker's U,V weights on every active generator."""
    gens = [g for g in gens if not g.is_zero]
    passive = [g for g in gens if g.degree(var) <= 0]
    return _weighted_step(passive, [g for g in gens if g.degree(var) > 0], var)


def _same_generators(a, b):
    assert [(g.variables, str(g)) for g in a] == [(g.variables, str(g)) for g in b]


def _rand_gen(rng, names):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[tuple(rng.randint(0, 2) for _ in names)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return MultiPoly(names, terms)


def test_two_generator_step_matches_the_weighted_resultant():
    """Two active generators take one plain resultant (the pencil identity):
    the same generators, over the same variable tuples, as the U,V route."""
    rng = random.Random(28)
    checked = 0
    while checked < 320:
        var = rng.choice("xyz")
        g = _rand_gen(rng, tuple(rng.sample("xyz", rng.randint(1, 3))))
        h = _rand_gen(rng, tuple(rng.sample("xyz", 3)))
        if g.degree(var) <= 0 or h.degree(var) <= 0:
            continue
        passive = [p for p in (_rand_gen(rng, tuple("xyz")) for _ in range(rng.randint(0, 2))) if p.degree(var) <= 0]
        gens = passive[:1] + [g] + passive[1:] + [h]
        step = eliminate_step(gens, var)
        assert step.eliminated
        _same_generators(step.generators, _weighted_oracle(gens, var).generators)
        checked += 1


@pytest.mark.parametrize(
    "texts, var",
    [
        (["x*z^2 + y*z + 1", "z^2 - x*y", "y^2 - 2"], "z"),  # equal degrees
        (["x*z^2 + 1", "y*z + x"], "z"),  # a gap under a non-constant lc
        (["y*z + x", "x*z^2 + 1", "x^2 - y"], "z"),  # the same, lower degree first
    ],
)
def test_two_generator_step_hand_cases(texts, var):
    gens = parse_polys(texts)
    _same_generators(eliminate_step(gens, var).generators, _weighted_oracle(gens, var).generators)


def test_gap_keeps_the_leading_coefficient_factor():
    # Res_z(x*z^2 + 1, y*z + x) = x^3 + y^2, times lc^(2 - 1) = x
    step = eliminate_step(parse_polys(["x*z^2 + 1", "y*z + x"]), "z")
    assert step.generators == [parse_poly("x^4 + x*y^2")]


def test_common_factor_leaves_only_the_passive_generators():
    gens = parse_polys(["(z + x)*(y - 1)", "(z + x)*(y + 2)*z", "x^2 - y"])
    step = eliminate_step(gens, "z")
    assert step.eliminated
    assert step.generators == [parse_poly("x^2 - y")]
    _same_generators(step.generators, _weighted_oracle(gens, "z").generators)


# -- decompose_variety -----------------------------------------------------------


def test_two_planes_and_a_line():
    dec = decompose_variety(parse_polys(["x*z", "y*z"]))
    parts = {p.codim: p for p in dec.parts}
    assert set(parts) == {1, 2}
    assert parts[1].resolvent == parse_poly("z")
    # the codimension-2 component is the line x = y = 0
    comps = [c for c in dec.components if c.codim == 2 and not c.immersed]
    assert len(comps) == 1
    assert total_resolvente(dec) == parts[1].resolvent * parts[2].resolvent


def test_line_recovered_exactly():
    """The codim-2 component of V(xz, yz) satisfies x = 0 and y = 0."""
    dec = decompose_variety(parse_polys(["x*z", "y*z"]))
    comp = next(c for c in dec.components if c.codim == 2 and not c.immersed)
    # x is the working first coordinate: phi must force it to zero
    assert comp.phi == parse_poly("x")
    # every dependent coordinate is parametrized as 0
    for v, num in comp.params.items():
        assert num.is_zero


def test_circle_meets_line():
    dec = decompose_variety(parse_polys(["x^2+y^2-1", "y"]))
    assert len(dec.parts) == 1
    part = dec.parts[0]
    assert part.codim == 2
    assert part.resolvent == parse_poly("x^2 - 1")
    assert sorted(str(f) for f in part.factors) == ["x + 1", "x - 1"]
    ys = sorted(str(num) for c in dec.components for num in c.params.values())
    assert ys == ["0", "0"]


def test_unit_ideal_is_empty():
    dec = decompose_variety(parse_polys(["1"]))
    assert dec.empty and not dec.parts


@pytest.mark.parametrize(
    "system",
    [
        ["x - y", "x - y - 1"],  # a constant after eliminating y
        ["x - 1", "x - 2"],  # last-variable leftovers with no common root
    ],
)
def test_the_loop_leaves_generators_behind_on_an_empty_variety(system):
    dec = decompose_variety(parse_polys(system))
    assert dec.empty and not dec.parts


def test_zero_ideal_is_whole_space():
    dec = decompose_variety([MultiPoly.zero(("x", "y"))])
    assert dec.whole_space
    assert dec.parts[0].codim == 0


def test_single_hypersurface():
    dec = decompose_variety(parse_polys(["x-y"]))
    assert [p.codim for p in dec.parts] == [1]
    assert dec.parts[0].resolvent == parse_poly("x - y")
    assert total_resolvente(dec) == parse_poly("x - y")


def test_total_resolvente_squarefree_part():
    dec = decompose_variety(parse_polys(["x^2 - 2*x*y + y^2"]))
    assert dec.parts[0].resolvent == parse_poly("x - y")


def test_point_pair_parametrization():
    dec = decompose_variety(parse_polys(["x^2-2", "y-x"]))
    comp = next(c for c in dec.components if not c.immersed)
    assert comp.phi == parse_poly("x^2 - 2")
    assert comp.phi_prime == parse_poly("2*x")
    assert comp.params["y"] == parse_poly("4", ["x", "y"])  # y = 4/(2x) = 2/x



def test_parametrization_is_certified_even_without_generators(monkeypatch):
    from kronecker import elimination

    calls = []
    run = elimination.parametrize_component
    monkeypatch.setattr(elimination, "parametrize_component", lambda *args: calls.append(args) or run(*args))
    decompose_variety(parse_polys(["x^2-2", "y-x"]))
    _, factor, variables, unames, k = calls[0]
    assert not run([], factor, variables, unames, k).immersed
    # a failing certificate marks the component, generators or none
    monkeypatch.setattr(elimination, "_verify_parametrization", lambda *args: False)
    assert run([], factor, variables, unames, k).immersed


def _reference_reading(factor, variables, unames, k):
    """phi and the phi_i read as coefficients of F(u_0 x_0 + ..., u): phi
    the u_0^d one, phi_i = x_i phi' minus the u_i u_0^(d-1) one."""
    d = factor.degree(_X)
    full = factor.subs({_X: sum(MultiPoly.var(u) * MultiPoly.var(v) for u, v in zip(unames, variables))})
    weights = [full.variables.index(u) for u in unames if u in full.variables]
    homogeneous = all(sum(e[i] for i in weights) == d for e in full.num)
    zero = MultiPoly.zero(full.variables)
    by_u0 = full.coeffs_in(unames[0])
    phi = by_u0.get(d, zero)
    params = {}
    for i in range(k + 1, len(variables)):
        c = by_u0.get(d - 1, zero).coeffs_in(unames[i]).get(1, zero)
        params[variables[i]] = MultiPoly.var(variables[i]) * phi.derivative(variables[0]) - c
    return homogeneous, phi, params


@pytest.mark.parametrize(
    "texts, redraws",
    [
        (("x^2-2", "y-x"), False),
        (("x*z", "y*z"), False),
        (("x^2+y^2+z^2-1", "x+y+z"), False),
        (("y-x^2", "z-x^3"), False),
        (("y*x", "y*z"), True),
    ],
)
def test_parametrization_matches_the_u_coefficient_reading(monkeypatch, texts, redraws):
    # phi = F(x_0, e_0) and phi_i = -F_(u_i)(x_0, e_0) agree with reading
    # the u_0^d and u_i u_0^(d-1) coefficients of F(u_0 x_0 + ..., u)
    from kronecker import elimination
    from kronecker.polyring import content_primitive

    calls = []
    run = elimination.parametrize_component
    monkeypatch.setattr(elimination, "parametrize_component", lambda *args: calls.append(args) or run(*args))
    dec = decompose_variety(parse_polys(texts))
    identity = [[int(i == j) for j in range(len(dec.variables))] for i in range(len(dec.variables))]
    assert (dec.coordinate_change != identity) == redraws
    assert calls
    for generators, factor, variables, unames, k in calls:
        comp = run(generators, factor, variables, unames, k)
        homogeneous, phi, params = _reference_reading(factor, variables, unames, k)
        assert homogeneous and not comp.immersed
        scale = content_primitive(phi)[0]
        assert comp.phi == phi * (1 / scale)
        assert comp.phi_prime == phi.derivative(variables[0]) * (1 / scale)
        assert set(comp.params) == set(params)
        for v, num in params.items():
            assert comp.params[v] == num * (1 / scale)


def _in_fiber_variable(text):
    """The polynomial of text with its variable X renamed to the fiber
    variable, a name no parsed variable can have."""
    p = parse_poly(text)
    return MultiPoly.from_ints(tuple(_X if v == "X" else v for v in p.variables), p.num, p.den)


def test_a_factor_not_homogeneous_in_the_fiber_and_weights_is_immersed():
    from kronecker.elimination import parametrize_component

    variables, unames = ("x", "y"), ("u0", "u1")
    # X^2 - 2*(u_0 + u_1)^2 parametrizes x^2 - 2, y = x; dropping a power of
    # u_0 keeps phi = x^2 - 2 but makes the sheets depend on the weights
    good = _in_fiber_variable("X^2 - 2*u1^2 - 4*u1*u0 - 2*u0^2")
    bad = _in_fiber_variable("X^2 - 2*u1^2 - 4*u1*u0 - 2*u0")
    assert _reference_reading(good, variables, unames, 0)[0]
    assert not _reference_reading(bad, variables, unames, 0)[0]
    gens = parse_polys(["x^2-2", "y-x"])
    assert not parametrize_component(gens, good, variables, unames, 0).immersed
    comp = parametrize_component([], bad, variables, unames, 0)
    assert comp.immersed and comp.phi == parse_poly("x^2 - 2") and not comp.params


def test_a_wrong_parametrization_fails_the_certificate():
    from kronecker.elimination import ComponentParam, _verify_parametrization

    gens = parse_polys(["x^2-2", "y-x"])
    dec = decompose_variety(gens)
    comp = next(c for c in dec.components if not c.immersed)
    assert _verify_parametrization(gens, comp, dec.variables)
    params = {"y": comp.params["y"] + 1}
    wrong = ComponentParam(comp.codim, comp.degree, comp.phi, comp.phi_prime, params)
    assert not _verify_parametrization(gens, wrong, dec.variables)


def test_parabola_projection_equation():
    dec = decompose_variety(parse_polys(["y - x^2"]))
    comp = next(c for c in dec.components if not c.immersed)
    # the projection equation is linear in the fiber coordinate y and
    # reproduces y = x^2
    coeffs = comp.phi.coeffs_in("y")
    assert comp.phi.degree("y") == 1
    solved = coeffs[0] * (-1) * coeffs[1].constant_value() ** -1
    assert solved == parse_poly("x^2", ["x", "y"]) or solved == -parse_poly(
        "x^2", ["x", "y"]
    )


def test_rational_point():
    dec = decompose_variety(parse_polys(["x-1", "y-2"]))
    comp = next(c for c in dec.components if not c.immersed)
    assert comp.degree == 1
    assert comp.phi == parse_poly("x - 1")
    assert comp.params["y"] == parse_poly("2", ["x", "y"])


def test_bounds_enforced():
    with pytest.raises(DomainError):
        decompose_variety(parse_polys(["x^5 - y"]))
    with pytest.raises(DomainError):
        decompose_variety(
            parse_polys(["a + b"]), EliminationConfig(max_vars=1)
        )


def test_projection_soundness_rational_points():
    """Known rational zeros, pushed through the coordinate change and
    truncated, kill the matching partial resolvent.

    Points are keyed by variable name: ``dec.variables`` is in order of
    first appearance across the generators (here ``x, z, y`` for
    ``x*z, y*z``), not alphabetical."""
    cases = [
        (
            parse_polys(["x*z", "y*z"]),
            [
                {"x": 1, "y": 2, "z": 0},
                {"x": -3, "y": 5, "z": 0},
                {"x": 0, "y": 0, "z": 7},
                {"x": 0, "y": 0, "z": -1},
            ],
        ),
        (parse_polys(["x^2+y^2-1", "y"]), [{"x": 1, "y": 0}, {"x": -1, "y": 0}]),
        (parse_polys(["x-1", "y-2"]), [{"x": 1, "y": 2}]),
    ]
    for gens, points in cases:
        dec = decompose_variety(gens)
        variables = dec.variables
        m = dec.coordinate_change
        for pt in points:
            assert set(pt) == set(variables), (
                f"point {pt} does not name the variables {variables}"
            )
            original = {v: Fraction(pt[v]) for v in variables}
            assert all(g.eval_at(original) == 0 for g in gens)
            working = {
                variables[i]: sum(
                    Fraction(m[i][j]) * original[variables[j]]
                    for j in range(len(variables))
                )
                for i in range(len(variables))
            }
            hits = 0
            for part in dec.parts:
                if part.resolvent_working.eval_at(working) == 0:
                    hits += 1
            assert hits >= 1


def test_gcd_extraction_exact():
    gens = parse_polys(["x*z", "y*z"])
    from kronecker import polyring

    f = polyring.gcd(gens[0], gens[1])
    for g in gens:
        quo = g.div_exact(f)
        assert quo is not None and f * quo == g


def test_idempotence_on_codim1_part():
    dec = decompose_variety(parse_polys(["x*z", "y*z"]))
    part1 = next(p for p in dec.parts if p.codim == 1)
    again = decompose_variety(part1.factors)
    assert [p.codim for p in again.parts] == [1]
    assert again.parts[0].resolvent == part1.resolvent


def test_determinism():
    gens = parse_polys(["x*z", "y*z"])
    a = decompose_variety(gens, EliminationConfig(seed=5))
    b = decompose_variety(gens, EliminationConfig(seed=5))
    import json

    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_parametrization_identity():
    """Substituting each accepted parametrization into every generator and
    reducing modulo phi yields zero (checked internally; re-checked here)."""
    from kronecker.elimination import _verify_parametrization

    for texts in (("x^2-2", "y-x"), ("x-1", "y-2"), ("x*z", "y*z")):
        gens = parse_polys(texts)
        dec = decompose_variety(gens)
        # the generators below are in input coordinates, which is valid
        # only while the working coordinates are the input ones
        n = len(dec.variables)
        assert dec.coordinate_change == [
            [int(i == j) for j in range(n)] for i in range(n)
        ]
        inverse_ok = [c for c in dec.components if not c.immersed]
        assert inverse_ok
        for comp in inverse_ok:
            assert _verify_parametrization(gens, comp, dec.variables)
            # the decomposition only keeps verified components
            assert comp.params or comp.phi.total_degree() >= 1


# -- coordinate redraws ----------------------------------------------------------


def _at(poly, point):
    """poly, in input coordinates, evaluated at a point keyed by name."""
    return poly.eval_at({v: point[v] for v in poly.variables})


def test_drawn_matrices_are_unimodular_and_mix_every_coordinate():
    from kronecker.elimination import _draw_matrix, _integral_inverse
    from kronecker.linalg import mat_det, mat_mul

    assert _draw_matrix(3, 0, 0) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for seed in (0, 1, 7):
        for attempt in range(1, 8):
            for n in (2, 3):
                m = _draw_matrix(n, seed, attempt)
                assert m == _draw_matrix(n, seed, attempt)  # deterministic
                assert mat_det(m) == 1
                # the first working coordinate involves every input
                # variable, and the first input variable enters every
                # working coordinate, so no coordinate stays fixed
                assert all(m[0]) and all(row[0] for row in m)
                inverse = _integral_inverse(m)
                identity = [[int(i == j) for j in range(n)] for i in range(n)]
                assert mat_mul(m, inverse) == identity == mat_mul(inverse, m)


def test_integral_inverse_refuses_a_matrix_that_is_not_unimodular():
    from kronecker.elimination import _integral_inverse

    assert _integral_inverse([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert _integral_inverse([[-1]]) == [[-1]]
    for m in ([[2, 0], [0, 1]], [[1, 2], [2, 4]]):
        with pytest.raises(AlgebraError):
            _integral_inverse(m)


def test_a_plane_and_a_line_after_a_redraw():
    # attempt 0 finds a codimension-2 resolvent free of the fiber
    # coordinate, so the decomposition needs a redraw
    dec = decompose_variety(parse_polys(["y*x", "y*z"]))
    n = len(dec.variables)
    assert dec.coordinate_change != [[int(i == j) for j in range(n)] for i in range(n)]
    parts = {p.codim: p for p in dec.parts}
    assert set(parts) == {1, 2}
    assert parts[1].resolvent == parse_poly("y")
    # the codimension-2 resolvent vanishes on the line x = z = 0 and not on
    # the whole plane y = 0
    line = parts[2].resolvent
    for t in (-2, 0, 3):
        assert _at(line, {"x": 0, "y": t, "z": 0}) == 0
    assert _at(line, {"x": 1, "y": 0, "z": 1}) != 0


@pytest.mark.parametrize(
    "texts",
    [("x-1", "y-2"), ("x*z", "y*z"), ("y*x", "y*z"), ("x^2 + y^2 + z^2 - 1", "x + y + z")],
)
def test_components_found_after_a_forced_redraw_verify(monkeypatch, texts):
    from kronecker import elimination
    from kronecker.elimination import _apply_matrix, _integral_inverse, _verify_parametrization

    draw = elimination._draw_matrix
    monkeypatch.setattr(elimination, "_draw_matrix", lambda n, seed, attempt: draw(n, seed, attempt + 1))
    gens = parse_polys(texts)
    dec = decompose_variety(gens)
    n = len(dec.variables)
    assert dec.coordinate_change != [[int(i == j) for j in range(n)] for i in range(n)]
    working = [_apply_matrix(g, _integral_inverse(dec.coordinate_change), dec.variables) for g in gens]
    accepted = [c for c in dec.components if not c.immersed]
    assert accepted
    for comp in accepted:
        assert _verify_parametrization(working, comp, dec.variables)
    # a codimension-1 part is the gcd of the generators in any coordinates
    plain = {p.codim: p.resolvent for p in decompose_variety(gens).parts}
    for p in dec.parts:
        if p.codim == 1:
            assert p.resolvent == plain[1]


def test_cli_answers_an_input_that_needs_a_redraw():
    import contextlib
    import io

    from kronecker.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["eliminate", "--", "y*x", "y*z"])
    assert rc == 0 and err.getvalue() == ""
    assert out.getvalue().splitlines()[:2] == ["codim 1: resolvent y", "  factor: y"]


def test_three_lines_from_sparse_term_map_determinants():
    # the resultants here are sparse in many weight variables, so the
    # Sylvester determinants run on the term maps, up to 6 x 6
    from kronecker.elimination import _apply_matrix, _integral_inverse, _verify_parametrization

    gens = parse_polys(["-x*z - 3*y*z - z", "-2*x*y + y*z"])
    dec = decompose_variety(gens)
    assert [(p.codim, [str(f) for f in p.factors]) for p in dec.parts] == [(2, ["2*x - z", "x + 1", "z"])]
    working = [_apply_matrix(g, _integral_inverse(dec.coordinate_change), dec.variables) for g in gens]
    accepted = [c for c in dec.components if not c.immersed]
    assert accepted
    for comp in accepted:
        assert _verify_parametrization(working, comp, dec.variables)
