"""Independent checks of the CLI's JSON answers.

Expected answers come from sympy (computed in ``pb_requests`` before any
timing); class numbers come from a count of reduced binary quadratic forms
written here. ``check`` returns an empty string for a correct answer and a
reason otherwise.
"""

import json
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import sympy

_TERM = re.compile(r"([+-]?)([^+-]+)")


def terms(text):
    """Term map {((variable, exponent), ...): Fraction} of an expanded
    polynomial as the CLI prints it, e.g. ``-3*x^2*y + 1/2*z - 4``."""
    out = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff, mono = Fraction(-1 if sign == "-" else 1), {}
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                mono[name] = mono.get(name, 0) + int(exp or 1)
        key = tuple(sorted(mono.items()))
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def _mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            mono = dict(ka)
            for name, exp in kb:
                mono[name] = mono.get(name, 0) + exp
            key = tuple(sorted(mono.items()))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _normal(poly):
    """Primitive integer form with positive leading coefficient (the
    coefficient of the largest monomial in a fixed order), as a key."""
    den = lcm(*(c.denominator for c in poly.values()))
    num = gcd(*(int(c * den) for c in poly.values()))
    scale = Fraction(den, num) if poly[max(poly)] > 0 else -Fraction(den, num)
    return frozenset((k, c * scale) for k, c in poly.items())


def to_sympy(poly):
    return sympy.Add(*[c * sympy.Mul(*[sympy.Symbol(n) ** e for n, e in mono]) for mono, c in poly.items()])


def _symbols(*texts):
    """Variables in first-appearance order over the texts (the CLI's order)."""
    order = []
    for text in texts:
        for name in re.findall(r"[A-Za-z_]\w*", text):
            if name not in order:
                order.append(name)
    return [sympy.Symbol(n) for n in order]


def class_number_by_forms(d):
    """h(d) for squarefree d < 0: reduced forms (a, b, c) of the fundamental
    discriminant, |b| <= a <= c, b >= 0 when |b| = a or a = c."""
    disc = d if d % 4 == 1 else 4 * d
    h = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c > a or (c == a and b >= 0):
                h += 1
        a += 1
    return h


def _check_factor(req, doc):
    got = Counter((_normal(terms(f)), m) for f, m in doc["factors"])
    want = Counter((_normal(terms(f)), m) for f, m in req["expect"])
    if got != want:
        return f"factors {doc['factors']} differ from {req['expect']}"
    product = {(): Fraction(doc["unit"])}
    for f, m in doc["factors"]:
        for _ in range(m):
            product = _mul(product, terms(f))
    if product != terms(req["argv"][-1]):
        return f"unit {doc['unit']} times the factors does not give the input"
    return ""


def _in_radical(poly, gens, variables):
    """Whether ``poly`` vanishes on V(gens) over the complex numbers."""
    t = sympy.Dummy("t")
    return sympy.groebner([*gens, 1 - t * poly], *variables, t).exprs == [1]


def _check_eliminate(req, doc):
    """The parts are reported in input coordinates, whatever coordinates the
    program worked in, and are checked in full: emptiness, coverage (the
    resolvents vanish on the whole variety, so no component is missing) and
    that every factor contains a piece of the variety of its dimension. The components are reported in the
    working coordinates, and the answer does not say which they were. A
    component is substituted back into the generators when the squarefree
    part of its projection equation is one of the parts' factors, which is
    the case in input coordinates; after a coordinate redraw it is not, and
    such a component is left to the checks of the parts."""
    texts = req["argv"][2:]
    gens = [to_sympy(terms(t)) for t in texts]
    variables = _symbols(*texts)
    empty = sympy.groebner(gens, *variables).exprs == [1]
    if doc["empty"] != empty:
        return f"reported empty: {doc['empty']}, but the variety is {'empty' if empty else 'not empty'}"
    if empty:
        return ""
    if not doc["parts"]:
        return "no part reported for a nonempty variety"
    resolvents = [to_sympy(terms(p["resolvent"])) for p in doc["parts"]]
    if not _in_radical(sympy.Mul(*resolvents), gens, variables):
        return "the resolvents do not vanish on the whole variety: a component is missing"
    for p in doc["parts"]:
        for f in p["factors"]:
            meet = sympy.groebner([*gens, to_sympy(terms(f))], *variables)
            if meet.exprs == [1] or (p["codim"] < len(variables) and meet.is_zero_dimensional):
                return f"factor {f} contains no codimension-{p['codim']} piece of the variety"
    factors = [to_sympy(terms(f)) for p in doc["parts"] for f in p["factors"]]
    lead = variables[0]
    for comp in doc["components"]:
        phi = to_sympy(terms(comp["phi"]))
        if phi == 0 or sympy.degree(phi, lead) < 1:
            return f"projection equation {comp['phi']} does not involve {lead}"
        radical = sympy.sqf_part(phi)
        if not any(sympy.cancel(radical / f).is_number for f in factors):
            continue  # working coordinates differ from the input ones
        subs = {sympy.Symbol(p["var"]): to_sympy(terms(p["num"])) / to_sympy(terms(p["den"])) for p in comp["params"]}
        for g in gens:
            num, _ = sympy.fraction(sympy.together(g.subs(subs)))
            if sympy.prem(sympy.expand(num), phi, lead) != 0:
                return f"component {comp['phi']} does not satisfy {g}"
    return ""


def _check_equal(key):
    def check(req, doc):
        if terms(doc[key]) != terms(req["expect"]):
            return f"{key} {doc[key]} differs from {req['expect']}"
        return ""

    return check


def _check_gcd(req, doc):
    if _normal(terms(doc["gcd"])) != _normal(terms(req["expect"])):
        return f"gcd {doc['gcd']} is not a unit times {req['expect']}"
    return ""


def _check_value(req, doc):
    if Fraction(doc["value"]) != Fraction(req["expect"]):
        return f"value {doc['value']} differs from {req['expect']}"
    return ""


def _evaluate(poly, point):
    total = Fraction(0)
    for mono, c in poly.items():
        for name, exp in mono:
            c *= Fraction(point[name]) ** exp
        total += c
    return total


def _check_interpolate(req, doc):
    (path,) = req["files"]
    problem = json.loads(req["files"][path])
    interpolant = terms(doc["interpolant"])
    names = [str(v) for v in _symbols(*problem["system"])]
    for point, value in zip(problem["points"], problem["values"]):
        if _evaluate(interpolant, dict(zip(names, point))) != value:
            return f"interpolant takes another value than {value} at {point}"
    return ""


def _check_prime_decomp(req, doc):
    got = sorted(pd["f"] for pd in doc)
    if got != req["expect"] or not all(pd["certified"] for pd in doc):
        return f"residue degrees {got} differ from {req['expect']} or are uncertified"
    return ""


def _check_class_number(req, doc):
    if doc["h"] != req["expect"]:
        return f"h = {doc['h']}, reduced forms give {req['expect']}"
    return ""


def _check_galois(req, doc):
    if doc["order"] != req["expect"]:
        return f"group order {doc['order']} differs from {req['expect']}"
    return ""


_CHECKS = {
    "factor-uni": _check_factor,
    "factor-biv": _check_factor,
    "factor-irr": _check_factor,
    "eliminate": _check_eliminate,
    "resultant": _check_equal("resultant"),
    "disc": _check_equal("discriminant"),
    "gcd": _check_gcd,
    "euler-trace": _check_value,
    "residue": _check_value,
    "interpolate": _check_interpolate,
    "prime-decomp": _check_prime_decomp,
    "class-number": _check_class_number,
    "galois3": _check_galois,
    "galois4": _check_galois,
    "galois5": _check_galois,
}


def check(req, stdout):
    """Empty string when the printed answer is correct, else the reason."""
    try:
        doc = json.loads(stdout)
        return _CHECKS[req["kind"]](req, doc)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"
