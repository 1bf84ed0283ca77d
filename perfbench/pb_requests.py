"""Seeded request lists for the three workloads.

A request is a dict with
  kind    the request kind (one CLI subcommand, or a sub-family of one),
  argv    the argument vector passed to ``kronecker.cli.main`` after ``--json``,
  files   problem files {relative path: JSON text} the request reads,
  expect  the oracle's expected answer, computed here with sympy before any
          timing (None where the check needs the program's answer, as for
          ``eliminate``).

Inputs are drawn from ``random.Random(f"{workload}/{seed}")`` and are kept
only if they meet the documented preconditions of their subcommand (checked
with sympy, never with ``kronecker``). Positional expressions follow ``--``
so that a leading minus sign is not read as an option.
"""

import json
import random

import sympy
from sympy.polys.numberfields.galoisgroups import galois_group
from sympy.polys.numberfields.primes import prime_decomp

from pb_oracle import class_number_by_forms

X, Y, Z, T = sympy.symbols("x y z t")

# Requests per list: kind -> [(stratum, count)]. A stratum fixes the
# structure of an input (degrees, factor count, splitting type, class
# number); the seed draws the coefficients and the order, so the structure
# mix is the same for every seed. Strata whose requests take seconds today
# (searches for cubic factors, eliminations with a quadratic generator,
# large gcds, split primes, h >= 5, cubic and quintic Galois groups, and
# resultants and discriminants of the largest dense trivariates) appear
# once or twice per list, because each can cost up to the full 5 s limit
# and a run has to end in bounded time. Each workload has at least 100
# requests, so that at least ten latencies lie beyond the 90th percentile.
MIX = {
    "factor": {
        "factor-uni": [
            ((1, 1), 5), ((1, 2), 5), ((1, 3), 5), ((1, 1, 1), 5), ((1, 1, 2), 5), ((1, 1, 3), 5),
            ((2, 2), 4), ((2, 3), 4), ((1, 2, 2), 4), ((2, 2, 2), 4), ((2, 2, 3), 4),
            ((1, 2, 3), 2), ((1, 3, 3), 2), ((3, 3), 1), ((2, 3, 3), 1), ((3, 3, 3), 1),
        ],
        "factor-biv": [((1, 1), 20), ((1, 2), 1), ((2, 2), 1)],
        "factor-irr": [(4, 8), (5, 8), (6, 4)],
        "eliminate": [((1, 1), 30), ((1, 2), 1), ((2, 2), 1)],
    },
    "resultant": {
        "resultant": [
            ((a, b, e), {(2, 2, 2): 16, (4, 4, 2): 2}.get((a, b, e), 4))
            for e in (1, 2)
            for a, b in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4))
        ],
        "disc": [((a, e), 2 if (a, e) == (4, 2) else 4) for e in (1, 2) for a in (2, 3, 4)],
        "gcd": [((2, 1), 2), ((3, 1), 2), ((2, 2), 2), ((3, 2), 1)],
        "euler-trace": [(m, 4) for m in (2, 3, 4, 5)],
        "residue": [(2, 4), (3, 4)],
        "interpolate": [(2, 4), (3, 4)],
    },
    "numberfield": {
        "prime-decomp": [((3,), 36), ((1, 2), 16), ((1, 1, 1), 1)],
        "class-number": [(1, 12), (2, 12), (3, 1), (4, 1), (5, 1)],
        "galois3": [(None, 1)],
        "galois4": [(None, 24)],
        "galois5": [(None, 1)],
    },
}

# One untimed warm-up request per kind, the same for every seed. It is part
# of set-up: the quintic fills the S5 subgroup table, which every one-shot
# ``kronecker galois`` call on a quintic pays for. ``x^5 - 2`` is among the
# cheapest quintics to answer, so set-up is mostly that table.
WARMUP = {
    "factor": [
        ["factor", "--", "x^3 - x^2 - 4*x + 4"],
        ["factor", "--", "x^2*y - 2*x + x*y^2 - 2*y"],
        ["eliminate", "--", "x^2 + y^2 + z^2 - 1", "x + y + z"],
    ],
    "resultant": [
        ["resultant", "--", "x^2*y + z", "x*z - y", "x"],
        ["disc", "--", "x^3 + y*x + z", "x"],
        ["gcd", "--", "(x + y)*(x - z)", "(x + y)*(y + z)"],
        ["euler-trace", "--", "x^3 - 2*x + 7", "1"],
    ],
    "numberfield": [
        ["prime-decomp", "--minpoly", "t^3 - t - 1", "--p", "7"],
        ["class-number", "-d", "-23"],
        ["galois", "--", "x^5 - 2"],
    ],
}

WORKLOADS = tuple(MIX)

# squarefree d in [-47, -3] by class number; the last stratum holds h >= 5
_SQUAREFREE_D = [d for d in range(-47, -2) if all(m == 1 for m in sympy.factorint(-d).values())]
CLASS_NUMBER_D = {
    h: [d for d in _SQUAREFREE_D if min(class_number_by_forms(d), 5) == h] for h in (1, 2, 3, 4, 5)
}


def render(expr, gens):
    """Text in the ``parse_poly`` grammar: integer coefficients, ``^`` powers."""
    poly = expr if isinstance(expr, sympy.Poly) else sympy.Poly(expr, *gens)
    chunks = []
    for exps, c in poly.terms():
        mono = "*".join(str(g) if k == 1 else f"{g}^{k}" for g, k in zip(gens, exps) if k)
        mag = abs(int(c))
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else str(mag))
        chunks.append(("-" if c < 0 else "+", body))
    if not chunks:
        return "0"
    sign, body = chunks[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def _monomials(gens, max_degree):
    out = [sympy.Integer(1)]
    for d in range(1, max_degree + 1):
        out.extend(sympy.Mul(*m) for m in sympy.utilities.iterables.combinations_with_replacement(gens, d))
    return out


def _uni(rng, var, degree, lo, hi, monic=False):
    coeffs = [rng.randint(lo, hi) for _ in range(degree)]
    lead = 1 if monic else rng.choice([c for c in range(lo, hi + 1) if c])
    return lead * var**degree + sum(c * var**k for k, c in enumerate(coeffs))


def _sparse(rng, gens, degree, lo, hi):
    """Random polynomial of total degree exactly ``degree`` from 2-4 monomials."""
    monos = _monomials(gens, degree)
    while True:
        picked = rng.sample(monos, min(rng.randint(2, 4), len(monos)))
        expr = sum(rng.choice([c for c in range(lo, hi + 1) if c]) * m for m in picked)
        if sympy.Poly(expr, *gens).total_degree() == degree:
            return sympy.expand(expr)


def _dense_xyz(rng, x_degree, yz_degree):
    """Poly in (x, y, z), dense in x; each x-coefficient a dense (y, z)
    polynomial of the given total degree."""
    yz = [(a, d - a) for d in range(yz_degree + 1) for a in range(d + 1)]
    while True:
        terms = {(k, a, b): rng.randint(-3, 3) for k in range(x_degree + 1) for a, b in yz}
        poly = sympy.Poly.from_dict({e: c for e, c in terms.items() if c}, X, Y, Z)
        if poly.degree(X) == x_degree:
            return poly


def _factor_request(expr, gens, kind):
    _, factors = sympy.factor_list(expr, *gens)
    expect = sorted([render(f, gens), m] for f, m in factors)
    return {"kind": kind, "argv": ["factor", "--", render(expr, gens)], "files": {}, "expect": expect}


def _gen_factor(rng, kind, stratum, path):
    if kind == "factor-uni":  # stratum: the factor degrees
        expr = sympy.Mul(*[_uni(rng, X, d, -4, 4) for d in stratum])
        return _factor_request(sympy.expand(expr), (X,), kind)
    if kind == "factor-biv":  # stratum: the total degrees of the two factors
        while True:
            f = sympy.expand(sympy.Mul(*[_sparse(rng, (X, Y), d, -4, 4) for d in stratum]))
            if f.free_symbols == {X, Y}:
                return _factor_request(f, (X, Y), kind)
    if kind == "factor-irr":  # stratum: the degree
        return _factor_request(_uni(rng, X, stratum, -4, 4), (X,), kind)
    if kind == "eliminate":  # stratum: the total degrees of the two generators
        while True:
            gens = [_sparse(rng, (X, Y, Z), d, -3, 3) for d in stratum]
            if set().union(*(g.free_symbols for g in gens)) == {X, Y, Z}:
                texts = [render(g, (X, Y, Z)) for g in gens]
                return {"kind": kind, "argv": ["eliminate", "--", *texts], "files": {}, "expect": None}
    raise ValueError(kind)


def _product_grid(rng, nvars):
    """Square system prod_r (v - r) = 0, one equation per variable, with
    2-3 distinct integer roots each, and its full grid of simple zeros."""
    names = (X, Y, Z)[:nvars]
    system, roots = [], []
    for v in names:
        rs = rng.sample(range(-4, 5), rng.randint(2, 3))
        system.append(sympy.expand(sympy.Mul(*[(v - r) for r in rs])))
        roots.append(rs)
    points = [[]]
    for rs in roots:
        points = [p + [r] for p in points for r in rs]
    return names, system, points


def _gen_resultant(rng, kind, stratum, path):
    if kind == "resultant":  # stratum: x-degrees of both, (y, z)-degree
        p, q = _dense_xyz(rng, stratum[0], stratum[2]), _dense_xyz(rng, stratum[1], stratum[2])
        expect = render(p.resultant(q).as_expr(), (X, Y, Z))
        texts = [render(p, (X, Y, Z)), render(q, (X, Y, Z))]
        return {"kind": kind, "argv": ["resultant", "--", *texts, "x"], "files": {}, "expect": expect}
    if kind == "disc":  # stratum: x-degree, (y, z)-degree
        p = _dense_xyz(rng, *stratum)
        expect = render(p.discriminant().as_expr(), (X, Y, Z))
        return {"kind": kind, "argv": ["disc", "--", render(p, (X, Y, Z)), "x"], "files": {}, "expect": expect}
    if kind == "gcd":  # stratum: x-degree and (y, z)-degree of both cofactors
        while True:
            lin = sympy.Poly(sum(rng.randint(-3, 3) * v for v in (X, Y, Z)) + rng.randint(-3, 3), X, Y, Z)
            if lin.total_degree() == 1:
                break
        p, q = (lin * _dense_xyz(rng, *stratum) for _ in range(2))
        expect = render(p.gcd(q), (X, Y, Z))
        texts = [render(p, (X, Y, Z)), render(q, (X, Y, Z))]
        return {"kind": kind, "argv": ["gcd", "--", *texts], "files": {}, "expect": expect}
    if kind == "euler-trace":  # stratum: the degree
        while True:
            f = _uni(rng, X, stratum, -5, 5)
            if sympy.degree(sympy.gcd(f, sympy.diff(f, X)), X) == 0:
                break
        i = rng.randint(0, stratum - 1)
        expect = "1" if i == stratum - 1 else "0"
        return {"kind": kind, "argv": ["euler-trace", "--", render(f, (X,)), str(i)], "files": {}, "expect": expect}
    if kind in ("residue", "interpolate"):  # stratum: the number of variables
        names, system, points = _product_grid(rng, stratum)
        doc = {"system": [render(f, names) for f in system], "points": points}
        if kind == "residue":
            # deg F < deg J = sum(deg F_i) - n, so Jacobi's sum vanishes
            jac_degree = sum(sympy.Poly(f, *names).total_degree() for f in system) - len(names)
            doc["numerator"] = render(_sparse(rng, names, jac_degree - 1, -5, 5), names) if jac_degree > 1 else "1"
            expect = "0"
        else:
            doc["values"] = [rng.randint(-9, 9) for _ in points]
            expect = None
        return {"kind": kind, "argv": [kind, "--", path], "files": {path: json.dumps(doc)}, "expect": expect}
    raise ValueError(kind)


def _gen_numberfield(rng, kind, stratum, path):
    if kind == "prime-decomp":  # stratum: the residue degrees
        while True:
            f = _uni(rng, T, 3, -3, 3, monic=True)
            if not sympy.Poly(f, T).is_irreducible:
                continue
            disc = int(sympy.discriminant(f, T))
            p = rng.choice([p for p in sympy.primerange(2, 32) if disc % p] or [None])
            if p and tuple(sorted(P.f for P in prime_decomp(p, sympy.Poly(f, T)))) == stratum:
                break
        argv = ["prime-decomp", "--minpoly", render(f, (T,)), "--p", str(p)]
        return {"kind": kind, "argv": argv, "files": {}, "expect": list(stratum)}
    if kind == "class-number":  # stratum: the class number, 5 for h >= 5
        d = rng.choice(CLASS_NUMBER_D[stratum])
        return {"kind": kind, "argv": ["class-number", "-d", str(d)], "files": {}, "expect": class_number_by_forms(d)}
    if kind.startswith("galois"):
        while True:
            f = _uni(rng, X, int(kind[-1]), -5, 5, monic=True)
            if sympy.Poly(f, X).is_irreducible:
                break
        group, _ = galois_group(sympy.Poly(f, X), by_name=False)
        return {"kind": kind, "argv": ["galois", "--", render(f, (X,))], "files": {}, "expect": int(group.order())}
    raise ValueError(kind)


_GENERATORS = {"factor": _gen_factor, "resultant": _gen_resultant, "numberfield": _gen_numberfield}


def generate(workload, seed, workdir=".perfbench-work"):
    """The seed's fixed request list for one workload, kinds interleaved."""
    rng = random.Random(f"{workload}/{seed}")
    slots = [(kind, st) for kind, strata in MIX[workload].items() for st, n in strata for _ in range(n)]
    rng.shuffle(slots)
    gen = _GENERATORS[workload]
    return [gen(rng, kind, stratum, f"{workdir}/r{i:03d}.json") for i, (kind, stratum) in enumerate(slots)]
