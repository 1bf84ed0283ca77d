"""Command-line front-end.

Subcommands: factor, gcd, resultant, disc, eliminate, parametrize, galois,
resolvent, genus-disc, divisor-gcd, divides, prime-decomp, ramified,
class-number, residue, euler-trace, interpolate.

Exit codes: 0 success, 1 mathematical-domain error (bad polynomial, capped
degree, ramified prime, ...), 2 usage error.  Output is deterministic for a
fixed argument vector and seed; --json renders a single JSON document.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from kronecker import classgroup, divisors, elimination, factorization, galois, residues
from kronecker.errors import AlgebraError, DomainError
from kronecker.numberfield import NumberField
from kronecker.polyring import UniPoly, discriminant, gcd, parse_poly, parse_polys, resultant


def _field(minpoly_text):
    return NumberField(UniPoly.from_multipoly(parse_poly(minpoly_text)))


def _form(field, text):
    p = parse_poly(text)
    tvar = field.minpoly.variable
    unames = tuple(v for v in p.variables if v != tvar)
    return divisors.DivisorForm.from_multipoly(field, p, unames)


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return 0


def _rat(x):
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_factor(args):
    p = parse_poly(args.expr)
    fact = factorization.factor(p)
    payload = {
        "unit": _rat(fact.unit),
        "factors": [[str(f), m] for f, m in fact.factors],
    }
    return _emit(args, payload, [str(fact)])


def _cmd_gcd(args):
    a, b = parse_polys([args.p, args.q])
    g = gcd(a, b)
    return _emit(args, {"gcd": str(g)}, [str(g)])


def _cmd_resultant(args):
    a, b = parse_polys([args.p, args.q])
    r = resultant(a, b, args.var)
    return _emit(args, {"resultant": str(r)}, [str(r)])


def _cmd_disc(args):
    p = parse_poly(args.expr)
    var = args.var
    if var is None:
        used = sorted(p.used_variables())
        if len(used) > 1:
            raise AlgebraError("specify the variable for a multivariate discriminant")
        var = used[0] if used else None  # a constant has degree 0 in any variable
    d = discriminant(p, var)
    return _emit(args, {"discriminant": str(d)}, [str(d)])


def _decompose(args):
    gens = parse_polys(args.generators)
    config = elimination.EliminationConfig(
        seed=args.seed, max_vars=args.max_vars, max_degree=args.max_degree
    )
    return elimination.decompose_variety(gens, config)


def _cmd_eliminate(args):
    dec = _decompose(args)
    lines = []
    if dec.empty:
        lines.append("variety: empty")
    elif dec.whole_space:
        lines.append("variety: whole space (zero ideal)")
    for p in dec.parts:
        if p.codim == 0:
            continue
        lines.append(f"codim {p.codim}: resolvent {p.resolvent}")
        for f in p.factors:
            lines.append(f"  factor: {f}")
    lines.append(f"total resolvente: {elimination.total_resolvente(dec)}")
    return _emit(args, dec.to_json(), lines)


def _cmd_parametrize(args):
    dec = _decompose(args)
    lines = []
    for c in dec.components:
        if c.immersed:
            lines.append(f"immersed sheet (codim {c.codim}, degree {c.degree}): skipped")
            continue
        lines.append(f"component codim {c.codim} degree {c.degree}: phi = {c.phi}")
        for v, num in sorted(c.params.items()):
            lines.append(f"  {v} = ({num}) / ({c.phi_prime})")
    if not dec.components:
        lines.append("no parametrizable components")
    return _emit(args, dec.to_json(), lines)


def _weights(text):
    """The --u type: comma-separated integers, else a usage error."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"comma-separated integer weights expected, got {text!r}") from None


def _check_u(u, n):
    if u is not None and len(u) != n:
        raise AlgebraError(f"need {n} comma-separated weights")
    return u


def _cmd_galois(args):
    f = UniPoly.from_multipoly(parse_poly(args.expr))
    res = galois.galois_group(f, u=_check_u(args.u, f.degree))
    lines = [
        f"order {res.order}",
        "factor pattern: " + "+".join(str(d) for d in res.factor_pattern),
    ]
    for g in res.group:
        lines.append("  " + " ".join(str(i) for i in g))
    return _emit(args, res.to_json(), lines)


def _cmd_resolvent(args):
    f = UniPoly.from_multipoly(parse_poly(args.expr))
    u = _check_u(args.u, f.degree) or tuple(range(f.degree))
    r = galois.resolvent_total_symmetric(f, u)
    payload = {"u": list(u), "resolvent": str(r)}
    return _emit(args, payload, [str(r)])


def _cmd_genus_disc(args):
    lhs, rhs, equal = galois.genus_disc_identity(args.n)
    payload = {"n": args.n, "equal": equal, "degree": lhs.total_degree()}
    return _emit(
        args,
        payload,
        [f"det^2 == D^({args.n}!/2): {str(equal).lower()} (degree {lhs.total_degree()})"],
    )


def _cmd_divisor_gcd(args):
    field = _field(args.minpoly)
    elems = [
        field.element_from_multipoly(parse_poly(t), field.minpoly.variable)
        for t in args.elements
    ]
    form = divisors.gcd_divisor(elems)
    nm, content, fm = divisors.form_norm_content_fm(form)
    payload = {
        "form": str(form),
        "norm": str(nm),
        "content": content,
        "fm": str(fm),
        "unit": content == 1,
    }
    return _emit(
        args,
        payload,
        [f"gcd divisor: {form}", f"norm: {nm}", f"content: {content}", f"Fm: {fm}"],
    )


def _cmd_divides(args):
    field = _field(args.minpoly)
    d = _form(field, args.d)
    g = _form(field, args.g)
    ok = divisors.divides(d, g)
    return _emit(args, {"divides": ok}, [str(ok).lower()])


def _cmd_prime_decomp(args):
    field = _field(args.minpoly)
    decomp = divisors.decompose_prime(field, args.p)
    payload = [pd.to_json() for pd in decomp]
    lines = [
        f"p={pd.p} f={pd.f} local_factor={pd.local_factor} form={pd.form} "
        f"certified={str(pd.certified).lower()}"
        for pd in decomp
    ]
    return _emit(args, payload, lines)


def _cmd_ramified(args):
    field = _field(args.minpoly)
    ps = sorted(divisors.ramified_primes(field))
    return _emit(args, {"ramified": ps}, [" ".join(str(p) for p in ps) or "(none)"])


def _cmd_class_number(args):
    res = classgroup.class_number_imag_quadratic(args.d)
    lines = [f"h({args.d}) = {res.h}"]
    for f, n, o in res.class_representatives:
        lines.append(f"  class rep {f} (norm {n}, order {o})")
    return _emit(args, res.to_json(), lines)


def _load_problem(path):
    """The JSON object in the problem file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DomainError("problem file: a JSON object expected")
    return doc


def _entry(doc, name, kind):
    """doc[name], checked to be a str or a list, as kind says."""
    value = doc.get(name)
    if not isinstance(value, kind):
        raise DomainError(f"problem file: {name!r} must be a {'string' if kind is str else 'list'}")
    return value


def _rationals(values, name):
    """The list values, read from the problem file's field name, as Fractions."""
    if not isinstance(values, list):
        raise DomainError(f"problem file: {name!r} must be a list")
    try:
        return [Fraction(v) for v in values]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"problem file: {name!r} must hold rational numbers") from None


def _point_set(doc):
    system = _entry(doc, "system", list)
    if not all(isinstance(f, str) for f in system):
        raise DomainError("problem file: 'system' must be a list of strings")
    system = parse_polys(system)
    points = [_rationals(pt, "points") for pt in _entry(doc, "points", list)]
    return residues.PointSet(system, points)


def _cmd_residue(args):
    doc = _load_problem(args.file)
    ps = _point_set(doc)
    numerator = parse_poly(_entry(doc, "numerator", str))
    value = residues.jacobi_sum(ps, numerator)
    return _emit(args, {"value": _rat(value)}, [_rat(value)])


def _cmd_euler_trace(args):
    f = UniPoly.from_multipoly(parse_poly(args.expr))
    value = residues.euler_trace(f, args.i)
    return _emit(args, {"value": _rat(value)}, [_rat(value)])


def _cmd_interpolate(args):
    doc = _load_problem(args.file)
    ps = _point_set(doc)
    values = _rationals(doc.get("values"), "values")
    p = residues.interpolate_zero_dim(ps, values)
    return _emit(args, {"interpolant": str(p)}, [str(p)])


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    top = argparse.ArgumentParser(
        prog="kronecker",
        description="Exact computer algebra: factorization, elimination, "
        "divisors, Galois resolvents, residues.",
    )
    top.add_argument("--json", action="store_true", help="emit a single JSON document")
    top.add_argument("--seed", type=int, default=0, help="seed for coordinate draws")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a polynomial over Q")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("gcd", help="polynomial gcd")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=_cmd_gcd)

    p = sub.add_parser("resultant", help="resultant in one variable")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("var")
    p.set_defaults(func=_cmd_resultant)

    p = sub.add_parser("disc", help="discriminant in one variable")
    p.add_argument("expr")
    p.add_argument("var", nargs="?", default=None)
    p.set_defaults(func=_cmd_disc)

    for name, fn, extra_help in (
        ("eliminate", _cmd_eliminate, "decompose a variety into equidimensional parts"),
        ("parametrize", _cmd_parametrize, "parametrize the components of a variety"),
    ):
        p = sub.add_parser(name, help=extra_help)
        p.add_argument("generators", nargs="+")
        p.add_argument("--max-vars", type=int, default=3)
        p.add_argument("--max-degree", type=int, default=4)
        p.set_defaults(func=fn)

    for name, fn, extra_help in (
        ("galois", _cmd_galois, "Galois group via resolvent factorization"),
        ("resolvent", _cmd_resolvent, "total resolvent in the splitting algebra"),
    ):
        p = sub.add_parser(name, help=extra_help)
        p.add_argument("expr")
        weights_help = "comma-separated integer weights; a negative first weight needs =, as in --u=-1,2"
        p.add_argument("--u", type=_weights, default=None, help=weights_help)
        p.set_defaults(func=fn)

    p = sub.add_parser("genus-disc", help="det^2 = D^(n!/2) identity check")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_genus_disc)

    p = sub.add_parser("divisor-gcd", help="gcd divisor of algebraic integers")
    p.add_argument("--minpoly", required=True)
    p.add_argument("elements", nargs="+", help="elements as polynomials in t")
    p.set_defaults(func=_cmd_divisor_gcd)

    p = sub.add_parser("divides", help="divisor-form divisibility test")
    p.add_argument("--minpoly", required=True)
    p.add_argument("d", help="divisor form in t and indeterminates")
    p.add_argument("g", help="dividend form")
    p.set_defaults(func=_cmd_divides)

    p = sub.add_parser("prime-decomp", help="prime decomposition in Z[theta]")
    p.add_argument("--minpoly", required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_prime_decomp)

    p = sub.add_parser("ramified", help="primes dividing the discriminant")
    p.add_argument("--minpoly", required=True)
    p.set_defaults(func=_cmd_ramified)

    p = sub.add_parser("class-number", help="class group of Q(sqrt d), d < 0")
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(func=_cmd_class_number)

    p = sub.add_parser("residue", help="Jacobi sum from a JSON problem file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_residue)

    p = sub.add_parser("euler-trace", help="trace of x^i/f'(x) mod f")
    p.add_argument("expr")
    p.add_argument("i", type=int)
    p.set_defaults(func=_cmd_euler_trace)

    p = sub.add_parser("interpolate", help="zero-dimensional interpolation")
    p.add_argument("file")
    p.set_defaults(func=_cmd_interpolate)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
