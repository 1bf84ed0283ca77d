"""Equidimensional decomposition of affine varieties by successive
elimination.

The loop, for k = n-1 down to 0: the gcd of the current generators is the
partial resolvent describing the codimension-(n-k) part; dividing it out
and eliminating the last remaining variable through the resultant of two
indeterminate-weighted combinations projects what is left one dimension
down.  The product of the partial resolvents is the total resolvent.  The
loop stops at a constant generator or after the last variable; generators
left over then have no common root, so with no partial resolvent recorded
the variety is empty.

With exactly two generators g and h involving the variable, of degrees
m >= n in it, the weights only multiply the resultant by a unit: by the
pencil identity Syl(ag + bh, cg + dh) = [[aI, bI], [cI, dI]] Syl_(m,m)(g, h),
Res(ag + bh, cg + dh) = (ad - bc)^m Res_(m,m)(g, h)
= +-(ad - bc)^m lc(g)^(m-n) Res(g, h).  So that step takes the one plain
resultant lc(g)^(m-n) Res(g, h) (see eliminate_step); three or more
generators keep the weights.

Component parametrization follows the classical extraction from the
u-weighted resolvent: writing the fiber coordinate as
x = u_0 x0 + u_1 x1 + ... and rerunning the same loop on the substituted
generators, an irreducible factor of the u-resolvent of degree d carries
the projection equation as its u_0^d coefficient, and the coefficient of
u_i u_0^(d-1) has the shape x_i * phi' - phi_i with phi' the derivative of
the projection equation, so each dependent coordinate is recovered as
phi_i / phi'.

Coordinates: the first attempt uses the input coordinates unchanged; when a
degeneracy is detected (a resolvent not involving the fiber coordinate, a
mismatch between the plain and u-weighted runs, an unverifiable
parametrization), the decomposition restarts with a seeded unimodular
change of coordinates L*U (lower times upper unitriangular), at most 8
redraws.  The skeleton
(parts, resolvents, factors) is reported mapped back to the input
coordinates; parametrizations live in the working coordinates, which the
result records.
"""

import random
from fractions import Fraction

from kronecker import linalg, polyring
from kronecker.errors import AlgebraError, DomainError
from kronecker.factorization import factor_multivariate
from kronecker.polyring import MultiPoly, content_primitive, normalize_primitive

MAX_RETRIES = 8
_ENTRIES = tuple(c for c in range(-9, 10) if c)  # off-diagonal entries of a redrawn L and U

_X = "X_"  # reserved fiber-combination variable for the u-weighted run


class EliminationConfig:
    def __init__(self, seed=0, max_vars=3, max_degree=4):
        if max_vars < 1 or max_degree < 1:
            raise DomainError("bounds must be positive")
        self.seed = seed
        self.max_vars = max_vars
        self.max_degree = max_degree


class EliminationStep:
    def __init__(self, generators, eliminated):
        self.generators = generators
        self.eliminated = eliminated


class VarietyPart:
    def __init__(self, codim, resolvent, factors, resolvent_working, factors_working):
        self.codim = codim
        self.resolvent = resolvent  # squarefree, input coordinates
        self.factors = factors  # irreducible factors, input coordinates
        self.resolvent_working = resolvent_working  # same data in the working coordinates
        self.factors_working = factors_working


class ComponentParam:
    def __init__(self, codim, degree, phi, phi_prime, params, immersed=False):
        self.codim = codim
        self.degree = degree
        self.phi = phi  # projection equation, working coordinates
        self.phi_prime = phi_prime  # shared denominator
        self.params = params  # variable -> numerator (x_i = num / phi')
        self.immersed = immersed


class VarietyDecomposition:
    """Decomposition of V(generators) into equidimensional parts.

    ``variables`` holds the variable names in order of first appearance
    across the generators (not sorted). ``coordinate_change`` is a square
    integer matrix whose rows and columns both index ``variables``: row i
    gives working coordinate i as an integer combination of the input
    variables."""

    def __init__(self, variables, coordinate_change, empty=False, whole_space=False):
        self.variables = variables
        self.coordinate_change = coordinate_change  # row i: working_i as integer combo of input vars
        self.parts = []
        self.components = []
        self.empty = empty
        self.whole_space = whole_space

    def to_json(self):
        return {
            "empty": self.empty,
            "parts": [
                {
                    "codim": p.codim,
                    "resolvent": str(p.resolvent),
                    "factors": [str(f) for f in p.factors],
                }
                for p in self.parts
            ],
            "components": [
                {
                    "phi": str(c.phi),
                    "params": [
                        {"var": v, "num": str(num), "den": str(c.phi_prime)}
                        for v, num in sorted(c.params.items())
                    ],
                }
                for c in self.components
                if not c.immersed
            ],
        }


class _Degenerate(Exception):
    """Coordinate system insufficiently general; redraw and retry."""


# ---------------------------------------------------------------------------
# one elimination step
# ---------------------------------------------------------------------------


def eliminate_step(generators, var):
    """Project V(generators) along var: the generators free of var, and
    the coefficients, with respect to the U,V monomials, of the resultant
    of two indeterminate combinations of those that involve it.

    Generators free of the eliminated variable pass through untouched.  A
    single active generator projects densely, so it contributes nothing.
    When nothing involves the variable the input is returned unchanged with
    eliminated=False.

    Two active generators g and h, of degrees m >= n in var, need no
    weights (the pencil identity).  The Sylvester matrix of ag + bh and
    cg + dh, both of degree m, factors as [[aI, bI], [cI, dI]] times
    Syl_(m,m)(g, h), the Sylvester matrix that reads h as a polynomial of
    degree m with zero leading coefficients, so the weighted resultant is
    (ad - bc)^m Res_(m,m)(g, h).  The first column of Syl_(m,m)(g, h) holds
    lc(g) in g's first row and zeros elsewhere, since h's coefficient there
    is zero; expanding down it leaves Syl_(m,m-1)(g, h), and m - n such
    steps leave +-lc(g)^(m-n) Res(g, h).  Each U,V coefficient is therefore
    +-C(m, k) lc(g)^(m-n) Res(g, h), which normalize_primitive maps to one
    polynomial, so that one generator is returned in their place, over the
    variable tuple the weighted route gives it.
    """
    gens = [g for g in generators if not g.is_zero]
    active = [g for g in gens if g.degree(var) > 0]
    passive = [g for g in gens if g.degree(var) <= 0]
    if not active:
        return EliminationStep(list(gens), False)
    if len(active) == 1:
        return EliminationStep(_interreduce(passive), True)
    if len(active) > 2:
        return _weighted_step(passive, active, var)
    g, h = active[0]._align(active[1])
    if g.degree(var) < h.degree(var):
        g, h = h, g
    m, n = g.degree(var), h.degree(var)
    res = g.coeffs_in(var)[m] ** (m - n) * polyring.resultant(g, h, var)
    return EliminationStep(_interreduce(passive + [res]), True)


def _weighted_step(passive, active, var):
    """Kronecker's projection of m >= 2 active generators: the coefficients
    of Res(sum U_i g_i, sum V_i g_i) in the weights, after the passive
    generators."""
    m = len(active)
    unames = [f"U{i + 1}" for i in range(m)]
    vnames = [f"V{i + 1}" for i in range(m)]
    a = MultiPoly.zero(())
    b = MultiPoly.zero(())
    for i, g in enumerate(active):
        a = a + MultiPoly.var(unames[i], (unames[i],)) * g
        b = b + MultiPoly.var(vnames[i], (vnames[i],)) * g
    res = polyring.resultant(a, b, var)
    return EliminationStep(_interreduce(passive + _coefficients_wrt(res, unames + vnames)), True)


def _coefficients_wrt(p, names):
    """Coefficients of p viewed as a polynomial in the given variables,
    ordered by their exponents there, over the remaining variables."""
    idx = [p.variables.index(n) for n in names if n in p.variables]
    keep = [v for v in p.variables if v not in names]
    buckets = {}
    for e, c in p.num.items():
        key = tuple(e[i] for i in idx)
        stripped = tuple(x if i not in idx else 0 for i, x in enumerate(e))
        buckets.setdefault(key, {})[stripped] = c
    return [MultiPoly.from_ints(p.variables, buckets[key], p.den).with_variables(keep) for key in sorted(buckets)]


def _interreduce(gens):
    """Primitive-normalize, dedupe, drop multiples of other generators."""
    norm = []
    for g in gens:
        if g.is_zero:
            continue
        p = normalize_primitive(g)
        if p not in norm:
            norm.append(p)
    out = []
    for g in norm:
        if any(h is not g and h.divides(g) and not h.is_constant for h in norm):
            continue
        out.append(g)
    out.sort(key=lambda g: (g.total_degree(), str(g)))
    return out


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


def _draw_matrix(nvars, seed, attempt):
    """Unimodular integer matrix L*U, L lower and U upper unitriangular with
    nonzero off-diagonal entries; attempt 0 is the identity.  No coordinate
    stays fixed: the first working coordinate involves every input variable,
    and the first input variable enters every working coordinate."""
    m = [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)]
    if attempt == 0:
        return m
    rng = random.Random(f"{seed}:{attempt}")
    lower = [row[:] for row in m]
    upper = [row[:] for row in m]
    for i in range(nvars):
        for j in range(i + 1, nvars):
            lower[j][i] = rng.choice(_ENTRIES)
            upper[i][j] = rng.choice(_ENTRIES)
    return linalg.mat_mul(lower, upper)


def _integral_inverse(m):
    """Inverse of a unimodular integer matrix, exactly, as integer rows: the
    adjugate over det m = +-1, entry (i, j) being
    (-1)^(i+j) * det m * det(minor(m, j, i))."""
    det = linalg.mat_det(m)
    if det not in (1, -1):
        raise AlgebraError("coordinate change is not unimodular")
    n = len(m)
    return [[(-1) ** (i + j) * det * linalg.mat_det(linalg.minor(m, j, i)) for j in range(n)] for i in range(n)]


def _apply_matrix(p, matrix, variables):
    """Substitute variable_i -> sum_j matrix[i][j] * variable_j."""
    assignment = {}
    for i, v in enumerate(variables):
        expr = MultiPoly.zero(variables)
        for j, c in enumerate(matrix[i]):
            if c:
                expr = expr + MultiPoly.var(variables[j], variables) * Fraction(c)
        assignment[v] = expr
    return p.subs(assignment).with_variables(variables)


# ---------------------------------------------------------------------------
# the decomposition loop
# ---------------------------------------------------------------------------


def _squarefree_factors(poly):
    fact = factor_multivariate(poly)
    factors = [f for f, _ in fact.factors if f.total_degree() >= 1]
    sq = MultiPoly.const(1, poly.variables)
    for f in factors:
        sq = sq * f
    return normalize_primitive(sq), sorted(factors, key=lambda f: (f.total_degree(), str(f)))


def _u_substituted(gens, variables, unames):
    """Generators with x0 replaced by (X - u_1 x_1 - ... )/u_0, cleared."""
    x0 = variables[0]
    u0 = MultiPoly.var(unames[0], (unames[0],))
    repl = MultiPoly.var(_X, (_X,))
    for i in range(1, len(variables)):
        repl = repl - MultiPoly.var(unames[i], (unames[i],)) * MultiPoly.var(
            variables[i], (variables[i],)
        )
    out = []
    for g in gens:
        d = g.degree(x0)
        if d <= 0:
            out.append(g)
            continue
        # g(x0, ...) * u0^d with x0 -> repl/u0, cleared of denominators
        buckets = g.coeffs_in(x0)
        total = MultiPoly.zero(())
        for k, c in buckets.items():
            total = total + c * repl**k * u0 ** (d - k)
        out.append(total)
    return out


def _strip_u_content(p, unames):
    """Primitive part of p with respect to the geometric variables: divide
    out any factor involving only the u weights."""
    names = [v for v in p.variables if v not in unames and v != _X] + [_X]
    cont = polyring.gcd_list(_coefficients_wrt(p, names))
    if cont.is_constant:
        return normalize_primitive(p)
    return normalize_primitive(p.div_exact(cont))


def _skeleton(gens, variables, unames=()):
    """The elimination loop: [(codim, partial resolvent)] down the
    dimensions, and the generators left over.  Factors of a gcd involving
    only the weights unames are units of the localized ring: divided out
    with the rest, never recorded."""
    n = len(variables)
    current = _interreduce(gens)
    stages = []
    geometric = set(variables) | {_X}
    for k in range(n - 1, -1, -1):
        if not current or any(g.is_constant for g in current):
            break
        f = polyring.gcd_list(current)
        if f.total_degree() >= 1:
            part = _strip_u_content(f, unames)
            if part.used_variables() & geometric:
                stages.append((n - k, part))
            current = _interreduce([g.div_exact(f) for g in current])
        if k == 0 or not current or any(g.is_constant for g in current):
            break
        current = eliminate_step(current, variables[k]).generators
    return stages, current


def decompose_variety(generators, config=None):
    """Decompose V(generators) into equidimensional parts with parametrized
    components; deterministic for a fixed config.seed.

    The plain and u-weighted runs are one elimination loop, _skeleton, on
    different generators: the working ones, and the same with x0 replaced
    by the fiber combination.  The first gives the parts, the second the
    resolvents that parametrize their components.

    The result's ``variables`` are in order of first appearance across the
    generators, and the rows and columns of its ``coordinate_change``
    index that order."""
    config = config or EliminationConfig()
    gens = [g for g in generators if not g.is_zero]
    variables = polyring.union_variables(generators)
    if len(variables) > config.max_vars:
        raise DomainError(f"at most {config.max_vars} variables (got {len(variables)})")
    for g in gens:
        if g.total_degree() > config.max_degree:
            raise DomainError(f"total degree capped at {config.max_degree}")
    if not gens:
        out = VarietyDecomposition(variables, _draw_matrix(len(variables), config.seed, 0))
        out.whole_space = True
        out.parts.append(
            VarietyPart(0, MultiPoly.zero(variables), [], MultiPoly.zero(variables), [])
        )
        return out
    if any(g.is_constant for g in gens):
        return VarietyDecomposition(
            variables, _draw_matrix(len(variables), config.seed, 0), empty=True
        )

    last_error = None
    for attempt in range(MAX_RETRIES):
        matrix = _draw_matrix(len(variables), config.seed, attempt)
        try:
            return _decompose_with_matrix(gens, variables, matrix)
        except _Degenerate as exc:
            last_error = exc
            continue
    raise AlgebraError(
        f"no sufficiently general coordinates found in {MAX_RETRIES} attempts: {last_error}"
    )


def _decompose_with_matrix(gens, variables, matrix):
    n = len(variables)
    inverse = _integral_inverse(matrix)
    working = [_apply_matrix(g, inverse, variables) for g in gens]
    unames = tuple(f"u{i}" for i in range(n))

    stages, leftover = _skeleton(working, variables)
    u_stages = dict(_skeleton(_u_substituted(working, variables, unames), variables, unames)[0])

    out = VarietyDecomposition(variables, matrix)
    for codim, f in stages:
        sq, factors = _squarefree_factors(f)
        fu = u_stages.get(codim)
        if fu is None:
            raise _Degenerate(f"u-run lost the codimension-{codim} part")
        if codim >= 2 and fu.degree(_X) <= 0:
            # a dimension-k part (k < n-1) must carry the fiber coordinate
            raise _Degenerate(
                f"codimension-{codim} resolvent does not involve the fiber coordinate"
            )
        spec = fu.subs({unames[0]: 1, **{u: 0 for u in unames[1:]}, _X: MultiPoly.var(variables[0], variables)})
        spec_sq = _squarefree_factors(normalize_primitive(spec))[0]
        if spec_sq != sq:
            raise _Degenerate(
                f"plain and u-weighted resolvents disagree at codimension {codim}"
            )
        back = _apply_matrix(sq, matrix, variables)
        back_factors = [normalize_primitive(_apply_matrix(f_, matrix, variables)) for f_ in factors]
        part = VarietyPart(codim, normalize_primitive(back), sorted(back_factors, key=str), sq, factors)
        out.parts.append(part)
        k = n - codim
        for fac in factors:
            if len(factors) == 1:
                fu_i = fu
            else:
                # the u-resolvent of one component: rerun with the factor
                # adjoined, which keeps that component and drops its siblings
                # to lower stages
                sub = dict(_skeleton(_u_substituted(working + [fac], variables, unames), variables, unames)[0])
                fu_i = sub.get(codim)
                if fu_i is None:
                    raise _Degenerate(
                        f"augmented u-run lost a codimension-{codim} factor"
                    )
            if fu_i.degree(_X) <= 0:
                continue  # cylinder over a smaller base: nothing to parametrize
            comp = parametrize_component(working, fu_i, variables, unames, k)
            out.components.append(comp)
    out.empty = not out.parts and bool(leftover)
    return out


def parametrize_component(generators, factor, variables, unames, k):
    """Extract the projection equation and the dependent-coordinate
    parametrization from one irreducible factor of the u-weighted resolvent.

    The names come from _decompose_with_matrix: variables are the working
    coordinates x_0, x_1, ..., unames the weights u_i, one per coordinate,
    and k the dimension of the component's part, so that phi lies in
    x_0, ..., x_k and the later coordinates are parametrized.  The factor
    arrives as a polynomial in the fiber combination X_, the weights and
    the free coordinates; substituting X_ = u_0 x_0 + ... and reading off
    the u_0^d and u_i u_0^(d-1) coefficients yields phi and the pairs
    (phi', phi_i) with x_i = phi_i/phi' on the component.  Components whose
    sheets depend on the weights (immersed varieties), and those whose
    parametrization does not make every generator vanish, are flagged.
    """
    d = factor.degree(_X)
    if d <= 0:
        raise DomainError("factor does not involve the fiber combination")
    x = MultiPoly.zero(())
    for i, v in enumerate(variables):
        x = x + MultiPoly.var(unames[i], (unames[i],)) * MultiPoly.var(v, (v,))
    phi_full = factor.subs({_X: x})
    codim = len(variables) - k
    # the u_0^d coefficient is the projection equation; the u_i u_0^(d-1)
    # coefficients are only consistent with it at the same overall scale, so
    # normalization happens jointly at the very end
    zero = MultiPoly.zero(phi_full.variables)
    by_u0 = phi_full.coeffs_in(unames[0])
    phi = by_u0.get(d, zero)
    # a projection equation that involves the weights marks an immersed sheet
    # set; it is tested first, since with_variables cannot drop a weight
    if phi.used_variables() & set(unames):
        return ComponentParam(codim, d, phi, MultiPoly.zero(variables), {}, immersed=True)
    phi = phi.with_variables(variables)
    # so does one of the wrong degree (zero has degree -1), one involving a
    # coordinate past x_k, or a factor not homogeneous of degree d in the
    # weights, whose sheet set depends on them
    weights = [phi_full.variables.index(u) for u in unames if u in phi_full.variables]
    if (
        phi.degree(variables[0]) != d
        or phi.used_variables() & set(variables[k + 1 :])
        or any(sum(e[i] for i in weights) != d for e in phi_full.num)
    ):
        return ComponentParam(codim, d, phi, MultiPoly.zero(variables), {}, immersed=True)
    phi_prime = phi.derivative(variables[0])
    params = {}
    for i in range(k + 1, len(variables)):
        v = variables[i]
        c = by_u0.get(d - 1, zero).coeffs_in(unames[i]).get(1, zero).with_variables(variables)
        num = MultiPoly.var(v, variables) * phi_prime - c
        if v in num.used_variables():
            return ComponentParam(codim, d, phi, phi_prime, {}, immersed=True)
        params[v] = num
    scale = content_primitive(phi)[0]
    phi = phi * (1 / scale)
    phi_prime = phi_prime * (1 / scale)
    params = {v: num * (1 / scale) for v, num in params.items()}
    comp = ComponentParam(codim, d, phi, phi_prime, params)
    if not _verify_parametrization(generators, comp, variables):
        comp.immersed = True
    return comp


def _verify_parametrization(generators, comp, variables):
    """Every generator must vanish after substituting x_i = phi_i/phi' and
    reducing modulo the projection equation."""
    x0 = variables[0]
    for g in generators:
        degree_budget = sum(g.degree(v) for v in comp.params)
        # clear denominators: substitute x_i -> phi_i, scaling by phi'^deg
        # g.num only: g.den scales the total, and only its vanishing is tested
        total = MultiPoly.zero(())
        for e, c in g.num.items():
            term = MultiPoly.const(c)
            used = 0
            for i, v in enumerate(g.variables):
                if not e[i]:
                    continue
                if v in comp.params:
                    term = term * comp.params[v] ** e[i]
                    used += e[i]
                else:
                    term = term * MultiPoly.var(v, (v,)) ** e[i]
            term = term * comp.phi_prime ** (degree_budget - used)
            total = total + term
        if total.degree(x0) >= comp.phi.degree(x0):
            total = polyring._prem(total, comp.phi, x0)
        if not total.is_zero:
            return False
    return True


def total_resolvente(decomposition):
    """Product of all partial resolvents; 1 for the empty variety."""
    out = MultiPoly.const(1, decomposition.variables)
    for p in decomposition.parts:
        if p.codim == 0:
            continue
        out = out * p.resolvent
    return out
