"""Interpolation over zero-dimensional complete intersections, Euler trace
formulas, and the Jacobi vanishing theorem.

Given n polynomials in n variables with finitely many simple common zeros,
each equation expands at a solution point as F_i = sum_j (x_j - xi_j) *
F_ji; the determinant D_k of the expansion coefficients specializes at the
point to the Jacobian determinant, and

    F(x) = sum_k  value_k * D_k(x) / D_k(xi_k)

interpolates prescribed values at the points.  The companion identities are
the Jacobi sum (sum of F(xi)/J(xi) vanishes whenever deg F < deg J) and, in
one variable, the Euler formulas Tr(x^i / f'(x)) = 0 for i <= m-2 and 1 for
i = m-1.
"""

from fractions import Fraction

from kronecker.errors import AlgebraError, DomainError
from kronecker.factorization import factor_multivariate
from kronecker.polyring import MultiPoly, UniPoly, poly_matrix_det, union_variables

_ZERO = Fraction(0)


class PointSet:
    """A square system with its exact simple solutions.

    system: n MultiPoly in n variables; points: list of coordinate dicts or
    sequences (ordered like the variable union), each with one coordinate
    per variable.  Construction verifies that every point kills every
    equation and that the Jacobian determinant is nonzero at every point.
    """

    def __init__(self, system, points):
        if not system:
            raise DomainError("empty system")
        self.variables = union_variables(system)
        self.system = [f.with_variables(self.variables) for f in system]
        n = len(self.system)
        if len(self.variables) != n:
            raise DomainError(
                f"need a square system: {n} equations, {len(self.variables)} variables"
            )
        self.points = []
        for pt in points:
            fits = set(pt) == set(self.variables) if isinstance(pt, dict) else len(pt) == n
            if not fits:
                raise DomainError(
                    f"point {len(self.points) + 1} needs one coordinate per variable: {', '.join(self.variables)}"
                )
            if not isinstance(pt, dict):
                pt = dict(zip(self.variables, pt))
            self.points.append({v: Fraction(pt[v]) for v in self.variables})
        self.jacobian = poly_matrix_det(
            [
                [f.derivative(v) for f in self.system]
                for v in self.variables
            ]
        )
        for pt in self.points:
            for f in self.system:
                if f.eval_at(pt):
                    raise DomainError(f"point {pt} is not a solution of the system")
            if not self.jacobian.eval_at(pt):
                raise DomainError(f"Jacobian vanishes at {pt}: point is not simple")

    def check_product_grid(self):
        """When each equation is univariate in its own variable, verify the
        points exhaust the rational solution grid.

        The points are simple zeros, so there are at most prod(deg f_v) of
        them; once every f_v splits into linear factors over Q, the distinct
        points exhaust the grid exactly when there are that many.
        """
        used = [f.used_variables() for f in self.system]
        if any(len(u) != 1 for u in used) or len(set().union(*used)) < len(used):
            return None
        expected = 1
        for f in self.system:
            # rational roots only: exhaustiveness is decidable exactly
            if any(g.total_degree() > 1 for g, _ in factor_multivariate(f).factors):
                raise DomainError(
                    "system has irrational solutions; the supplied points "
                    "cannot exhaust the solution set"
                )
            expected *= f.total_degree()
        have = {tuple(pt.values()) for pt in self.points}
        if len(self.points) != expected or len(have) != expected:
            raise DomainError(
                f"point set incomplete: expected {expected} distinct grid points, "
                f"got {len(have)} distinct of {len(self.points)}"
            )
        return True


# ---------------------------------------------------------------------------
# Euler trace formulas
# ---------------------------------------------------------------------------


def euler_trace(f, i):
    """Trace of x^i / f'(x) in Q[x]/(f): 0 for 0 <= i <= m-2, 1 for i = m-1.

    Computed exactly through the multiplication matrix of x^i * inverse(f')
    modulo f; requires f squarefree so the derivative is invertible.
    """
    if isinstance(f, MultiPoly):
        f = UniPoly.from_multipoly(f)
    if i < 0:
        raise DomainError("exponent must be nonnegative")
    m = f.degree
    if m < 1:
        raise DomainError("positive degree required")
    f = f.monic()
    df = f.derivative()
    if f.gcd(df).degree != 0:
        raise DomainError("polynomial is not squarefree: derivative not invertible")
    inv = df.inverse_mod(f)
    x_i = UniPoly(f.variable, [0] * i + [1]) % f
    g = (x_i * inv) % f
    # trace of multiplication by g: sum over basis monomials
    total = _ZERO
    for j in range(m):
        basis = UniPoly(f.variable, [0] * j + [1])
        img = (g * basis) % f
        total += img[j]
    return total


# ---------------------------------------------------------------------------
# Jacobi sum and interpolation
# ---------------------------------------------------------------------------


def jacobi_sum(ps, numerator):
    """Sum of F(xi)/J(xi) over the point set; zero whenever
    deg F < deg J = sum(deg F_i) - n (Jacobi's theorem)."""
    total = _ZERO
    for pt in ps.points:
        j = ps.jacobian.eval_at(pt)
        if not j:
            raise DomainError(f"Jacobian vanishes at {pt}")
        total += numerator.eval_at(pt) / j
    return total


def _taylor_matrix(ps, pt):
    """Coefficients F_ji with F_i = sum_j (x_j - xi_j) F_ji at the point.

    Computed by splitting off one coordinate at a time; exact and
    remainder-free because the point solves the system.
    """
    n = len(ps.system)
    rows = [[None] * n for _ in range(n)]
    for i, f in enumerate(ps.system):
        g = f
        for j, v in enumerate(ps.variables):
            # g - g|_{x_j = xi_j} is divisible by (x_j - xi_j)
            g_at = g.subs({v: pt[v]})
            diff = g - g_at
            lin = MultiPoly.var(v, diff.variables) - pt[v]
            quo = diff.div_exact(lin)
            if quo is None:
                raise AlgebraError("Taylor split failed to divide")
            rows[j][i] = quo
            g = g_at
        if not g.is_zero:
            raise AlgebraError("point does not annihilate the system")
    width = ps.variables
    return [[entry.with_variables(width) for entry in row] for row in rows]


def interpolate_zero_dim(ps, values):
    """The combination sum_k value_k * D_k(x)/D_k(xi_k); takes the k-th value
    at the k-th point (verified before returning)."""
    if len(values) != len(ps.points):
        raise DomainError("one value per point required")
    total = MultiPoly.zero(ps.variables)
    for pt, val in zip(ps.points, values):
        dk = poly_matrix_det(_taylor_matrix(ps, pt))
        denom = dk.eval_at(pt)
        if not denom:
            raise DomainError(f"D_k vanishes at its own point {pt}: not a simple zero")
        total = total + dk * (Fraction(val) / denom)
    for pt, val in zip(ps.points, values):
        if total.eval_at(pt) != val:
            raise AlgebraError("interpolant fails to reproduce a prescribed value")
    return total
