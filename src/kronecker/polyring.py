"""Sparse multivariate and dense univariate polynomials over Q, exactly.

Every carrier of rationals in the package has one normal form, made by
normal_form: integer numerators over one positive integer denominator den,
with gcd(den, *numerators) = 1 and zero stored with den = 1 (Cohen, A Course
in Computational Algebraic Number Theory, §4.2).

- MultiPoly, the universal carrier: an ordered variable-name tuple and the
  term map ``num`` from exponent tuples to nonzero ints over ``den``.
- UniPoly, the one-variable dense case: the int tuple ``num`` from the
  constant term up, with no trailing zero, over ``den``.
- numberfield.AlgNum: the int vector of power-basis coordinates over ``den``;
  its sums and products are UniPoly's, reduced by the field's power table.

So the term kernels, products, exact and long division run on integers.
Fractions appear only at the API edge: the constructors take ints and
Fractions, and ``terms``, ``coeffs``, ``lc``, ``constant_value``, ``eval``
and ``eval_at`` return Fractions.  The canonical term order of MultiPoly is
graded lexicographic with respect to the declared variable order; printing
follows it, so equal polynomials print identically.

Kronecker packing: one slot map (slot_weights, slot_exponent) and one codec
of signed byte-aligned digits (pack, unpack), for poly_matrix_det,
modp.from_roots, kronecker_substitute and its inverse, and exact_quotient.

All values are immutable after construction and every operation is a pure
function.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd as int_gcd
from math import lcm as int_lcm
from math import prod
from operator import add, mul, neg, sub

from kronecker import linalg
from kronecker.errors import AlgebraError, DomainError, ParseError

_ZERO = Fraction(0)


def normal_form(coeffs, den=1):
    """(nums, den): the rationals c / den for c in the sequence coeffs, ints
    or Fractions, as a tuple of ints over one positive denominator with
    gcd(den, *nums) = 1; when every c is zero, den = 1.  The normal form of
    MultiPoly, UniPoly and numberfield.AlgNum.  den is a positive int.

    Over the least common denominator of Fractions in lowest terms the
    numerators already share no prime with it, so only den can bring a
    common factor."""
    if not all(type(c) is int for c in coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        d = int_lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (d // c.denominator) for c in coeffs]
        den *= d
    if den != 1:
        g = int_gcd(den, *coeffs)
        if g != 1:
            return tuple(c // g for c in coeffs), den // g
    return tuple(coeffs), den


# ---------------------------------------------------------------------------
# term-map kernels
# ---------------------------------------------------------------------------
# A term map is a dict mapping exponent tuples (one int per variable) to
# nonzero integer coefficients.


def mul_terms(a, b):
    """Product of two term maps."""
    if len(a) > len(b):
        a, b = b, a
    acc = {}
    get = acc.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            acc[key] = get(key, 0) + ca * cb
    return {e: c for e, c in acc.items() if c}


def add_scaled_terms(a, b, c):
    """a + c*b for term maps a, b and a nonzero integer scale c."""
    out = dict(a)
    get = out.get
    for e, v in b.items():
        s = get(e, 0) + c * v
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _grlex_key(exps):
    return (sum(exps), exps)


def divide_terms(num, den):
    """Quotient of the integer term map num by the nonzero integer term map
    den over Z, or None when a remainder survives.

    Integer-only: graded-lex division by one divisor, with num consumed as
    the remainder.  It stops with None as soon as the leading remainder
    term is not a multiple of den's leading term over Z, in coefficient or
    in monomial.  For a primitive den this decides divisibility over Q as
    well (Gauss's lemma).

    The leading remainder term comes off a heap of the exponents of num,
    each pushed as it enters num; one popped after it left num is skipped
    (Monagan and Pearce 2007, CASC).
    """
    de = max(den, key=_grlex_key)
    lead = den[de]
    quo = {}
    heap = [_heap_key(e) for e in num]
    heapify(heap)
    while num:
        ne = heappop(heap)[2]
        if ne not in num:
            continue
        qe = tuple(map(sub, ne, de))
        if qe and min(qe) < 0:
            return None
        qc, r = divmod(num[ne], lead)
        if r:
            return None
        quo[qe] = qc
        for e, c in den.items():
            key = tuple(map(add, e, qe))
            if key in num:
                v = num[key] - qc * c
            else:
                v = -(qc * c)
                heappush(heap, _heap_key(key))
            if v:
                num[key] = v
            else:
                del num[key]
    return quo


def _heap_key(exps):
    """A min-heap entry for exps that comes off first for the graded-lex
    largest exponent tuple."""
    return (-sum(exps), tuple(map(neg, exps)), exps)


def power(base, k, one):
    """base**k by square-and-multiply from the identity one; k >= 0."""
    if k < 0:
        raise AlgebraError("negative power")
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def union_variables(polys):
    """The variable names of polys, in order of first appearance."""
    merged = []
    for p in polys:
        for v in p.variables:
            if v not in merged:
                merged.append(v)
    return tuple(merged)


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients:
    the integer term map num over the positive integer den."""

    __slots__ = ("variables", "num", "den", "_hash")

    def __init__(self, variables, terms):
        """terms maps exponent tuples to ints or Fractions; zeros are dropped."""
        self.variables = tuple(variables)
        width = len(self.variables)
        keys, values = [], []
        for exps, c in terms.items():
            if len(exps) != width:
                raise AlgebraError("exponent tuple width does not match variable count")
            if c:
                keys.append(tuple(exps))
                values.append(c)
        values, self.den = normal_form(values)
        self.num = dict(zip(keys, values))
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, variables, num, den=1):
        """num / den from a term map num of nonzero ints, with exponent
        tuples of the variables' width, and a positive int den."""
        p = object.__new__(cls)
        p.variables = tuple(variables)
        if den != 1:
            values, den = normal_form(list(num.values()), den)
            num = dict(zip(num, values))
        p.num, p.den, p._hash = num, den, None
        return p

    @classmethod
    def zero(cls, variables=()):
        return cls.from_ints(variables, {})

    @classmethod
    def const(cls, value, variables=()):
        value = Fraction(value)
        num = {(0,) * len(variables): value.numerator} if value else {}
        return cls.from_ints(variables, num, value.denominator)

    @classmethod
    def var(cls, name, variables=None):
        if variables is None:
            variables = (name,)
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls.from_ints(variables, {tuple(exps): 1})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self):
        """The term map with Fraction coefficients, as a new dict."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    @property
    def is_zero(self):
        return not self.num

    @property
    def is_constant(self):
        return all(not any(e) for e in self.num)

    def constant_value(self):
        if not self.num:
            return _ZERO
        if not self.is_constant:
            raise AlgebraError("polynomial is not constant")
        return Fraction(next(iter(self.num.values())), self.den)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(sum(e) for e in self.num)

    def degree(self, name):
        """Degree in one variable; -1 for the zero polynomial, 0 if absent."""
        if not self.num:
            return -1
        if name not in self.variables:
            return 0
        i = self.variables.index(name)
        return max(e[i] for e in self.num)

    def used_variables(self):
        used = set()
        for e in self.num:
            for i, k in enumerate(e):
                if k:
                    used.add(self.variables[i])
        return used

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.num:
            raise AlgebraError("zero polynomial has no leading term")
        e = max(self.num, key=_grlex_key)
        return e, Fraction(self.num[e], self.den)

    def lc(self):
        return self.leading_term()[1]

    # -- variable bookkeeping ----------------------------------------------

    def with_variables(self, variables):
        """Same polynomial over a (super)set of variables, reordered at will."""
        variables = tuple(variables)
        idx = []
        for i, v in enumerate(self.variables):
            if v in variables:
                idx.append((i, variables.index(v)))
            else:
                if any(e[i] for e in self.num):
                    raise AlgebraError(f"cannot drop used variable {v!r}")
        num = {}
        for e, c in self.num.items():
            new = [0] * len(variables)
            for i, j in idx:
                new[j] = e[i]
            num[tuple(new)] = c
        return MultiPoly.from_ints(variables, num, self.den)

    def _align(self, other):
        if isinstance(other, MultiPoly):
            if other.variables == self.variables:
                return self, other
            merged = union_variables((self, other))
            return self.with_variables(merged), other.with_variables(merged)
        return self, MultiPoly.const(other, self.variables)

    # -- arithmetic ---------------------------------------------------------

    def _add(self, other, sign):
        """self + sign*other over the lcm of the two denominators."""
        a, b = self._align(other)
        if a.den == b.den:
            return MultiPoly.from_ints(a.variables, add_scaled_terms(a.num, b.num, sign), a.den)
        g = int_gcd(a.den, b.den)
        sa, sb = b.den // g, a.den // g
        num = add_scaled_terms({e: c * sa for e, c in a.num.items()}, b.num, sign * sb)
        return MultiPoly.from_ints(a.variables, num, a.den * sa)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly.from_ints(self.variables, {e: -c for e, c in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MultiPoly.zero(self.variables)
            n = c.numerator
            return MultiPoly.from_ints(self.variables, {e: n * v for e, v in self.num.items()}, self.den * c.denominator)
        a, b = self._align(other)
        return MultiPoly.from_ints(a.variables, mul_terms(a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, MultiPoly.const(1, self.variables))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._align(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        if self._hash is None:
            used = sorted(self.used_variables())
            p = self.with_variables(used) if tuple(used) != self.variables else self
            self._hash = hash((tuple(used), tuple(sorted(p.num.items())), p.den))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    # -- calculus / evaluation ----------------------------------------------

    def derivative(self, name):
        if name not in self.variables:
            return MultiPoly.zero(self.variables)
        i = self.variables.index(name)
        num = {}
        for e, c in self.num.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                num[tuple(ne)] = c * e[i]
        return MultiPoly.from_ints(self.variables, num, self.den)

    def subs(self, assignment):
        """Substitute variables by polynomials or rationals; the rest stay.

        Substituted variables remain in the variable tuple (with exponent 0)
        so repeated substitutions compose predictably.
        """
        values = {}
        for name, val in assignment.items():
            if name in self.variables:
                values[name] = val if isinstance(val, MultiPoly) else MultiPoly.const(val, ())
        target = union_variables((self, *values.values()))
        origin = (0,) * len(target)
        power_cache = {}
        result = MultiPoly.zero(target)
        for e, c in self.num.items():
            part = MultiPoly.from_ints(target, {origin: c})
            for i, k in enumerate(e):
                if not k:
                    continue
                name = self.variables[i]
                key = (name, k)
                val = power_cache.get(key)
                if val is None:
                    base = values[name] if name in values else MultiPoly.var(name, target)
                    val = power_cache[key] = base**k
                part = part * val
            result = result + part
        return result if self.den == 1 else result * Fraction(1, self.den)

    def eval_at(self, point):
        """Full evaluation; point maps every used variable to a rational.

        On integers: with L the lcm of the values' denominators, a term c*x^e
        adds c * L^(d - |e|) * prod_v (L*x_v)^e_v, d the total degree, from
        powers cached per variable; the sum is divided by L^d * den at the end.
        """
        if not self.num:
            return _ZERO
        tops = [max(col) for col in zip(*self.num)]
        values = [Fraction(point[v]) if k else _ZERO for v, k in zip(self.variables, tops)]
        scale = int_lcm(*(x.denominator for x in values))
        powers = [
            list(accumulate([x.numerator * (scale // x.denominator)] * k, mul, initial=1))
            for x, k in zip(values, tops)
        ]
        d = max(map(sum, self.num))
        lifts = list(accumulate([scale] * d, mul, initial=1))
        total = 0
        for e, c in self.num.items():
            total += c * lifts[d - sum(e)] * prod(row[k] for row, k in zip(powers, e))
        return Fraction(total, self.den * lifts[d])

    # -- views ---------------------------------------------------------------

    def coeffs_in(self, name):
        """dict power -> MultiPoly coefficient (same variable tuple, name unused)."""
        if name not in self.variables:
            return {0: self} if self.num else {}
        i = self.variables.index(name)
        out = {}
        for e, c in self.num.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            out.setdefault(k, {})[tuple(ne)] = c
        return {k: MultiPoly.from_ints(self.variables, t, self.den) for k, t in out.items()}

    # -- exact division -------------------------------------------------------

    def div_exact(self, other):
        """Quotient q with self == other*q, or None when not divisible.

        The divisor is split into its integer content g and primitive part
        B.  By Gauss's lemma an integer term map A is divisible by B over Q
        exactly when it is over Z, so A = self.num is divided by B over Z
        and the quotient is scaled back by other.den / (g * self.den).
        """
        a, b = self._align(other)
        if b.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if a.is_zero:
            return MultiPoly.zero(a.variables)
        g = int_gcd(*b.num.values())
        den = {e: c // g for e, c in b.num.items()}
        quo = divide_terms(dict(a.num), den)
        if quo is None:
            return None
        return MultiPoly.from_ints(a.variables, {e: c * b.den for e, c in quo.items()}, g * a.den)

    def divides(self, other):
        return other.div_exact(self) is not None

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        chunks = []
        for e, c in sorted(self.num.items(), key=lambda t: _grlex_key(t[0]), reverse=True):
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e)
                if k
            )
            g = int_gcd(c, self.den)
            mag = str(abs(c) // g) if g == self.den else f"{abs(c) // g}/{self.den // g}"
            if mono and mag == "1":
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = mag
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over Q in the normal form of MultiPoly:
    ``num``, a tuple of ints from the constant term up with no trailing
    zero, over ``den``, a positive int, with gcd(den, *num) = 1; zero is
    ((), 1).  Sums, products and division run on ints; ``coeffs``, ``lc``,
    ``p[k]`` and ``eval`` return Fractions."""

    __slots__ = ("variable", "num", "den")

    def __init__(self, variable, coeffs, den=1):
        """coeffs / den: coeffs a sequence of ints or Fractions, low to
        high, and den a positive int."""
        num, self.den = normal_form(coeffs, den)
        n = len(num)
        while n and not num[n - 1]:
            n -= 1
        self.variable, self.num = variable, num[:n]

    @classmethod
    def from_multipoly(cls, p, variable=None):
        used = p.used_variables()
        if len(used) > 1:
            raise AlgebraError("polynomial is not univariate")
        if variable is None:
            variable = next(iter(used)) if used else (p.variables[0] if p.variables else "x")
        out = [0] * (p.degree(variable) + 1)
        for e, c in p.num.items():
            k = e[p.variables.index(variable)] if variable in p.variables else 0
            out[k] += c
        return cls(variable, out, p.den)

    def to_multipoly(self, variables=None):
        if variables is None:
            variables = (self.variable,)
        i = variables.index(self.variable)
        num = {}
        for k, c in enumerate(self.num):
            if c:
                e = [0] * len(variables)
                e[i] = k
                num[tuple(e)] = c
        return MultiPoly.from_ints(variables, num, self.den)

    @property
    def coeffs(self):
        """The coefficients as Fractions, low to high."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self):
        return len(self.num) - 1

    @property
    def is_zero(self):
        return not self.num

    def lc(self):
        return self[len(self.num) - 1]

    def __getitem__(self, k):
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return _ZERO

    def is_monic(self):
        return bool(self.num) and self.num[-1] == self.den

    def has_integer_coeffs(self):
        return self.den == 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly(self.variable, [other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def _add(self, other, sign):
        """self + sign*other over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = UniPoly(self.variable, [other])
        g = int_gcd(self.den, other.den)
        sa, sb = other.den // g, sign * (self.den // g)
        out = [c * sa for c in self.num]
        out.extend([0] * (len(other.num) - len(out)))
        for k, c in enumerate(other.num):
            out[k] += sb * c
        return UniPoly(self.variable, out, self.den * sa)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.variable, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return UniPoly(self.variable, [c * n for c in self.num], self.den * other.denominator)
        if not self.num or not other.num:
            return UniPoly(self.variable, [])
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num, i):
                    out[j] += a * b
        return UniPoly(self.variable, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, UniPoly(self.variable, [1]))

    def divmod(self, other):
        """Quotient and remainder over Q, by integer pseudo-division.

        With A = self.num and B = other.num, each step cancels the leading
        remainder coefficient c against b = lc(B): with g = gcd(c, b)
        signed like b, the remainder and the quotient so far are scaled by
        s = b / g > 0 and t = c / g times x^k B is subtracted, so that
        scale * A = B * Q + R holds throughout; a monic divisor never
        scales.  Then self = other * q + r with q = other.den * Q /
        (scale * self.den) and r = R / (scale * self.den).
        """
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        b, db = other.num, other.degree
        rem = list(self.num)
        dq = len(rem) - len(b)
        if dq < 0:
            return UniPoly(self.variable, []), self
        quo = [0] * (dq + 1)
        lead, scale = b[-1], 1
        for k in range(dq, -1, -1):
            c = rem[k + db]
            if not c:
                continue
            g = int_gcd(c, lead) if lead > 0 else -int_gcd(c, lead)
            s, t = lead // g, c // g
            if s != 1:
                rem = [x * s for x in rem]
                quo = [x * s for x in quo]
                scale *= s
            quo[k] = t
            for j, y in enumerate(b, k):
                rem[j] -= t * y
        den = scale * self.den
        return UniPoly(self.variable, [x * other.den for x in quo], den), UniPoly(self.variable, rem, den)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def div_exact(self, other):
        q, r = self.divmod(other)
        return q if r.is_zero else None

    def derivative(self):
        return UniPoly(self.variable, [c * k for k, c in enumerate(self.num)][1:], self.den)

    def eval(self, x):
        """The value at the rational x, as a Fraction: Horner's rule on the
        numerators of x^k, scaled by the power of its denominator."""
        if not self.num:
            return _ZERO
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        total, qk = self.num[-1], 1
        for c in reversed(self.num[:-1]):
            qk *= q
            total = total * p + c * qk
        return Fraction(total, self.den * qk)

    def monic(self):
        if self.is_zero:
            return self
        return self * Fraction(self.den, self.num[-1])

    def gcd(self, other):
        """Monic gcd over Q."""
        g = gcd(self.to_multipoly(), UniPoly(self.variable, other.num, other.den).to_multipoly())
        return UniPoly.from_multipoly(g, self.variable).monic()

    def inverse_mod(self, f):
        """The inverse of self modulo f over Q, by the extended Euclid
        algorithm; AlgebraError when the two share a factor."""
        r0, r1 = f, self % f
        s0, s1 = UniPoly(f.variable, []), UniPoly(f.variable, [1])
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r1.is_zero:
            raise AlgebraError("element is not invertible modulo the polynomial")
        return s1 * Fraction(r1.den, r1.num[0])

    def squarefree_part(self):
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        return (self.div_exact(g) or self).monic()

    def content_primitive(self):
        """(content, primitive) with integer primitive and positive lc."""
        if self.is_zero:
            return Fraction(0), self
        g = int_gcd(*self.num)
        if self.num[-1] < 0:
            g = -g
        return Fraction(g, self.den), UniPoly(self.variable, [c // g for c in self.num])

    def __str__(self):
        return str(self.to_multipoly())

    def __repr__(self):
        return f"UniPoly({self})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_MAX_EXP = 2**31 - 1


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the grammar:

    expr   := term (('+'|'-') term)*
    term   := ['-'] factor ('*' factor)*
    factor := base ('^' uint)?
    base   := uint ('/' uint)? | name | '(' expr ')'
    """

    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.fixed = variables is not None
        self.variables = list(variables) if variables is not None else []

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return p

    def expr(self):
        p = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        p = self.factor()
        while self.peek()[0] == "*":
            self.take()
            p = p * self.factor()
        return -p if negate else p

    def factor(self):
        p = self.base()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("int")
            e = int(tok[1])
            if e > _MAX_EXP:
                raise ParseError("exponent overflow", tok[2])
            p = p**e
        return p

    def base(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            value = Fraction(int(tok[1]))
            if self.peek()[0] == "/":
                self.take()
                den = self.take("int")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2])
                value /= int(den[1])
            return MultiPoly.const(value, tuple(self.variables))
        if tok[0] == "name":
            self.take()
            name = tok[1]
            if name not in self.variables:
                if self.fixed:
                    raise ParseError(f"unknown variable {name!r}", tok[2])
                self.variables.append(name)
            return MultiPoly.var(name, (name,))
        if tok[0] == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p
        raise ParseError(f"expected a value, found {tok[1]!r}", tok[2])


def parse_poly(text, variables="infer"):
    """Parse an expression into a MultiPoly.

    With variables="infer" the variable order is first appearance; otherwise
    pass an ordered name sequence and unknown names are rejected.
    """
    parser = _Parser(text, None if variables == "infer" else tuple(variables))
    p = parser.parse()
    return p.with_variables(tuple(parser.variables))


def parse_polys(texts):
    """Parse several expressions over one shared first-appearance variable order."""
    polys = [parse_poly(t) for t in texts]
    merged = union_variables(polys)
    return [p.with_variables(merged) for p in polys]


# ---------------------------------------------------------------------------
# content, gcd, resultants
# ---------------------------------------------------------------------------


def content_primitive(p):
    """(content, primitive) with content*primitive == p exactly.

    For integer-coefficient input the content is a nonnegative integer-valued
    Fraction and the primitive part has coprime integer coefficients with the
    graded-lex leading coefficient positive.  Rational coefficients are
    handled by folding the denominator-clearing scale into the content.
    The zero polynomial yields (0, 0) by convention.
    """
    if p.is_zero:
        return Fraction(0), p
    g = int_gcd(*p.num.values())
    if p.num[max(p.num, key=_grlex_key)] < 0:
        g = -g
    return Fraction(g, p.den), MultiPoly.from_ints(p.variables, {e: c // g for e, c in p.num.items()})


def normalize_primitive(p):
    """Primitive part with positive graded-lex leading coefficient; 0 stays 0."""
    return content_primitive(p)[1]


def _content_in(p, name):
    """Content of p viewed in (rest)[name]: gcd of its coefficient polys."""
    return gcd_list(p.coeffs_in(name).values())


def gcd_list(polys):
    """gcd of several polynomials, stopping at the first nonzero constant;
    the zero polynomial when there are none."""
    acc = MultiPoly.zero(())
    for p in polys:
        acc = gcd(acc, p)
        if acc.is_constant and not acc.is_zero:
            break
    return acc


def _prem(a, b, name):
    """Pseudo-remainder of a by b in the variable name."""
    da, db = a.degree(name), b.degree(name)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if da < db:
        return a
    b_coeffs = b.coeffs_in(name)
    blc = b_coeffs.get(db, MultiPoly.zero(b.variables))
    x = MultiPoly.var(name, a.variables)
    rem = a
    while not rem.is_zero and rem.degree(name) >= db:
        d = rem.degree(name)
        rlc = rem.coeffs_in(name).get(d)
        rem = rem * blc - rlc * b * x ** (d - db)
    return rem


# gcd's evaluations per variable, and its cap on the bits of xi^deg, so that
# no evaluation swells without bound
_HEU_TRIES = 7
_HEU_MAX_BITS = 1 << 18


class _HeuristicFailed(Exception):
    """GCDHEU found no certified gcd within its tries and size guard."""


def gcd(p, q):
    """Greatest common divisor, normalized primitive with positive graded-lex
    leading coefficient; gcd(0, 0) = 0 and a constant gcd is 1.

    Heuristic gcd by integer evaluation (Char, Geddes and Gonnet, "GCDHEU",
    J. Symb. Comp. 7, 1989).  Both integer term maps are divided by their
    contents, and the last variable is evaluated at
    xi = 2*min(|f|, |g|) + 29, where |.| is the largest coefficient.  The
    gcd of the evaluations, computed by the same method one variable down
    and by math.gcd at the bottom, is expanded in symmetric base xi back
    into a polynomial in the last variable; its primitive part is the
    candidate.  Certificate: the candidate divides both inputs exactly in
    Z[x].  Every common divisor passes that check; that
    the certified candidate is the greatest rests on the CGG theorem, which
    needs xi > 2*min(|f|, |g|) + 1.

    An uncertified candidate retries with xi grown by 73794/27011, at most
    _HEU_TRIES evaluations per variable, and no evaluation may reach
    _HEU_MAX_BITS bits per coefficient.  When a level exhausts them, the
    primitive pseudo-remainder sequence (_gcd_prs) answers instead.
    """
    if p.is_zero and q.is_zero:
        return MultiPoly.zero(p.variables)
    if p.is_zero:
        return normalize_primitive(q)
    if q.is_zero:
        return normalize_primitive(p)
    p, q = p._align(q)
    names = p.used_variables() | q.used_variables()
    used = [v for v in p.variables if v in names]
    if not used:
        return MultiPoly.const(1, p.variables)
    try:
        h = _heu_gcd(p.with_variables(used).num, q.with_variables(used).num)
    except _HeuristicFailed:
        return _gcd_prs(p, q)
    return normalize_primitive(MultiPoly.from_ints(used, h).with_variables(p.variables))


def _heu_gcd(f, g):
    """gcd in Z[x_1..x_k] of two nonzero integer term maps, integer content
    included, with x_k evaluated first; raises _HeuristicFailed."""
    cf, cg = int_gcd(*f.values()), int_gcd(*g.values())
    c = int_gcd(cf, cg)
    k = len(next(iter(f)))
    if _is_constant_map(f) or _is_constant_map(g):
        return {(0,) * k: c}
    f = {e: v // cf for e, v in f.items()}
    g = {e: v // cg for e, v in g.items()}
    deg = max(e[-1] for e in (*f, *g))
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * deg > _HEU_MAX_BITS:
            break
        ff, gg = _eval_last(f, xi), _eval_last(g, xi)
        if ff or gg:
            # gcd(a, 0) = a with its content: the content is part of the gcd
            # of the evaluations, and the interpolation needs it
            h = _heu_gcd(ff, gg) if ff and gg else ff or gg
            cand = _interpolate_last(h, xi)
            content = int_gcd(*cand.values())
            cand = {e: v // content for e, v in cand.items()}
            if _int_divides(cand, f) and _int_divides(cand, g):
                return {e: v * c for e, v in cand.items()}
        xi = xi * 73794 // 27011
    raise _HeuristicFailed


def _is_constant_map(f):
    return len(f) == 1 and not any(next(iter(f)))


def _eval_last(f, xi):
    """f at x_k = xi, as a term map in x_1..x_(k-1) without zero terms."""
    powers = [1]
    for _ in range(max(e[-1] for e in f)):
        powers.append(powers[-1] * xi)
    out = {}
    for e, c in f.items():
        key = e[:-1]
        out[key] = out.get(key, 0) + c * powers[e[-1]]
    return {e: c for e, c in out.items() if c}


def _interpolate_last(h, xi):
    """Symmetric base-xi expansion of each coefficient of h into powers of a
    new last variable: digits lie in (-xi/2, xi/2]."""
    half = xi // 2
    out = {}
    for e, c in h.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e + (k,)] = d
            c = (c - d) // xi
            k += 1
    return out


def _int_divides(h, f):
    """Whether the primitive integer term map h divides f in Z[x]; by Gauss's
    lemma that is divisibility over Q."""
    return divide_terms(dict(f), h) is not None


def _gcd_prs(p, q):
    """gcd by primitive pseudo-remainder sequences, recursing on the variable
    count: gcd's fallback and its reference in the tests."""
    if p.is_zero and q.is_zero:
        return MultiPoly.zero(p.variables)
    if p.is_zero:
        return normalize_primitive(q)
    if q.is_zero:
        return normalize_primitive(p)
    p, q = p._align(q)
    used = sorted(p.used_variables() | q.used_variables())
    if not used:
        return MultiPoly.const(1, p.variables)
    name = used[0]
    if p.degree(name) == 0 or q.degree(name) == 0:
        # a poly of degree 0 in the chosen variable divides only via content
        if p.degree(name) == 0:
            return _gcd_prs(p, _content_in(q, name))
        return _gcd_prs(_content_in(p, name), q)
    cp = _content_in(p, name)
    cq = _content_in(q, name)
    cont = gcd(cp, cq)
    a = p.div_exact(cp)
    b = q.div_exact(cq)
    if a.degree(name) < b.degree(name):
        a, b = b, a
    while True:
        r = _prem(a, b, name)
        if r.is_zero:
            g = normalize_primitive(b.div_exact(_content_in(b, name)))
            break
        if r.degree(name) == 0:
            g = MultiPoly.const(1, p.variables)
            break
        a, b = b, r.div_exact(_content_in(r, name))
    return normalize_primitive(cont * g)


# poly_matrix_det packs only while one packed entry fits in this many bytes,
# and while its slot count is at most this many times the bound on the
# determinant's term count; see its docstring.
_SLOTS_PER_TERM = 16
_PACKED_BYTES_CAP = 2**20


def poly_matrix_det(rows):
    """Determinant of a square matrix of MultiPoly entries, exactly.

    Kronecker's device: pack every entry into one integer, take one
    integer determinant (linalg.mat_det), and unpack it.  Packing is a ring
    homomorphism, so that integer is the packed determinant polynomial.

    - Row i is scaled to integers by the lcm d_i of its denominators, and
      the result is divided by prod_i d_i.
    - Variable v gets the span s_v = 1 + sum over rows of the row's largest
      degree in v, which exceeds deg_v of the determinant, so the slot map
      on these spans keeps its monomials apart, in S = prod_v s_v slots.
    - By Leibniz, the determinant's l1 norm is at most the permanent of the
      entries' l1 norms, so at most B = prod_i sum_j |a_ij|_1.  A slot is
      k bits wide, a whole number of bytes with 2^(k-1) > B, so each
      coefficient is one signed digit in base t = 2^k.

    Two tests send the determinant to the term maps instead, in this order:
    - one packed entry would take more than _PACKED_BYTES_CAP bytes (slots
      times width);
    - the packed integers would be almost all zero digits.  Each term of
      the determinant is a product of one term from each row, so its
      monomials lie in the Minkowski sum of the rows' exponent sets.  When
      that sum has at most S // _SLOTS_PER_TERM elements, the determinant
      is sparse in its slots.  The sum is built row by row on the slot
      indices (the slot map is additive within the spans) and given up,
      in favour of packing, once it passes that limit or would take more
      than S set insertions, so that it costs no more than the S slots
      that packing fills.  A zero row leaves the sum empty.
    The product P = prod_i |monomials of row i| is the same sum counted
    without removing duplicates, and it can overestimate the output by
    orders of magnitude.  A Sylvester matrix of elimination's u-run, 4x4
    in 7 variables with S = 59,049 slots, has P = 50,625, past
    S // 16 = 3,690, but a sum of 495: its 105 terms take 8 ms on the
    term maps and 1.3-2.4 s packed (one core of a Xeon server).  Without
    the byte cap, `eliminate` on -x - 3*y^2 + 3 and x^2 + x*z - 3*y^2 once
    got no answer in 60 s.
    Both routes run the division-free linalg.berkowitz_det, the term route
    on the MultiPoly entries themselves, which need no row scaling.
    """
    n = len(rows)
    if n == 0:
        return MultiPoly.const(1)
    if n == 1:
        return rows[0][0]
    variables = union_variables(a for row in rows for a in row)
    m = [[a if a.variables == variables else a.with_variables(variables) for a in row] for row in rows]
    spans = [1 + sum(max((e[v] for a in row for e in a.num), default=0) for row in m) for v in range(len(variables))]
    slots = prod(spans)
    weights = slot_weights(spans)
    scale, bound, int_rows = 1, 1, []
    for row in m:
        d = int_lcm(*(a.den for a in row))
        ints = [{sum(map(mul, e, weights)): c * (d // a.den) for e, c in a.num.items()} for a in row]
        bound *= sum(abs(c) for t in ints for c in t.values())
        scale *= d
        int_rows.append(ints)
    width = (bound.bit_length() + 8) // 8  # bytes per slot: 2^(8*width - 1) > bound
    if slots * width > _PACKED_BYTES_CAP or _sparse_support(int_rows, slots):
        return _poly_matrix_det_terms(m)
    det = linalg.mat_det([[pack(t, width) for t in row] for row in int_rows])
    terms = {slot_exponent(s, spans): c for s, c in unpack(det, slots, width).items()}
    return MultiPoly.from_ints(variables, terms, scale)


def _sparse_support(int_rows, slots):
    """Whether the Minkowski sum of the rows' slot sets has at most
    slots // _SLOTS_PER_TERM elements; False as soon as it passes that
    limit or would take more than slots set insertions."""
    key_sets = [{s for t in row for s in t} for row in int_rows]
    if not all(key_sets):
        return True  # a zero row leaves the sum empty
    limit, budget, support = slots // _SLOTS_PER_TERM, slots, {0}
    for keys in key_sets:
        budget -= len(support) * len(keys)
        if budget < 0:
            return False
        support = {s + k for s in support for k in keys}
        if len(support) > limit:
            return False
    return True


def _poly_matrix_det_terms(m):
    """Division-free determinant on the MultiPoly entries themselves."""
    return linalg.berkowitz_det(m)


def sylvester_matrix(p, q, name):
    """Sylvester matrix of p and q with respect to one variable."""
    dp, dq = p.degree(name), q.degree(name)
    pc = p.coeffs_in(name)
    qc = q.coeffs_in(name)
    zero = MultiPoly.zero(p.variables)
    size = dp + dq
    rows = []
    for i in range(dq):
        row = [zero] * size
        for k in range(dp + 1):
            row[i + dp - k] = pc.get(k, zero)
        rows.append(row)
    for i in range(dp):
        row = [zero] * size
        for k in range(dq + 1):
            row[i + dq - k] = qc.get(k, zero)
        rows.append(row)
    return rows


def resultant(p, q, name):
    """Resultant with respect to one variable, as the Sylvester determinant.

    When exactly one argument is constant in the variable, the convention
    Res = const^deg(other) applies; two constants have nothing to eliminate.
    """
    p, q = p._align(q)
    dp, dq = p.degree(name), q.degree(name)
    if dp <= 0 and dq <= 0:
        raise DomainError("no elimination variable")
    if p.is_zero or q.is_zero:
        return MultiPoly.zero(p.variables)
    if dp == 0:
        return p**dq
    if dq == 0:
        return q**dp
    return poly_matrix_det(sylvester_matrix(p, q, name))


def discriminant(p, name):
    """Discriminant in one variable: (-1)^(m(m-1)/2) Res(p, p')/lc."""
    m = p.degree(name)
    if m < 1:
        raise DomainError("discriminant requires positive degree")
    if m == 1:
        return MultiPoly.const(1, p.variables)
    res = resultant(p, p.derivative(name), name)
    lc = p.coeffs_in(name)[m]
    quo = res.div_exact(lc)
    if quo is None:
        raise AlgebraError("resultant not divisible by leading coefficient")
    return -quo if (m * (m - 1) // 2) % 2 else quo


# ---------------------------------------------------------------------------
# Kronecker packing
# ---------------------------------------------------------------------------


def slot_weights(spans):
    """The mixed-radix slot map: exponent e goes to slot sum_v e_v w_v, with
    w_v the product of the earlier spans; one-to-one while every e_v < s_v."""
    return [prod(spans[:v]) for v in range(len(spans))]


def slot_exponent(s, spans):
    """The exponent at slot s of the slot map on spans; AlgebraError past it."""
    e = []
    for span in spans:
        s, k = divmod(s, span)
        e.append(k)
    if s:
        raise AlgebraError("slot outside the slot map")
    return tuple(e)


def pack(digits, width):
    """sum_s d_s t^s, t = 2^(8 width), for digits {s: d_s} with every
    |d_s| < t/2, laid out as bytes: time linear in the bytes."""
    top = (max(digits, default=-1) + 1) * width
    pos, neg = bytearray(top), bytearray(top)
    for s, c in digits.items():
        (pos if c > 0 else neg)[s * width : (s + 1) * width] = abs(c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def unpack(n, slots, width):
    """The nonzero digits {s: d_s} of n = pack(digits, width) in the given
    number of slots; OverflowError when n needs more.  The digits of n +
    (t/2)(t^slots - 1)/(t - 1) are d_s + t/2 >= 0, which int.to_bytes reads in
    linear time (shifting is quadratic in the slots).  A zero digit is compared
    as bytes and never made an int, so a sparse slot map costs its bytes only."""
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    raw = (n + int.from_bytes(zero * slots, "little")).to_bytes(slots * width, "little")
    chunks = (raw[i : i + width] for i in range(0, len(raw), width))
    return {s: int.from_bytes(d, "little") - half for s, d in enumerate(chunks) if d != zero}


def _quotient_bound(a, n):
    """Mignotte's bound on every integer divisor of degree n of a (§6.6)."""
    return (len(a) * max(map(abs, a))) << n


def exact_quotient(a, b):
    """a / b for integer coefficient lists when b divides a in Z[x], else None.

    Any exact quotient q has |q|_inf <= B = 2^deg(q) len(a) |a|_inf (Mignotte,
    von zur Gathen and Gerhard §6.6).  Packed at 2^(8w - 1) > B |b|_1, |a|_inf,
    b | a gives pack(a) = pack(q) pack(b), so one divmod finds pack(q) (§8.4).
    The q read back is accepted only when |q|_inf <= B and pack(q) pack(b) ==
    pack(a): all digits are below t/2, so that is the polynomial equality."""
    n = len(a) - len(b)
    if n < 0:
        return None if a else []
    bound = _quotient_bound(a, n)
    width = (max(bound * sum(map(abs, b)), max(map(abs, a))).bit_length() + 8) // 8
    pa, pb = pack(dict(enumerate(a)), width), pack(dict(enumerate(b)), width)
    pq, r = divmod(pa, pb)
    try:
        digits = {} if r else unpack(pq, n + 1, width)
    except OverflowError:
        return None
    if r or max(map(abs, digits.values()), default=0) > bound or pack(digits, width) * pb != pa:
        return None
    return [digits.get(k, 0) for k in range(n + 1)]


def kronecker_substitute(p, g):
    """The image of p under v_i -> x^(g^i), the slot map with every span g,
    for g above every per-variable degree, and its codec (g, variables)."""
    if g <= max((p.degree(v) for v in p.variables), default=0):
        raise DomainError("substitution base must exceed every per-variable degree")
    weights = slot_weights([g] * len(p.variables))
    out = {sum(map(mul, e, weights)): c for e, c in p.num.items()}
    coeffs = [out.get(k, 0) for k in range(max(out, default=-1) + 1)]
    return UniPoly(p.variables[0] if p.variables else "x", coeffs, p.den), (g, p.variables)


def kronecker_inverse(u, codec):
    """Inverse of kronecker_substitute for its codec (g, variables)."""
    g, variables = codec
    num = {slot_exponent(k, [g] * len(variables)): c for k, c in enumerate(u.num) if c}
    return MultiPoly.from_ints(variables, num, u.den)
