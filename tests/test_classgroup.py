"""Class numbers of imaginary quadratic fields and the class-number CLI."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import ceil, gcd, isqrt, pi

import pytest

from kronecker import classgroup
from kronecker.classgroup import class_number_imag_quadratic
from kronecker.cli import main
from kronecker.divisors import DivisorForm, absolute_equiv, form_norm_content_fm
from kronecker.errors import AlgebraError
from kronecker.numberfield import is_integral

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _kronecker_symbol(D, a):
    """(D/a) for a > 0: (D/2) is 0, 1 or -1 by D mod 8, odd parts by Jacobi."""
    out = 1
    while a % 2 == 0:
        a //= 2
        if D % 2 == 0:
            return 0
        out *= 1 if D % 8 in (1, 7) else -1
    return out * _jacobi(D, a)


def _analytic_class_number(d):
    """Dirichlet's class number formula h = -(w / (2|D|)) sum (D/a) a for the
    field discriminant D of Q(sqrt d), d < 0 squarefree."""
    D = d if d % 4 == 1 else 4 * d
    w = {-3: 6, -4: 4}.get(D, 2)
    total = sum(_kronecker_symbol(D, a) * a for a in range(1, abs(D)))
    h = -Fraction(w, 2 * abs(D)) * total
    assert h.denominator == 1
    return int(h)


def _squarefree(n):
    return all(n % (p * p) for p in range(2, int(n**0.5) + 1))


def test_analytic_formula_on_known_values():
    known = {-1: 1, -2: 1, -3: 1, -5: 2, -14: 4, -23: 3, -47: 5, -163: 1, -89: 12}
    for d, h in known.items():
        assert _analytic_class_number(d) == h


def test_class_numbers_match_the_analytic_formula():
    for d in range(-100, 0):
        if _squarefree(-d):
            assert class_number_imag_quadratic(d).h == _analytic_class_number(d), d


def test_class_numbers_up_to_the_cap_match_the_analytic_formula():
    for d in range(-classgroup.MAX_ABS_D, -100):
        if _squarefree(-d):
            assert class_number_imag_quadratic(d).h == _analytic_class_number(d), d


def _norm_elements(field, d, n):
    """All elements of the order with norm exactly n (n > 0): (a + b sqrt
    d)/2 with a = b mod 2 and a^2 + |d| b^2 = 4n when d = 1 mod 4, else
    a + b sqrt d with a^2 + |d| b^2 = n."""
    out = []
    if d % 4 == 1:
        target = 4 * n
        bmax = isqrt(target // abs(d))
        for b in range(-bmax, bmax + 1):
            rest = target - abs(d) * b * b
            a = isqrt(rest)
            if a * a == rest and (a - b) % 2 == 0:
                out.extend(field.element([Fraction(aa - b, 2), b]) for aa in {a, -a})
    else:
        bmax = isqrt(n // abs(d))
        for b in range(-bmax, bmax + 1):
            rest = n - abs(d) * b * b
            a = isqrt(rest)
            if a * a == rest:
                out.extend(field.element([aa, b]) for aa in {a, -a})
    return [x for x in out if not x.is_zero]


def _oracle_generator(form, d):
    """A generator of the divisor by exhaustive search over the elements
    whose norm is the content of Nm(form), or None."""
    n = form_norm_content_fm(form)[1]
    for x in _norm_elements(form.field, d, n):
        if absolute_equiv(form, DivisorForm.constant(form.field, x)):
            return x
    return None


def _classes_by_divisor_tests(res):
    """(str(form), norm, order) per class by exhaustive divisor tests alone:
    a divisor D joins the first class whose representative R makes D *
    conj(R) principal, the classes are closed under products with the small
    prime divisors, and the order of R is its first principal power."""
    d, pg = res.d, _oracle_generator
    small = classgroup._small_prime_divisors(res.field, res.disc, res.bound)
    prime_forms = [pd.form for pd in small]
    reps = [DivisorForm.constant(res.field, 1)]

    def class_of(form):
        if pg(form, d) is None and all(pg(form * r.conj_quadratic(), d) is None for r in reps[1:]):
            reps.append(form)

    for f in prime_forms:
        class_of(f)
    changed = True
    while changed:
        before = len(reps)
        for a in reps[1:before]:
            for f in prime_forms:
                class_of(a * f)
        changed = len(reps) != before
    out = []
    for rep in reps:
        power, k = rep, 1
        while pg(power, d) is None:
            power, k = power * rep, k + 1
        out.append((str(rep), form_norm_content_fm(rep)[1], k))
    return out


def test_reduced_forms_group_as_the_divisor_tests_do():
    for d in range(-47, 0):
        if _squarefree(-d):
            res = class_number_imag_quadratic(d)
            got = [(str(f), n, o) for f, n, o in res.class_representatives]
            assert got == _classes_by_divisor_tests(res), d


def test_reduced_forms_of_small_discriminants():
    assert classgroup._reduce_form(6, 5, 2)[0] == (2, -1, 3)
    assert classgroup._reduce_form(3, -3, 3)[0] == (3, 3, 3)
    assert classgroup._reduce_form(2, -1, 2)[0] == (2, 1, 2)
    # the divisors above 2 in Q(sqrt -23) are conjugate and of order 3
    f, g = (2, 1, 3), (2, -1, 3)
    assert classgroup._compose(f, g, -23) == (1, 1, 6)
    assert classgroup._compose(f, f, -23) == g
    assert classgroup._form_order(f, -23) == 3


def test_reduction_column_takes_the_reduced_first_coefficient():
    rng = random.Random(5)
    for _ in range(300):
        b = rng.randint(-(10**6), 10**6)
        a = rng.randint(1, 10**6)
        c = (b * b) // (4 * a) + rng.randint(1, 10**6)
        (ra, rb, rc), (x, y) = classgroup._reduce_form(a, b, c)
        assert rb * rb - 4 * ra * rc == b * b - 4 * a * c
        assert abs(rb) <= ra <= rc and (rb >= 0 or (-rb != ra and ra != rc))
        assert a * x * x + b * x * y + c * y * y == ra
        assert gcd(x, y) == 1


def _small_prime_forms(d):
    field = classgroup.quadratic_field(d)
    disc = d if d % 4 == 1 else 4 * d
    bound = ceil((2 / pi) * abs(disc) ** 0.5)
    return field, [pd.form for pd in classgroup._small_prime_divisors(field, disc, bound)]


def test_ideal_form_norm_is_the_norm_content():
    for d in (-1, -2, -5, -23, -41, -89, -146):
        field, small = _small_prime_forms(d)
        forms = [DivisorForm.constant(field, 6), DivisorForm.constant(field, field.element([3, 2]))]
        forms += small + [f.conj_quadratic() for f in small]
        forms += [f * g for f in small[:3] for g in small[:3]]
        forms.append(small[-1] ** 3)
        for form in forms:
            g, (a, b, c) = classgroup._ideal_form(form)
            assert b * b - 4 * a * c == field.disc, (d, str(form))
            assert g * g * a == form_norm_content_fm(form)[1] == classgroup._norm_of(form), (d, str(form))


def test_principal_generator_agrees_with_the_exhaustive_search():
    for d in range(-47, 0):
        if not _squarefree(-d):
            continue
        field, small = _small_prime_forms(d)
        products = small + [f * g for i, f in enumerate(small) for g in small[i:]]
        for form in products:
            alpha, beta = classgroup.principal_generator(form), _oracle_generator(form, d)
            assert (alpha is None) == (beta is None), (d, str(form))
            if alpha is not None:
                assert is_integral(alpha / beta) and is_integral(beta / alpha), (d, str(form))


def test_a_wrong_generator_is_refused(monkeypatch):
    real = classgroup._reduce_form

    def shifted(a, b, c):
        form, (x, y) = real(a, b, c)
        return form, (x + 1, y)

    field = classgroup.quadratic_field(-5)
    form = DivisorForm.constant(field, field.element([1, 1]))
    assert classgroup.principal_generator(form) is not None
    monkeypatch.setattr(classgroup, "_reduce_form", shifted)
    with pytest.raises(AlgebraError, match="does not generate"):
        classgroup.principal_generator(form)


def test_only_certificates_reach_the_divisor_tests(monkeypatch):
    calls = []
    real = classgroup.principal_generator

    def recorded(form):
        calls.append(real(form))
        return calls[-1]

    monkeypatch.setattr(classgroup, "principal_generator", recorded)
    for d, n in [(-23, 4), (-47, 4), (-41, 7)]:
        calls.clear()
        class_number_imag_quadratic(d)
        assert len(calls) == n and None not in calls, d


def test_a_prime_keyed_into_its_conjugates_class_is_refused(monkeypatch):
    real = classgroup._ideal_form

    def conjugated(form):
        g, (a, b, c) = real(form)
        if str(form) == "(t + 1)*u2 + 2":
            return g, (a, -b, c)
        return g, (a, b, c)

    monkeypatch.setattr(classgroup, "_ideal_form", conjugated)
    with pytest.raises(AlgebraError, match="not in the class"):
        class_number_imag_quadratic(-23)


def test_a_representative_with_no_principal_power_is_refused(monkeypatch):
    real = classgroup.principal_generator

    def no_cubes_of_norm_two(form):
        return None if classgroup._norm_of(form) == 8 else real(form)

    monkeypatch.setattr(classgroup, "principal_generator", no_cubes_of_norm_two)
    with pytest.raises(AlgebraError, match="not principal"):
        class_number_imag_quadratic(-23)


PINNED = {
    -5: "h(-5) = 2\n"
    "  class rep 1 (norm 1, order 1)\n"
    "  class rep (t + 1)*u1 + 2 (norm 2, order 2)\n",
    -14: "h(-14) = 4\n"
    "  class rep 1 (norm 1, order 1)\n"
    "  class rep t*u1 + 2 (norm 2, order 2)\n"
    "  class rep (t + 1)*u1 + 3 (norm 3, order 4)\n"
    "  class rep (t + 2)*u2 + 3 (norm 3, order 4)\n",
    -23: "h(-23) = 3\n"
    "  class rep 1 (norm 1, order 1)\n"
    "  class rep t*u1 + 2 (norm 2, order 3)\n"
    "  class rep (t + 1)*u2 + 2 (norm 2, order 3)\n",
    -47: "h(-47) = 5\n"
    "  class rep 1 (norm 1, order 1)\n"
    "  class rep t*u1 + 2 (norm 2, order 5)\n"
    "  class rep (t + 1)*u2 + 2 (norm 2, order 5)\n"
    "  class rep t*u1 + 3 (norm 3, order 5)\n"
    "  class rep (t + 2)*u2 + 3 (norm 3, order 5)\n",
    -41: "h(-41) = 8\n"
    "  class rep 1 (norm 1, order 1)\n"
    "  class rep (t + 1)*u1 + 2 (norm 2, order 2)\n"
    "  class rep (t + 1)*u1 + 3 (norm 3, order 8)\n"
    "  class rep (t + 2)*u2 + 3 (norm 3, order 8)\n"
    "  class rep (t + 2)*u1 + 5 (norm 5, order 4)\n"
    "  class rep (t + 3)*u2 + 5 (norm 5, order 4)\n"
    "  class rep (t + 1)*u1 + 7 (norm 7, order 8)\n"
    "  class rep (t + 6)*u2 + 7 (norm 7, order 8)\n",
    -89: "h(-89) = 12\n"
    "  class rep 1 (norm 1, order 1)\n"
    "  class rep (t + 1)*u1 + 2 (norm 2, order 2)\n"
    "  class rep (t + 1)*u1 + 3 (norm 3, order 12)\n"
    "  class rep (t + 2)*u2 + 3 (norm 3, order 12)\n"
    "  class rep (t + 1)*u1 + 5 (norm 5, order 3)\n"
    "  class rep (t + 4)*u2 + 5 (norm 5, order 3)\n"
    "  class rep (t + 3)*u1 + 7 (norm 7, order 4)\n"
    "  class rep (t + 4)*u2 + 7 (norm 7, order 4)\n"
    "  class rep (2*t - 88)*u1^2 + (5*t + 5)*u1 + 6 (norm 6, order 12)\n"
    "  class rep (3*t - 87)*u1*u2 + (3*t + 3)*u1 + (2*t + 4)*u2 + 6 (norm 6, order 12)\n"
    "  class rep (2*t - 88)*u1^2 + (7*t + 7)*u1 + 10 (norm 10, order 6)\n"
    "  class rep (5*t - 85)*u1*u2 + (5*t + 5)*u1 + (2*t + 8)*u2 + 10 (norm 10, order 6)\n",
    -146: "h(-146) = 16\n"
    "  class rep 1 (norm 1, order 1)\n"
    "  class rep t*u1 + 2 (norm 2, order 2)\n"
    "  class rep (t + 1)*u1 + 3 (norm 3, order 8)\n"
    "  class rep (t + 2)*u2 + 3 (norm 3, order 8)\n"
    "  class rep (t + 2)*u1 + 5 (norm 5, order 16)\n"
    "  class rep (t + 3)*u2 + 5 (norm 5, order 16)\n"
    "  class rep (t + 1)*u1 + 7 (norm 7, order 16)\n"
    "  class rep (t + 6)*u2 + 7 (norm 7, order 16)\n"
    "  class rep (t + 6)*u1 + 13 (norm 13, order 16)\n"
    "  class rep (t + 7)*u2 + 13 (norm 13, order 16)\n"
    "  class rep (t - 146)*u1^2 + (5*t + 2)*u1 + 6 (norm 6, order 8)\n"
    "  class rep (2*t - 146)*u1*u2 + 3*t*u1 + (2*t + 4)*u2 + 6 (norm 6, order 8)\n"
    "  class rep (2*t - 146)*u1^2 + (7*t + 4)*u1 + 10 (norm 10, order 16)\n"
    "  class rep (3*t - 146)*u1*u2 + 5*t*u1 + (2*t + 6)*u2 + 10 (norm 10, order 16)\n"
    "  class rep (2*t - 145)*u1^2 + (6*t + 6)*u1 + 9 (norm 9, order 4)\n"
    "  class rep (4*t - 142)*u2^2 + (6*t + 12)*u2 + 9 (norm 9, order 4)\n",
    -194: "h(-194) = 20\n"
    "  class rep 1 (norm 1, order 1)\n"
    "  class rep t*u1 + 2 (norm 2, order 2)\n"
    "  class rep (t + 1)*u1 + 3 (norm 3, order 5)\n"
    "  class rep (t + 2)*u2 + 3 (norm 3, order 5)\n"
    "  class rep (t + 1)*u1 + 5 (norm 5, order 20)\n"
    "  class rep (t + 4)*u2 + 5 (norm 5, order 20)\n"
    "  class rep (t + 3)*u1 + 7 (norm 7, order 20)\n"
    "  class rep (t + 4)*u2 + 7 (norm 7, order 20)\n"
    "  class rep (t + 2)*u1 + 11 (norm 11, order 10)\n"
    "  class rep (t + 9)*u2 + 11 (norm 11, order 10)\n"
    "  class rep (t + 1)*u1 + 13 (norm 13, order 4)\n"
    "  class rep (t + 12)*u2 + 13 (norm 13, order 4)\n"
    "  class rep (t - 194)*u1^2 + (5*t + 2)*u1 + 6 (norm 6, order 10)\n"
    "  class rep (2*t - 194)*u1*u2 + 3*t*u1 + (2*t + 4)*u2 + 6 (norm 6, order 10)\n"
    "  class rep (t - 194)*u1^2 + (7*t + 2)*u1 + 10 (norm 10, order 20)\n"
    "  class rep (4*t - 194)*u1*u2 + 5*t*u1 + (2*t + 8)*u2 + 10 (norm 10, order 20)\n"
    "  class rep (3*t - 194)*u1^2 + (9*t + 6)*u1 + 14 (norm 14, order 20)\n"
    "  class rep (4*t - 194)*u1*u2 + 7*t*u1 + (2*t + 8)*u2 + 14 (norm 14, order 20)\n"
    "  class rep (2*t - 194)*u1^2 + (13*t + 4)*u1 + 22 (norm 22, order 5)\n"
    "  class rep (9*t - 194)*u1*u2 + 11*t*u1 + (2*t + 18)*u2 + 22 (norm 22, order 5)\n",
}


@pytest.mark.parametrize("d", sorted(PINNED))
def test_class_number_cli_text(d, capsys):
    assert main(["class-number", "-d", str(d)]) == 0
    out, err = capsys.readouterr()
    assert out == PINNED[d] and err == ""


def _class_number_process(d):
    return subprocess.run(
        [sys.executable, "-m", "kronecker.cli", "class-number", "-d", d],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )


@pytest.mark.parametrize(
    "d, message",
    [
        (5, "imaginary quadratic fields need d < 0"),
        (0, "imaginary quadratic fields need d < 0"),
        (-8, "d must be squarefree"),
        (-201, "|d| capped at 200"),
    ],
)
def test_class_number_cli_domain_errors(d, message):
    proc = _class_number_process(str(d))
    assert proc.returncode == 1
    assert proc.stdout == "" and proc.stderr == f"error: {message}\n"
    assert "Traceback" not in proc.stderr


def test_class_number_cli_rejects_a_non_integer_d():
    proc = _class_number_process("abc")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage:")
    assert "argument -d: invalid int value: 'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr
