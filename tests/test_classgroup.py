"""Class numbers of imaginary quadratic fields and the class-number CLI."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from kronecker import classgroup
from kronecker.classgroup import class_number_imag_quadratic
from kronecker.cli import main
from kronecker.divisors import DivisorForm
from kronecker.errors import AlgebraError

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


def _classes_by_divisor_tests(res):
    """(str(form), norm, order) per class by exhaustive divisor tests alone:
    a divisor D joins the first class whose representative R makes D *
    conj(R) principal, the classes are closed under products with the small
    prime divisors, and the order of R is its first principal power."""
    d, pg = res.d, classgroup.principal_generator
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
        out.append((str(rep), classgroup._norm_of(rep), k))
    return out


def test_reduced_forms_group_as_the_divisor_tests_do():
    for d in range(-47, 0):
        if _squarefree(-d):
            res = class_number_imag_quadratic(d)
            got = [(str(f), n, o) for f, n, o in res.class_representatives]
            assert got == _classes_by_divisor_tests(res), d


def test_reduced_forms_of_small_discriminants():
    assert classgroup._reduce_form(6, 5, 2) == (2, -1, 3)
    assert classgroup._reduce_form(3, -3, 3) == (3, 3, 3)
    assert classgroup._reduce_form(2, -1, 2) == (2, 1, 2)
    # the divisors above 2 in Q(sqrt -23) are conjugate and of order 3
    f, g = (2, 1, 3), (2, -1, 3)
    assert classgroup._compose(f, g, -23) == (1, 1, 6)
    assert classgroup._compose(f, f, -23) == g
    assert classgroup._form_order(f, -23) == 3


def test_only_certificates_reach_the_divisor_tests(monkeypatch):
    calls = []
    real = classgroup.principal_generator

    def recorded(form, d):
        calls.append(real(form, d))
        return calls[-1]

    monkeypatch.setattr(classgroup, "principal_generator", recorded)
    for d, n in [(-23, 4), (-47, 4), (-41, 7)]:
        calls.clear()
        class_number_imag_quadratic(d)
        assert len(calls) == n and None not in calls, d


def test_a_prime_keyed_into_its_conjugates_class_is_refused(monkeypatch):
    real = classgroup._prime_form

    def conjugated(p, local_factor, d):
        a, b, c = real(p, local_factor, d)
        if p == 2 and int(local_factor.coeffs[0]) == 1:
            return classgroup._reduce_form(a, -b, c)
        return (a, b, c)

    monkeypatch.setattr(classgroup, "_prime_form", conjugated)
    with pytest.raises(AlgebraError, match="not in the class"):
        class_number_imag_quadratic(-23)


def test_a_representative_with_no_principal_power_is_refused(monkeypatch):
    real = classgroup.principal_generator

    def no_cubes_of_norm_two(form, d):
        return None if classgroup._norm_of(form) == 8 else real(form, d)

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
