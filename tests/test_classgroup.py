"""Class numbers of imaginary quadratic fields and the class-number CLI."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from kronecker.classgroup import class_number_imag_quadratic
from kronecker.cli import main

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
    for d in range(-47, 0):
        if _squarefree(-d):
            assert class_number_imag_quadratic(d).h == _analytic_class_number(d), d


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
}


@pytest.mark.parametrize("d", sorted(PINNED))
def test_class_number_cli_text(d, capsys):
    assert main(["class-number", "-d", str(d)]) == 0
    out, err = capsys.readouterr()
    assert out == PINNED[d] and err == ""


@pytest.mark.parametrize(
    "d, message",
    [
        (5, "imaginary quadratic fields need d < 0"),
        (-8, "d must be squarefree"),
        (-201, "|d| capped at 200"),
    ],
)
def test_class_number_cli_domain_errors(d, message):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "kronecker.cli", "class-number", "-d", str(d)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == "" and proc.stderr == f"error: {message}\n"
    assert "Traceback" not in proc.stderr
