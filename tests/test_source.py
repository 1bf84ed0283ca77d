"""Checks on the package source itself."""

import ast
from pathlib import Path

import kronecker

PACKAGE = Path(kronecker.__file__).parent


def _is_assertion_error(exc):
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # python -O strips assert statements, so a certificate written as one
    # silently disappears; an AssertionError raised by hand survives -O but
    # escapes the CLI's error handling as a traceback.  Certificates raise
    # AlgebraError instead.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _is_assertion_error(node.exc)
            ):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"assert statements or raised AssertionErrors in the package: {found}"
