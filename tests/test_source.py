"""Checks on the package source itself."""

import ast
from pathlib import Path

import kronecker

PACKAGE = Path(kronecker.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a certificate written as one
    # silently disappears; certificates raise AlgebraError instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
