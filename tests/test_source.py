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


def _convolution_target(node):
    """A subscript target indexed by the sum of two names, as in out[i + j]."""
    index = getattr(node, "slice", None)
    return (
        isinstance(node, ast.Subscript)
        and isinstance(index, ast.BinOp)
        and isinstance(index.op, ast.Add)
        and isinstance(index.left, ast.Name)
        and isinstance(index.right, ast.Name)
    )


def _dense_mod_p_loop(fn):
    """True when fn writes out[i + j] and reduces modulo a variable: the
    shape of a dense polynomial product or division mod p."""
    reduces = any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod) and isinstance(n.right, ast.Name)
        for n in ast.walk(fn)
    )
    writes = any(
        _convolution_target(t)
        for n in ast.walk(fn)
        if isinstance(n, (ast.Assign, ast.AugAssign))
        for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
    )
    return reduces and writes


def test_mod_p_polynomial_arithmetic_lives_in_modp():
    # one implementation per primitive: dense polynomial arithmetic modulo
    # an integer is kronecker.modp's alone
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "modp.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                fn.name.startswith("_modp_") or _dense_mod_p_loop(fn)
            ):
                found.append(f"{path.relative_to(PACKAGE)}:{fn.lineno} {fn.name}")
    assert not found, f"mod-p polynomial arithmetic outside kronecker.modp: {found}"


def _lifts_by_hand(tree):
    """Lines of the calls to hensel_step and of the modular inverses
    pow(x, -1, m) in a module: the pieces of a p-adic lift."""
    return [
        call.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and (
            getattr(call.func, "id", getattr(call.func, "attr", None)) == "hensel_step"
            or (
                getattr(call.func, "id", None) == "pow"
                and len(call.args) == 3
                and isinstance(call.args[1], ast.UnaryOp)
                and isinstance(call.args[1].op, ast.USub)
                and getattr(call.args[1].operand, "value", None) == 1
            )
        )
    ]


def test_one_p_adic_lift():
    # Zassenhaus's factors and the Galois group's roots both come from
    # modp.hensel_lift: no other module takes a Hensel step or a modular
    # inverse of its own
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "modp.py"
        for line in _lifts_by_hand(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"Hensel steps or modular inverses outside kronecker.modp: {found}"


def test_the_lift_lint_recognises_a_newton_ladder():
    newton = (
        "def _numeric_roots(F, dF, p, k, residues):\n"
        "    lifted = []\n"
        "    for a in residues:\n"
        "        for e in range(1, k + 1):\n"
        "            m = p**e\n"
        "            a = (a - _value(F, a, m) * pow(_value(dF, a, m), -1, m)) % m\n"
        "        lifted.append(a)\n"
        "    return lifted\n"
    )
    assert _lifts_by_hand(ast.parse(newton)) == [6]
    steps = "def lift(F, g, h, s, t, m):\n    return modp.hensel_step(F, g, h, s, t, m)\n"
    assert _lifts_by_hand(ast.parse(steps)) == [2]
    # a Legendre symbol's power and a plain power are no inverses
    assert not _lifts_by_hand(ast.parse("pow(d, (p - 1) // 2, p)\npow(a, d, n)\npow(a, -2, m)\n"))


def _byte_conversions(tree, allowed=()):
    """Lines of the int.to_bytes and int.from_bytes calls in a module, those
    inside the functions named in allowed left out."""
    skip = {id(n) for name, fn in _functions(tree) if name in allowed for n in ast.walk(fn)}
    return [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("to_bytes", "from_bytes") and id(n) not in skip
    ]


def test_kronecker_packing_lives_in_one_codec():
    # one byte format for a polynomial packed into one integer: only
    # polyring.pack and polyring.unpack convert between ints and bytes
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        allowed = ("pack", "unpack") if path.name == "polyring.py" else ()
        lines = _byte_conversions(ast.parse(path.read_text(), filename=str(path)), allowed)
        found.extend(f"{path.relative_to(PACKAGE)}:{line}" for line in lines)
    assert not found, f"int/bytes conversions outside polyring.pack and polyring.unpack: {found}"
    codec = ast.parse((PACKAGE / "polyring.py").read_text())
    assert len(_byte_conversions(codec)) >= 4


def test_the_mod_p_lint_recognises_a_dense_product():
    source = (
        "def mul(a, b, p):\n"
        "    out = [0] * (len(a) + len(b) - 1)\n"
        "    for i, x in enumerate(a):\n"
        "        for j, y in enumerate(b):\n"
        "            out[i + j] = (out[i + j] + x * y) % p\n"
        "    return out\n"
    )
    assert _dense_mod_p_loop(ast.parse(source).body[0])
    assert not _dense_mod_p_loop(ast.parse(source.replace(" % p", "")).body[0])


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _eliminates_in_a_loop(fn):
    """True when fn calls eliminate_step inside a loop or comprehension."""
    return any(
        isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "eliminate_step"
        for loop in ast.walk(fn)
        if isinstance(loop, _LOOPS)
        for call in ast.walk(loop)
    )


def test_one_elimination_loop():
    # the plain and u-weighted runs are one loop on different generators:
    # in kronecker.elimination only _skeleton eliminates variable by variable
    tree = ast.parse((PACKAGE / "elimination.py").read_text())
    looping = sorted(name for name, fn in _functions(tree) if _eliminates_in_a_loop(fn))
    assert looping == ["_skeleton"], f"functions running an elimination loop: {looping}"


def test_the_elimination_loop_lint_recognises_a_second_loop():
    source = (
        "def _u_run(current, variables):\n"
        "    for k in range(len(variables) - 1, -1, -1):\n"
        "        current = eliminate_step(current, variables[k]).generators\n"
        "    return current\n"
    )
    assert _eliminates_in_a_loop(ast.parse(source).body[0])
    assert _eliminates_in_a_loop(ast.parse(source.replace("eliminate_step", "elimination.eliminate_step")).body[0])
    assert not _eliminates_in_a_loop(ast.parse(source.replace("eliminate_step", "_interreduce")).body[0])
    once = "def step(current, v):\n    return eliminate_step(current, v)\n"
    assert not _eliminates_in_a_loop(ast.parse(once).body[0])


def _calls(fn, name):
    """True when fn calls a function called name, plainly or as an attribute."""
    return any(
        isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == name
        for call in ast.walk(fn)
    )


def test_one_factoring_frame_and_one_recombination():
    # the univariate and Kronecker-substitution routes share one frame and
    # one subset loop: in kronecker.factorization only _recombine draws
    # subsets and only _factor_with splits squarefree
    tree = ast.parse((PACKAGE / "factorization.py").read_text())
    for callee, owner in (("combinations", "_recombine"), ("_sqf_split_multi", "_factor_with")):
        callers = sorted(name for name, fn in _functions(tree) if _calls(fn, callee))
        assert callers == [owner], f"functions calling {callee}: {callers}"


def test_the_factoring_lint_recognises_a_second_loop():
    source = (
        "def _kronecker_loop(remaining, pool, size):\n"
        "    for combo in itertools.combinations(range(len(pool)), size):\n"
        "        quo = remaining.div_exact(_inverse(combo))\n"
        "        if quo is not None:\n"
        "            return combo, quo\n"
    )
    assert _calls(ast.parse(source).body[0], "combinations")
    assert _calls(ast.parse(source.replace("itertools.combinations", "combinations")).body[0], "combinations")
    assert not _calls(ast.parse(source.replace("itertools.combinations", "_recombine")).body[0], "combinations")
    frame = "def _factor_parts(f, name):\n    return [g for g, _ in _sqf_split_multi(f, name)]\n"
    assert _calls(ast.parse(frame).body[0], "_sqf_split_multi")


def _powers_by_a_difference_in_a_loop(fn):
    """True when fn raises to an exponent of the form a - b inside a loop
    or comprehension, as in den ** (d - k): a substitution cleared of its
    denominator by hand."""
    return any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Pow)
        and isinstance(n.right, ast.BinOp)
        and isinstance(n.right.op, ast.Sub)
        for loop in ast.walk(fn)
        if isinstance(loop, _LOOPS)
        for n in ast.walk(loop)
    )


def test_one_cleared_substitution():
    # x -> num/den times den^deg is elimination._cleared_subs, for the
    # u-substitution and the certificate alike
    tree = ast.parse((PACKAGE / "elimination.py").read_text())
    found = sorted(name for name, fn in _functions(tree) if _powers_by_a_difference_in_a_loop(fn))
    assert found == ["_cleared_subs"], f"functions clearing a substitution by hand: {found}"


def test_the_cleared_substitution_lint_recognises_a_hand_clearing():
    by_hand = (
        "def _verify(g, params, phi_prime, budget):\n"
        "    total = 0\n"
        "    for e, c in g.num.items():\n"
        "        term, used = c, 0\n"
        "        for v, k in zip(g.variables, e):\n"
        "            term, used = term * params[v] ** k, used + k\n"
        "        total = total + term * phi_prime ** (budget - used)\n"
        "    return total\n"
    )
    assert _powers_by_a_difference_in_a_loop(ast.parse(by_hand).body[0])
    comprehension = "def f(g, num, den, d):\n    return sum(c * num**k * den ** (d - k) for k, c in g)\n"
    assert _powers_by_a_difference_in_a_loop(ast.parse(comprehension).body[0])
    # the pencil factor of eliminate_step is one power, outside any loop
    pencil = (
        "def eliminate_step(g, h, var):\n"
        "    m, n = g.degree(var), h.degree(var)\n"
        "    return g.coeffs_in(var)[m] ** (m - n) * resultant(g, h, var)\n"
    )
    assert not _powers_by_a_difference_in_a_loop(ast.parse(pencil).body[0])


def _unions_variables_by_hand(fn):
    """True when fn takes names from a ``.variables`` tuple and tests
    ``v not in L`` against a list L that it appends to or extends: a
    hand-written first-appearance union of variable orders."""
    reads = any(
        isinstance(n, (ast.For, ast.comprehension)) and isinstance(n.iter, ast.Attribute) and n.iter.attr == "variables"
        for n in ast.walk(fn)
    )
    grown = {
        n.func.value.id
        for n in ast.walk(fn)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("append", "extend")
        and isinstance(n.func.value, ast.Name)
    }
    tested = {
        n.comparators[0].id
        for n in ast.walk(fn)
        if isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.NotIn) and isinstance(n.comparators[0], ast.Name)
    }
    return reads and bool(grown & tested)


def test_one_variable_order_union():
    # every first-appearance merge of variable orders is polyring.union_variables
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _unions_variables_by_hand(fn)
                and not (path.name == "polyring.py" and fn.name == "union_variables")
            ):
                found.append(f"{path.relative_to(PACKAGE)}:{fn.lineno} {fn.name}")
    assert not found, f"hand-written unions of variable orders: {found}"


def test_the_union_lint_recognises_a_hand_loop():
    loop = (
        "def _align(self, other):\n"
        "    merged = list(self.variables)\n"
        "    for v in other.variables:\n"
        "        if v not in merged:\n"
        "            merged.append(v)\n"
        "    return merged\n"
    )
    assert _unions_variables_by_hand(ast.parse(loop).body[0])
    extend = (
        "def parse_polys(polys):\n"
        "    merged = []\n"
        "    for p in polys:\n"
        "        merged.extend(v for v in p.variables if v not in merged)\n"
        "    return merged\n"
    )
    assert _unions_variables_by_hand(ast.parse(extend).body[0])
    # deduping polynomials, as elimination._interreduce does, is no union
    dedupe = (
        "def _interreduce(gens):\n"
        "    norm = []\n"
        "    for g in gens:\n"
        "        p = normalize_primitive(g)\n"
        "        if p not in norm:\n"
        "            norm.append(p)\n"
        "    return norm\n"
    )
    assert not _unions_variables_by_hand(ast.parse(dedupe).body[0])


def _writes_a_dense_product(fn):
    """True when fn runs ``for j, b in enumerate(..., i)`` and adds into
    X[j] in its body: the shape of a dense polynomial product."""
    for loop in ast.walk(fn):
        if not (
            isinstance(loop, ast.For)
            and isinstance(loop.iter, ast.Call)
            and getattr(loop.iter.func, "id", None) == "enumerate"
            and len(loop.iter.args) + len(loop.iter.keywords) == 2
            and isinstance(loop.target, ast.Tuple)
            and isinstance(loop.target.elts[0], ast.Name)
        ):
            continue
        j = loop.target.elts[0].id
        if any(
            isinstance(n, ast.AugAssign)
            and isinstance(n.target, ast.Subscript)
            and getattr(n.target.slice, "id", None) == j
            for stmt in loop.body
            for n in ast.walk(stmt)
        ):
            return True
    return False


def test_number_field_products_are_unipoly_products():
    # AlgNum's sums and products are UniPoly's, reduced by the power table:
    # numberfield.py writes no dense product of its own
    tree = ast.parse((PACKAGE / "numberfield.py").read_text())
    found = sorted(name for name, fn in _functions(tree) if _writes_a_dense_product(fn))
    assert not found, f"dense products in numberfield.py: {found}"
    polyring = ast.parse((PACKAGE / "polyring.py").read_text())
    products = sorted(name for name, fn in _functions(polyring) if _writes_a_dense_product(fn))
    assert "UniPoly.__mul__" in products, products


def test_the_dense_product_lint_recognises_a_convolution():
    product = (
        "def __mul__(self, other):\n"
        "    prod = [0] * (2 * self.field.degree - 1)\n"
        "    for i, a in enumerate(self.num):\n"
        "        if a:\n"
        "            for j, b in enumerate(other.num, i):\n"
        "                prod[j] += a * b\n"
        "    return prod\n"
    )
    assert _writes_a_dense_product(ast.parse(product).body[0])
    assert _writes_a_dense_product(ast.parse(product.replace("other.num, i)", "other.num, start=i)")).body[0])
    # the power-table reduction adds rows into the first n coordinates
    reduce = (
        "def _reduce(self, num, den):\n"
        "    out = num[:n]\n"
        "    for c, row in zip(num[n:], self._power_rows(len(num) - n)):\n"
        "        if c:\n"
        "            for i, r in enumerate(row):\n"
        "                out[i] += c * r\n"
        "    return out\n"
    )
    assert not _writes_a_dense_product(ast.parse(reduce).body[0])


def _functions(tree):
    """Module-level functions by name, and methods as Class.method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def test_term_kernels_never_name_fraction():
    # MultiPoly and UniPoly carry integers over one denominator, so the term
    # kernels and UniPoly's dense long division run on ints; Fractions
    # belong at the API edge only
    tree = ast.parse((PACKAGE / "polyring.py").read_text())
    kernels = {"mul_terms", "add_scaled_terms", "divide_terms", "UniPoly.divmod"}
    found = {name: fn for name, fn in _functions(tree) if name in kernels}
    assert set(found) == kernels
    naming = sorted(
        name
        for name, fn in found.items()
        for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    )
    assert not naming, f"term kernels that name Fraction: {naming}"


def _divisions(fn):
    """Division operators and dividing calls inside one function's AST."""
    found = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            found.append(type(node.op).__name__)
        elif isinstance(node, ast.Name) and node.id in ("divmod", "div_exact"):
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in ("divmod", "div_exact"):
            found.append(node.attr)
    return found


def test_determinant_is_division_free():
    # poly_matrix_det's term route runs berkowitz_det on MultiPoly entries,
    # where every exact division is a term-map long division; the route is
    # fast because the determinant makes none.  berkowitz_det and charpoly
    # share the recurrence _berkowitz, which must not divide either
    routines = [("linalg.py", "berkowitz_det"), ("linalg.py", "_berkowitz"), ("polyring.py", "_poly_matrix_det_terms")]
    for module, name in routines:
        tree = ast.parse((PACKAGE / module).read_text())
        fn = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == name)
        assert not _divisions(fn), f"{name} divides: {_divisions(fn)}"
    for sample in ("a / b", "a // b", "a % b", "x %= b", "divmod(a, b)", "a.div_exact(b)"):
        assert _divisions(ast.parse(f"def f(a, b):\n    x = 1\n    {sample}\n").body[0]), sample


def _imports(tree):
    """The module names a module's import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, and
    # every @dataclass is built with exec: about a third of the package's
    # import time, which every CLI process pays
    found = [
        f"{path.relative_to(PACKAGE)}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if "dataclasses" in _imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"modules importing dataclasses: {found}"
    assert "dataclasses" in _imports(ast.parse("from dataclasses import dataclass"))


def _named(tree):
    """The identifiers a module names: variables, attributes, imported
    names and definitions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def _reference_names(source, filename):
    """The names of Kronecker's interpolation search that a module other
    than factorization.py names, and any second rational-root route."""
    banned = {"_extract_integer_roots"}
    if filename != "factorization.py":
        banned |= {"_search_factor", "_factor_squarefree_interpolation"}
    return sorted(banned.intersection(_named(ast.parse(source, filename=filename))))


def test_the_interpolation_reference_stays_in_factorization():
    # the interpolation search is the tests' reference for the modular
    # route, so no other module reaches into it; it finds linear factors
    # itself, so rational roots have no route of their own
    found = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _reference_names(path.read_text(), path.name)
    ]
    assert not found, f"names of the interpolation reference outside it: {found}"


def test_the_reference_lint_recognises_an_import():
    imported = "from kronecker.factorization import _search_factor as search\n"
    assert _reference_names(imported, "residues.py") == ["_search_factor"]
    assert _reference_names(imported, "factorization.py") == []
    called = "from kronecker import factorization\nfactorization._factor_squarefree_interpolation(f)\n"
    assert _reference_names(called, "galois.py") == ["_factor_squarefree_interpolation"]
    defined = "def _extract_integer_roots(f):\n    return [], f\n"
    assert _reference_names(defined, "factorization.py") == ["_extract_integer_roots"]
