"""Per-layer spans, taken from outside the program.

Each layer is a module-level function or method of ``kronecker``. While a
``Tracer`` is installed, every binding of that function where callers look
it up is replaced by a wrapper that counts calls and records the span's
self time: its duration minus the wrapped child spans it contains.
``from ... import`` copies a function into the importing module, so the
tracer patches every ``kronecker`` module attribute that is the same object
(the compiled/pure kernel modules excepted: callers reach the term kernel
through ``polyring``). ``uninstall`` puts every original attribute back.
"""

import functools
import sys
import time


def _term_pairs(args, result):
    return len(args[0]) * len(args[1])


def _is_none(args, result):
    return result is None


def _is_hit(args, result):
    return result is not None


def _rows_cubed(args, result):
    return len(args[0]) ** 3


def _mat_mul_size(args, result):
    a, b = args
    return len(a) * len(b) * (len(b[0]) if b else 0)


# (layer name, module, attribute path, extra metric, extra counter, extra kind)
# An extra of kind "sum" is reported as its total, of kind "ratio" as its
# total divided by the layer's calls.
LAYERS = (
    ("kernel.mul_terms", "kronecker.polyring", "mul_terms", "term_pairs", _term_pairs, "sum"),
    ("kernel.add_scaled_terms", "kronecker.polyring", "add_scaled_terms", None, None, None),
    ("polyring.gcd", "kronecker.polyring", "gcd", None, None, None),
    ("polyring.MultiPoly.div_exact", "kronecker.polyring", "MultiPoly.div_exact", "none_ratio", _is_none, "ratio"),
    ("polyring.poly_matrix_det", "kronecker.polyring", "poly_matrix_det", "dim_cubed", _rows_cubed, "sum"),
    ("polyring.resultant", "kronecker.polyring", "resultant", None, None, None),
    ("polyring.UniPoly.divmod", "kronecker.polyring", "UniPoly.divmod", None, None, None),
    ("polyring.parse_poly", "kronecker.polyring", "parse_poly", None, None, None),
    ("cli.main", "kronecker.cli", "main", None, None, None),
    ("factorization.search", "kronecker.factorization", "_search_factor", "hit_ratio", _is_hit, "ratio"),
    ("factorization.factor_multivariate", "kronecker.factorization", "factor_multivariate", None, None, None),
    ("factorization.factor_mod_p", "kronecker.factorization", "factor_mod_p", None, None, None),
    ("elimination.decompose_variety", "kronecker.elimination", "decompose_variety", None, None, None),
    ("linalg.charpoly", "kronecker.linalg", "charpoly", None, None, None),
    ("linalg.mat_mul", "kronecker.linalg", "mat_mul", "dim_cubed", _mat_mul_size, "sum"),
    ("galois.resolvent", "kronecker.galois", "resolvent_total_symmetric", None, None, None),
    ("galois.numeric_roots", "kronecker.galois", "_numeric_roots", None, None, None),
    ("galois.subgroups", "kronecker.galois", "_transitive_subgroups", None, None, None),
    ("divisors.divides", "kronecker.divisors", "divides", None, None, None),
    ("divisors.criterion2", "kronecker.divisors", "_char_equation_criterion", None, None, None),
    ("numberfield.is_integral", "kronecker.numberfield", "is_integral", None, None, None),
    ("classgroup.principal_generator", "kronecker.classgroup", "principal_generator", "hit_ratio", _is_hit, "ratio"),
    ("residues.euler_trace", "kronecker.residues", "euler_trace", None, None, None),
    ("residues.interpolate_zero_dim", "kronecker.residues", "interpolate_zero_dim", None, None, None),
)

# Coordinate attempts: every attempt of decompose_variety draws one matrix.
ATTEMPT_COUNTER = ("kronecker.elimination", "_draw_matrix")
ATTEMPTS_METRIC = "elimination.decompose_variety.attempts_per_call"


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name, _, _, extra, _, kind in LAYERS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        if extra:
            out[f"{name}.{extra}"] = "count" if kind == "sum" else "ratio"
    out[ATTEMPTS_METRIC] = "ratio"
    out["trace_overhead"] = "ratio"
    return out


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(module_name, path):
    """(owner, attribute) pairs that hold the layer's function."""
    owner, attr = _resolve(module_name, path)
    original = owner.__dict__[attr]
    if owner is not sys.modules[module_name]:
        return original, [(owner, attr)]  # a method: callers look it up on the class
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith("kronecker") or mod_name.startswith("kronecker._kernel"):
            continue
        for key, value in vars(mod).items():
            if value is original:
                found.append((mod, key))
    return original, found


class Tracer:
    """Install with ``install()``, read ``report()``, always ``uninstall()``."""

    def __init__(self):
        self.records = {name: [0, 0.0, 0] for name, *_ in LAYERS}  # calls, self_s, extra
        self.attempts = 0
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, extra):
        rec = self.records[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                rec[0] += 1
                rec[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if extra is not None:
                rec[2] += extra(args, result)
            return result

        return wrapper

    def _count_attempt(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.attempts += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, original, bindings, replacement):
        for owner, attr in bindings:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def install(self):
        try:
            for name, module_name, path, _, extra, _ in LAYERS:
                original, bindings = _bindings(module_name, path)
                self._patch(original, bindings, self._wrap(name, original, extra))
            original, bindings = _bindings(*ATTEMPT_COUNTER)
            self._patch(original, bindings, self._count_attempt(original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_time_sum(self):
        return sum(rec[1] for rec in self.records.values())

    def report(self):
        """Per-layer metric values, without ``trace_overhead``."""
        out = {}
        for name, _, _, extra, _, kind in LAYERS:
            calls, self_s, total = self.records[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if extra:
                out[f"{name}.{extra}"] = total if kind == "sum" else (total / calls if calls else 0.0)
        calls = self.records["elimination.decompose_variety"][0]
        out[ATTEMPTS_METRIC] = self.attempts / calls if calls else 0.0
        return out
