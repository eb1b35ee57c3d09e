"""Span tracing around jetvar's public functions, from outside the package.

``install`` replaces each traced function in every ``jetvar`` module
namespace that binds it (so ``bv.euler_lagrange_system`` and
``theory.euler_lagrange_system`` both record), and wraps ``Expression``'s
``__add__``/``__radd__``, ``__mul__`` and ``from_terms`` on the class.  Each
call made while a request is open records one span: name, start, end, parent
span, request id, and two work counts (``n_in``, ``n_out``).  Spans stay in
memory in flat arrays, are written out with ``dump`` when a run ends, and
``Aggregate`` turns them into the per-layer metrics, self time included.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (span name, module, attribute) of the public functions on the workloads'
# request paths; the layer is the part before the first dot
FUNCTIONS = (
    ("cli.dispatch", "jetvar.cli", "cli_dispatch"),
    ("parser.parse_model", "jetvar.parser", "parse_model"),
    ("parser.parse_expression", "jetvar.parser", "parse_expression"),
    ("parser.parse_assignments", "jetvar.parser", "parse_assignments"),
    ("printer.format_expression", "jetvar.printer", "format_expression"),
    ("bv.extend_to_bv", "jetvar.bv", "extend_to_bv"),
    ("bv.check_master_equation", "jetvar.bv", "check_master_equation"),
    ("bv.antibracket_density", "jetvar.bv", "antibracket_density"),
    ("bv.antibracket", "jetvar.bv", "antibracket"),
    ("bv.koszul_tate_apply", "jetvar.bv", "koszul_tate_apply"),
    ("bv.brst_apply", "jetvar.bv", "brst_apply"),
    ("theory.euler_lagrange_system", "jetvar.theory", "euler_lagrange_system"),
    ("theory.noether_residual", "jetvar.theory", "noether_residual"),
    ("theory.on_shell_reduce", "jetvar.theory", "on_shell_reduce"),
    ("theory.evaluate_density", "jetvar.theory", "evaluate_density"),
    ("theory.integrate_box_polynomial", "jetvar.theory", "integrate_box_polynomial"),
    ("theory.integrate_on_box_expression", "jetvar.theory", "integrate_on_box_expression"),
    ("theory.integrate_on_box", "jetvar.theory", "integrate_on_box"),
    ("jetcalc.total_derivative", "jetvar.jetcalc", "total_derivative"),
    ("jetcalc.apply_multi_derivative", "jetvar.jetcalc", "apply_multi_derivative"),
    ("jetcalc.variational_derivative", "jetvar.jetcalc", "variational_derivative"),
    ("jetcalc.prolong_apply", "jetvar.jetcalc", "prolong_apply"),
    ("jetcalc.is_total_divergence", "jetvar.jetcalc", "is_total_divergence"),
    ("jetcalc.divergence_witness", "jetvar.jetcalc", "divergence_witness"),
    ("core.partial_derivative", "jetvar.core", "partial_derivative"),
    ("core.substitute", "jetvar.core", "substitute"),
)

LAYERS = ("cli", "parser", "printer", "bv", "theory", "jetcalc", "core")


def terms(value) -> int:
    """Work size of a value: terms of expressions, characters of text."""
    if isinstance(value, str):
        return len(value)
    if isinstance(value, dict):
        return sum(terms(v) for v in value.values())
    inner = getattr(value, "terms", None)
    if isinstance(inner, tuple):
        return len(inner)
    for attr in ("expr", "residual", "master_action", "lagrangian"):
        if hasattr(value, attr):
            return terms(getattr(value, attr))
    return 0


def _generic_size(args, result):
    return sum(terms(a) for a in args if hasattr(a, "terms")), terms(result)


def _add_size(args, result):
    # n_in: terms of the right operand, so n_in / n_out is the new-term ratio
    other = args[1]
    return (len(other.terms) if hasattr(other, "terms") else int(other != 0)), len(result.terms)


def _mul_size(args, result):
    # n_in: monomial products attempted, so n_out / n_in is the kept ratio
    left, right = args
    width = len(right.terms) if hasattr(right, "terms") else 1
    return len(left.terms) * width, len(result.terms)


def _bool_size(args, result):
    return sum(terms(a) for a in args if hasattr(a, "terms")), int(bool(result))


_SIZERS = {
    "core.add": _add_size,
    "core.mul": _mul_size,
    "cli.dispatch": lambda args, result: (0, result),
    "jetcalc.is_total_divergence": _bool_size,
}


class Tracer:
    """Flat in-memory span store; spans record only while ``request >= 0``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._open_count = []
        self._stack = []
        self.request = -1
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.n_in = array("q")
        self.n_out = array("q")

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_count.append(0)
        return nid

    def __len__(self):
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        size = _SIZERS.get(name, _generic_size)
        stack = self._stack
        open_count = self._open_count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.req.append(self.request)
            self.nested.append(1 if open_count[nid] else 0)
            self.end.append(0.0)
            self.n_in.append(0)
            self.n_out.append(0)
            open_count[nid] += 1
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                open_count[nid] -= 1
            self.n_in[idx], self.n_out[idx] = size(args, result)
            return result

        return traced

    def dump(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self)}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in self._arrays():
                arr.tofile(handle)

    @classmethod
    def load(cls, path) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            for name in header["names"]:
                tracer.intern(name)
            for arr in tracer._arrays():
                arr.fromfile(handle, header["count"])
        return tracer

    def _arrays(self):
        return (self.name, self.parent, self.req, self.nested,
                self.start, self.end, self.n_in, self.n_out)


class Patches:
    """The wrapper assignments of one tracer, switched on and off as a whole."""

    def __init__(self):
        self.items = []

    def on(self):
        for owner, key, _, wrapper in self.items:
            setattr(owner, key, wrapper)

    def off(self):
        for owner, key, original, _ in self.items:
            setattr(owner, key, original)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced function in each jetvar namespace that binds it.

    The wrappers are switched on before returning; ``Patches.off`` restores
    the original functions.
    """
    import jetvar  # noqa: F401  (loads every submodule the package exports)
    import jetvar.cli  # noqa: F401
    from jetvar.core import Expression

    patches = Patches()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "jetvar" or name.startswith("jetvar."))]
    for span_name, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original)
        for module in modules:
            for key, value in vars(module).items():
                if value is original:
                    patches.items.append((module, key, original, wrapper))
    methods = vars(Expression)
    add = tracer.wrap("core.add", methods["__add__"])
    patches.items += [
        (Expression, "__add__", methods["__add__"], add),
        (Expression, "__radd__", methods["__radd__"], add),
        (Expression, "__mul__", methods["__mul__"], tracer.wrap("core.mul", methods["__mul__"])),
        (Expression, "from_terms", methods["from_terms"],
         staticmethod(tracer.wrap("core.from_terms", Expression.from_terms))),
    ]
    patches.on()
    return patches


class Aggregate:
    """Per-function and per-layer totals over any number of span stores.

    ``seconds`` sums only the outermost calls of a function, so a function
    reached again below itself is not counted twice; a span's self time is
    its duration minus that of its direct children.
    """

    def __init__(self):
        self.calls = {}
        self.seconds = {}
        self.n_in = {}
        self.n_out = {}
        self.zero_out = {}
        self.child_calls = {}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.spans = 0

    def add(self, tracer: Tracer):
        count = len(tracer)
        names = tracer.names
        layer_of = [name.split(".", 1)[0] for name in names]
        name, parent = tracer.name, tracer.parent
        dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        child = [0.0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                pair = (names[name[p]], names[name[i]])
                self.child_calls[pair] = self.child_calls.get(pair, 0) + 1
        for i in range(count):
            key = names[name[i]]
            self.calls[key] = self.calls.get(key, 0) + 1
            if not tracer.nested[i]:
                self.seconds[key] = self.seconds.get(key, 0.0) + dur[i]
            self.n_in[key] = self.n_in.get(key, 0) + tracer.n_in[i]
            out = tracer.n_out[i]
            self.n_out[key] = self.n_out.get(key, 0) + out
            if out == 0:
                self.zero_out[key] = self.zero_out.get(key, 0) + 1
            self.layer_self[layer_of[name[i]]] += dur[i] - child[i]
        self.spans += count


# (metric, unit, better); every metric of the traced run, in report order
PER_LAYER = (
    ("cli.dispatch.calls", "count", "lower"),
    ("cli.dispatch.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("parser.parse_model.calls", "count", "lower"),
    ("parser.parse_model.s", "s", "lower"),
    ("parser.self_s", "s", "lower"),
    ("parser.parse_expression.calls", "count", "lower"),
    ("parser.parse_expression.s", "s", "lower"),
    ("printer.format_expression.calls", "count", "lower"),
    ("printer.format_expression.s", "s", "lower"),
    ("printer.chars_out", "chars", "lower"),
    ("bv.extend_to_bv.s", "s", "lower"),
    ("bv.check_master_equation.s", "s", "lower"),
    ("bv.antibracket_density.calls", "count", "lower"),
    ("bv.antibracket_density.s", "s", "lower"),
    ("bv.koszul_tate_apply.s", "s", "lower"),
    ("bv.brst_apply.s", "s", "lower"),
    ("bv.self_s", "s", "lower"),
    ("bv.master_residual_terms", "terms", "lower"),
    ("theory.euler_lagrange_system.calls", "count", "lower"),
    ("theory.euler_lagrange_system.s", "s", "lower"),
    ("theory.noether_residual.s", "s", "lower"),
    ("theory.on_shell_reduce.calls", "count", "lower"),
    ("theory.on_shell_reduce.s", "s", "lower"),
    ("theory.on_shell_reduce.substitutions", "count", "lower"),
    ("theory.evaluate_density.s", "s", "lower"),
    ("theory.integrate_box_polynomial.s", "s", "lower"),
    ("theory.self_s", "s", "lower"),
    ("jetcalc.total_derivative.calls", "count", "lower"),
    ("jetcalc.total_derivative.s", "s", "lower"),
    ("jetcalc.variational_derivative.calls", "count", "lower"),
    ("jetcalc.variational_derivative.s", "s", "lower"),
    ("jetcalc.variational_derivative.zero_ratio", "ratio", "lower"),
    ("jetcalc.apply_multi_derivative.s", "s", "lower"),
    ("jetcalc.is_total_divergence.s", "s", "lower"),
    ("jetcalc.divergence_witness.s", "s", "lower"),
    ("jetcalc.prolong_apply.s", "s", "lower"),
    ("jetcalc.self_s", "s", "lower"),
    ("core.add.calls", "count", "lower"),
    ("core.add.s", "s", "lower"),
    ("core.add.new_term_ratio", "ratio", "higher"),
    ("core.mul.calls", "count", "lower"),
    ("core.mul.s", "s", "lower"),
    ("core.mul.kept_ratio", "ratio", "higher"),
    ("core.from_terms.calls", "count", "lower"),
    ("core.from_terms.s", "s", "lower"),
    ("core.partial_derivative.calls", "count", "lower"),
    ("core.partial_derivative.s", "s", "lower"),
    ("core.substitute.calls", "count", "lower"),
    ("core.substitute.s", "s", "lower"),
    ("core.terms_out", "terms", "lower"),
    ("core.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_throughput_rps", "1/s", "higher"),
    ("trace.traced_throughput_rps", "1/s", "higher"),
    ("trace.overhead_rps", "1/s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_values(agg: Aggregate, startup_s: float, untraced_rps: float,
                     traced_rps: float) -> dict:
    """Every PER_LAYER metric from an aggregate and the traced run's timings."""
    derived = {
        "cli.startup_s": startup_s,
        "printer.chars_out": agg.n_out.get("printer.format_expression", 0),
        "bv.master_residual_terms": agg.n_out.get("bv.check_master_equation", 0),
        "theory.on_shell_reduce.substitutions":
            agg.child_calls.get(("theory.on_shell_reduce", "core.substitute"), 0),
        "jetcalc.variational_derivative.zero_ratio": _ratio(
            agg.zero_out.get("jetcalc.variational_derivative", 0),
            agg.calls.get("jetcalc.variational_derivative", 0)),
        "core.add.new_term_ratio": _ratio(agg.n_in.get("core.add", 0), agg.n_out.get("core.add", 0)),
        "core.mul.kept_ratio": _ratio(agg.n_out.get("core.mul", 0), agg.n_in.get("core.mul", 0)),
        "core.terms_out": sum(v for k, v in agg.n_out.items() if k.startswith("core.")),
        "trace.spans": agg.spans,
        "trace.untraced_throughput_rps": untraced_rps,
        "trace.traced_throughput_rps": traced_rps,
        "trace.overhead_rps": untraced_rps - traced_rps,
        "trace.overhead_share": _ratio(untraced_rps - traced_rps, untraced_rps),
    }
    out = {}
    for metric, unit, _ in PER_LAYER:
        if metric in derived:
            value = derived[metric]
        elif metric.endswith(".self_s"):
            value = agg.layer_self[metric[: -len(".self_s")]]
        elif metric.endswith(".calls"):
            value = agg.calls.get(metric[: -len(".calls")], 0)
        else:
            value = agg.seconds.get(metric[: -len(".s")], 0.0)
        out[metric] = {"value": value, "unit": unit}
    return out
