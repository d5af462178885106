"""Layer spans recorded around the public functions of steengraph, from outside the package.

`Tracer.install()` replaces each listed function by a timing wrapper in its
home module and at every place another steengraph module imported it, so
calls made inside the package are traced too.  The source under src/ is not
touched.  Spans are aggregated in memory as they close: per layer, a call
count and a self time (span duration minus the time of its child spans).
A call into a layer made from inside the same layer joins the open span, so
`_calls` counts entries into the layer, not its internal recursion.
"""

import dataclasses
import functools
import itertools
import sys
import time

# layer name -> (module, function) pairs; the modules are steengraph.<module>
LAYERS = {
    "algebra.decode": [("algebra", "monomial_from_index")],
    "algebra.product": [("algebra", "monomial_product")],
    "algebra.parse": [("algebra", "parse_monomial")],
    "graphs.to_graph": [("graphs", "to_graph")],
    "graphs.adjacency": [("graphs", "adjacency_matrix")],
    "connectivity.kernel": [
        ("connectivity", name)
        for name in ("connection_numbers", "unilateral_numbers", "is_connected", "is_unilateral")
    ],
    "connectivity.oracle": [
        ("connectivity", "oracle_is_connected"),
        ("connectivity", "oracle_is_unilateral"),
    ],
    "structure.criteria": [
        ("structure", name)
        for name in (
            "degrees",
            "degree_table",
            "is_tree",
            "paper_hamilton_condition",
            "dirac_condition",
            "has_hamilton_directed_path",
        )
    ],
    "structure.oracle": [
        ("structure", name)
        for name in ("oracle_is_tree", "oracle_is_acyclic", "oracle_hamilton_directed_path")
    ],
    "structure.hamilton": [("structure", "oracle_hamilton_cycle")],
    "hopf.coproduct": [("hopf", "coproduct"), ("hopf", "coproduct_generator")],
    "hopf.antipode": [("hopf", "antipode"), ("hopf", "antipode_generator")],
    "hopf.axioms": [
        ("hopf", name)
        for name in (
            "counit_laws_hold",
            "coassociativity_holds",
            "antipode_identity_holds",
            "verify_antipode_recursion",
        )
    ],
    "hopf.divisibility": [("hopf", "unilateral_via_antipode")],
    "hopf.ideal": [("hopf", "verify_hopf_ideal"), ("hopf", "hopf_ideal_violations")],
    "verify.self": [("verify", "run_check")],
    "cli.report": [("cli", "build_report")],
    "cli.render": [("cli", "render_analysis_text"), ("cli", "render_verify_text")],
}

# layers whose call count is reported next to their self time
COUNTED = (
    "algebra.decode",
    "algebra.product",
    "graphs.to_graph",
    "graphs.adjacency",
    "connectivity.kernel",
    "connectivity.oracle",
    "structure.criteria",
    "structure.hamilton",
    "hopf.coproduct",
    "hopf.antipode",
)


def _steengraph_modules() -> list:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "steengraph"]


def _replace_everywhere(original, replacement):
    for module in _steengraph_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Aggregated spans of one process; create it, install it, read metrics() at the end."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._stack = []  # open spans as [layer, seconds covered by child spans]
        self._survived = itertools.count()
        self._monomials = itertools.count()

    def span(self, layer: str, fn):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def install(self):
        """Patch every listed function, the check runners and Monomial construction."""
        import steengraph.cli  # noqa: F401  (loads every module that imports a traced name)
        from steengraph import algebra, verify

        for layer, names in LAYERS.items():
            for module, name in names:
                original = getattr(sys.modules[f"steengraph.{module}"], name)
                fn = self._count_survivors(original) if layer == "algebra.product" else original
                _replace_everywhere(original, self.span(layer, fn))

        for name, spec in list(verify.CHECKS.items()):
            layer = f"verify.{name}"
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
            field = "whole_runner" if spec.whole_runner is not None else "range_runner"
            runner = self.span(layer, getattr(spec, field))
            verify.CHECKS[name] = dataclasses.replace(spec, **{field: runner})

        init, monomials = algebra.Monomial.__init__, self._monomials

        def counted_init(monomial, level, exponents):
            next(monomials)
            init(monomial, level, exponents)

        algebra.Monomial.__init__ = counted_init

    def _count_survivors(self, product):
        survived = self._survived

        def monomial_product(x, y):
            z = product(x, y)
            if z is not None:
                next(survived)
            return z

        return monomial_product

    def metrics(self) -> dict:
        """Per-layer values keyed by metric name; call once, when the traced work is done."""
        out = {f"{layer}_s": seconds for layer, seconds in self.self_s.items()}
        out.update({f"{layer}_calls": self.calls[layer] for layer in COUNTED})
        products = self.calls["algebra.product"]
        survived = next(self._survived)
        out["algebra.product_survive_ratio"] = survived / products if products else 0.0
        out["algebra.monomial_new_calls"] = next(self._monomials)
        return out
