"""Outside-in layer trace of latpath, recorded from the benchmark's files.

``Tracer.install`` replaces selected public functions of each latpath
module with timing wrappers at every binding a caller resolves: the
defining module, every latpath module that imported the function by name
(``gf``/``cli`` import ``div``, ``sqrt``, ``class_gf``, ...; ``bijection``
imports ``class_gf``), the package namespace, and class attributes such as
the separate ``Series.__rmul__`` alias of ``__mul__``.  Each call records a
span under its parent span; self time is a span's time minus its child
spans' time.  Spans are aggregated in memory per name and per
(parent, child) edge, not stored one by one, so a traced run stays small.

Only entry points are wrapped.  Per-path helpers in the oracle's inner
loop (``paths.profile``, ``pattern_height``) and the cheap linear Series
operations (add, negate, compare) stay unwrapped; their time counts as
the self time of the layer that called them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("cli", "enumerate", "gf", "series", "bijection", "paths")

# The functions whose metrics are reported, plus those whose time would
# otherwise count in another layer: cli.main holds argument parsing and
# output, enumerate.is_member is called from bijection, gf.moebius_step
# from cli.
TARGETS = {
    "cli": ("main", "cmd_verify", "build_table", "verify_table_cells"),
    "enumerate": ("precompute_base", "base_series", "count_class", "member_paths", "is_member"),
    "gf": (
        "class_gf", "system_for", "iterate_system", "moebius_coeffs", "solve_quadratic",
        "residual", "moebius_step", "dyck_closed_form", "skew_closed_form",
    ),
    "series": ("Series.__mul__", "div", "sqrt", "moebius"),
    "bijection": ("phi", "verify_reversed_complement_symmetry"),
    "paths": ("validate",),
}

SPAN_NAMES = {"Series.__mul__": "mul", "verify_reversed_complement_symmetry": "symmetry"}


def _triangle(order: int) -> int:
    # Coefficient multiply-adds of a truncated product at this order, and
    # of a quotient with this many output coefficients: 1 + 2 + ... + (n+1).
    return (order + 1) * (order + 2) // 2


# Work counts computed from the call: the returned series' order is the
# operands' common order (mul) or that minus the divisor's valuation (div).
WORK = {
    "series.mul": lambda args, result: _triangle(result.order) if hasattr(result, "order") else 0,
    "series.div": lambda args, result: _triangle(result.order),
    "gf.iterate_system": lambda args, result: len(result.per_level) - (args[0].r + 1),
}

# Per-layer metrics and their units, in reporting order.
PER_LAYER = {
    "cli.build_table.s": "s",
    "cli.verify_table_cells.s": "s",
    "cli.cmd_verify.s": "s",
    "cli.self.s": "s",
    "enumerate.precompute_base.s": "s",
    "enumerate.precompute_base.calls": "count",
    "enumerate.base_series.calls": "count",
    "enumerate.count_class.s": "s",
    "enumerate.count_class.calls": "count",
    "enumerate.member_paths.s": "s",
    "enumerate.paths_covered": "count",
    "enumerate.paths_per_s": "1/s",
    "gf.class_gf.self_s": "s",
    "gf.class_gf.calls": "count",
    "gf.system_for.self_s": "s",
    "gf.iterate_system.s": "s",
    "gf.levels_iterated": "count",
    "gf.moebius_coeffs.s": "s",
    "gf.solve_quadratic.s": "s",
    "gf.closed_form.s": "s",
    "gf.residual.s": "s",
    "series.mul.calls": "count",
    "series.mul.s": "s",
    "series.mul.coeff_ops": "count",
    "series.div.calls": "count",
    "series.div.s": "s",
    "series.div.coeff_ops": "count",
    "series.sqrt.calls": "count",
    "series.sqrt.s": "s",
    "bijection.symmetry.self_s": "s",
    "bijection.phi.calls": "count",
    "bijection.phi.s": "s",
    "paths.validate.calls": "count",
    "paths.validate.s": "s",
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


class SpanStats:
    """Aggregate of every span with one name."""

    __slots__ = ("calls", "total_s", "self_s", "work", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0  # outermost activations only, so recursion is not double counted
        self.self_s = 0.0
        self.work = 0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[tuple, list] = {}
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name] = SpanStats()
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if not stat.depth:
                    stat.total_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
                edge = edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
            if work is not None:
                stat.work += work(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every binding in the loaded latpath modules."""
        modules = {layer: importlib.import_module(f"latpath.{layer}") for layer in TARGETS}
        holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "latpath"]
        for layer, names in TARGETS.items():
            for qualname in names:
                owner, _, attr = qualname.rpartition(".")
                where = getattr(modules[layer], owner) if owner else modules[layer]
                original = vars(where)[attr]
                wrapper = self._wrap(f"{layer}.{SPAN_NAMES.get(qualname, qualname)}", original)
                for holder in holders + ([where] if owner else []):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for name, s in self.stats.items() if name.startswith(layer + "."))

    def metrics(self, wall_s: float, paths_covered: int) -> dict:
        """Per-layer metrics of one traced job list (all but the overhead,
        which needs the untraced twin)."""
        st = self.stats
        enum_s = self.layer_self_s("enumerate")
        out = {
            "cli.build_table.s": st["cli.build_table"].total_s,
            "cli.verify_table_cells.s": st["cli.verify_table_cells"].total_s,
            "cli.cmd_verify.s": st["cli.cmd_verify"].total_s,
            "cli.self.s": self.layer_self_s("cli"),
            "enumerate.precompute_base.s": st["enumerate.precompute_base"].total_s,
            "enumerate.precompute_base.calls": st["enumerate.precompute_base"].calls,
            "enumerate.base_series.calls": st["enumerate.base_series"].calls,
            "enumerate.count_class.s": st["enumerate.count_class"].total_s,
            "enumerate.count_class.calls": st["enumerate.count_class"].calls,
            "enumerate.member_paths.s": st["enumerate.member_paths"].total_s,
            "enumerate.paths_covered": paths_covered,
            "enumerate.paths_per_s": paths_covered / enum_s if enum_s else 0.0,
            "gf.class_gf.self_s": st["gf.class_gf"].self_s,
            "gf.class_gf.calls": st["gf.class_gf"].calls,
            "gf.system_for.self_s": st["gf.system_for"].self_s,
            "gf.iterate_system.s": st["gf.iterate_system"].total_s,
            "gf.levels_iterated": st["gf.iterate_system"].work,
            "gf.moebius_coeffs.s": st["gf.moebius_coeffs"].total_s,
            "gf.solve_quadratic.s": st["gf.solve_quadratic"].total_s,
            "gf.closed_form.s": st["gf.dyck_closed_form"].total_s + st["gf.skew_closed_form"].total_s,
            "gf.residual.s": st["gf.residual"].total_s,
            "series.mul.calls": st["series.mul"].calls,
            "series.mul.s": st["series.mul"].total_s,
            "series.mul.coeff_ops": st["series.mul"].work,
            "series.div.calls": st["series.div"].calls,
            "series.div.s": st["series.div"].total_s,
            "series.div.coeff_ops": st["series.div"].work,
            "series.sqrt.calls": st["series.sqrt"].calls,
            "series.sqrt.s": st["series.sqrt"].total_s,
            "bijection.symmetry.self_s": st["bijection.symmetry"].self_s,
            "bijection.phi.calls": st["bijection.phi"].calls,
            "bijection.phi.s": st["bijection.phi"].total_s,
            "paths.validate.calls": st["paths.validate"].calls,
            "paths.validate.s": st["paths.validate"].total_s,
        }
        for layer in LAYERS:
            out[f"{layer}.share"] = self.layer_self_s(layer) / wall_s
        return out

    def edge_table(self) -> list:
        """[parent, child, calls, seconds] for every caller/callee pair seen."""
        return [[p, c, n, s] for (p, c), (n, s) in sorted(self.edges.items())]
