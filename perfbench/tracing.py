"""Per-layer spans recorded from outside the package.

The tracer replaces each layer-boundary function of ``bidcoord`` with a
wrapper that times the call and derives work counts from its arguments
and result.  A function is rebound in every ``bidcoord`` module that
holds it by name (``lp_solve`` in ``limited``, ``expected_outcome`` in
``arbitrary``, ``limited`` and ``cli``, ...), since rebinding only the
defining module would miss calls made through the other names.

Spans are aggregated per (instance, layer) as they close, not stored
one by one: the witness scan alone opens 10^5 ``expected_outcome``
spans per instance.  A layer's self time is its span time minus the
time of the traced spans it directly encloses.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count_table_cells(counts, args, kwargs, result, tracer):
    grid_levels, weights, instance = args[:3]
    external_levels = args[3] if len(args) > 3 else kwargs.get("external_levels")
    d = len(set(grid_levels))
    n = instance.n_colluders
    k = 1 if external_levels is not None else len(instance.external.support)
    counts["wup.table_cells"] += k * (n - 1) * d * (d + 1) // 2 + k * d


def _count_dp_cells(counts, args, kwargs, result, tracer):
    graph = args[0]
    d = len(graph.levels)
    n = len(graph.order)
    counts["wup.dp_cells"] += (n - 1) * d * (d + 1) // 2 + d


def _count_support_evals(counts, args, kwargs, result, tracer):
    counts["mechanisms.support_evals"] += len(args[0].external.support)
    if tracer.active["arbitrary.check_assumption1"]:
        counts["arbitrary.witness_profiles"] += 1


def _count_lp_cells(counts, args, kwargs, result, tracer):
    objective, rows = args[:2]
    counts["simplex.lp_cells"] += len(rows) * len(objective)


def _count_levels(counts, args, kwargs, result, tracer):
    counts["discretize.levels"] += len(result[1].levels)


def _count_witness(counts, args, kwargs, result, tracer):
    counts["arbitrary.witness_found"] += int(result.satisfied)


#: (defining module, function, span name, work counter).  These are the
#: layer boundaries of a solve.  Helpers that run inside one layer, such
#: as ``single_outcome`` per support entry or ``make_profile`` per
#: enumerated profile, stay unwrapped: they run millions of times per
#: pass and a span each would cost more than the work it times.
LAYERS = (
    ("bidcoord.cli", "cmd_solve", "cli.solve", None),
    ("bidcoord.core", "validate_and_normalize", "core.validate", None),
    ("bidcoord.discretize", "build_grid", "discretize.build_grid", _count_levels),
    ("bidcoord.wup", "solve_wup_expected", "wup.solve_wup_expected", None),
    ("bidcoord.wup", "build_wup_graph", "wup.build_graph", _count_table_cells),
    ("bidcoord.wup", "solve_graph", "wup.solve_graph", _count_dp_cells),
    ("bidcoord.mechanisms", "expected_outcome", "mechanisms.expected_outcome", _count_support_evals),
    ("bidcoord.mechanisms", "individual_baseline", "mechanisms.individual_baseline", None),
    ("bidcoord.simplex", "lp_solve", "simplex.lp_solve", _count_lp_cells),
    ("bidcoord.arbitrary", "solve_arbitrary", "arbitrary.solve_arbitrary", None),
    ("bidcoord.arbitrary", "check_assumption1", "arbitrary.check_assumption1", _count_witness),
    ("bidcoord.limited", "solve_ll", "limited.solve_ll", None),
    ("bidcoord.limited", "solve_ll_cg", "limited.solve_ll_cg", None),
    ("bidcoord.limited", "solve_master", "limited.solve_master", None),
    ("bidcoord.limited", "pricing", "limited.pricing", None),
    ("bidcoord.limited", "make_column", "limited.make_column", None),
    ("bidcoord.limited", "extract_solution", "limited.extract_solution", None),
)


class Tracer:
    """Collects per-instance span aggregates while installed."""

    def __init__(self):
        self.active = Counter()  # open spans per name
        self._stack = []  # per open span: [time of the spans it directly encloses]
        self._saved = []  # (module, attribute, original function)
        self.instance = None
        # instance -> name -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.counts = defaultdict(Counter)  # instance -> counter name -> count
        self.root_seconds = 0.0

    def _wrap(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            tracer.active[name] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                tracer.active[name] -= 1
                agg = tracer.spans[tracer.instance][name]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                else:
                    tracer.root_seconds += elapsed
            if count is not None:
                count(tracer.counts[tracer.instance], args, kwargs, result, tracer)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bidcoord" or n.startswith("bidcoord.")]
        for module_name, attr, name, count in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()
