"""Spans around pred's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function in every ``pred`` module
namespace that holds it (and the two routing methods on the graph class)
with a wrapper that records ``(name, start_ns, end_ns, parent, instance)``.
Symbolic algebra is traced only where ``pred.graph`` calls it, so its cost
shows as a child of ``graph.find_path`` and ``graph.make_path`` rather than
as a span per recursive call.  Spans stay in memory until ``write``.

Counters that need to look at arguments or results (route hops, ILP size,
fold configurations, dispatch) run in observers whose own time is taken off
the span clock, so they do not inflate any layer's time.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import check

LAYERS = ("cli", "graph", "symbolic", "rules", "problems", "solvers", "model")

# (module, attribute, span name); patched wherever the same object is bound
TRACED = (
    ("pred.cli", "main", "cli.main"),
    ("pred.cli", "envelope_to_document", "cli.envelope_to_document"),
    ("pred.cli", "envelope_from_document", "cli.envelope_from_document"),
    ("pred.graph", "reduce_along", "graph.reduce_along"),
    ("pred.graph", "extract_along", "graph.extract_along"),
    ("pred.rules", "apply", "rules.apply"),
    ("pred.rules", "extract_solution", "rules.extract_solution"),
    ("pred.problems", "instance_from_document", "problems.from_document"),
    ("pred.problems", "instance_to_document", "problems.to_document"),
    ("pred.solvers", "solve", "solvers.solve"),
    ("pred.solvers", "solve_ilp", "solvers.solve_ilp"),
    ("pred.solvers", "solve_brute", "solvers.solve_brute"),
    ("pred.model", "fold_space", "model.fold_space"),
    ("pred.model", "evaluate", "model.evaluate"),
)
METHODS = (("find_path", "graph.find_path"), ("make_path", "graph.make_path"))
SYMBOLIC_IN_GRAPH = ("compose", "canonical", "subst", "compare", "vars_of")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.instance: str | None = None
        self._stack: list[int] = []
        self.observer_ns = 0  # time spent in observers, kept off the span clock
        self._restore: list = []

    # --- clock and spans ---------------------------------------------------

    def now(self) -> int:
        return time.perf_counter_ns() - self.observer_ns

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, name: str, start: int, parent: int) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, self.now(), parent, self.instance)

    @contextmanager
    def span(self, name: str):
        index, parent = self._open()
        start = self.now()
        try:
            yield
        finally:
            self._close(index, name, start, parent)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _observe(self, observer, *args) -> None:
        began = time.perf_counter_ns()
        observer(self, *args)
        self.observer_ns += time.perf_counter_ns() - began

    def wrap(self, name: str, fn):
        observer = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index, parent = self._open()
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index, name, start, parent)
                if observer is not None:
                    self._observe(observer, args, None, exc)
                raise
            self._close(index, name, start, parent)
            if observer is not None:
                self._observe(observer, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "pred" or n.startswith("pred.")]
        for module_name, attr, span_name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        graph_module = sys.modules["pred.graph"]
        for attr in SYMBOLIC_IN_GRAPH:
            self._set(graph_module, attr, self.wrap(f"symbolic.{attr}", getattr(graph_module, attr)))
        cls = graph_module.ReductionGraph
        for attr, span_name in METHODS:
            self._set(cls, attr, self.wrap(span_name, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- reduction ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive ms and call count per span name, and self ms per layer."""
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ms = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            inclusive[name] = inclusive.get(name, 0.0) + (end - start) / 1e6
            calls[name] = calls.get(name, 0) + 1
            self_ms[name.split(".", 1)[0]] += (end - start - children) / 1e6
        return inclusive, calls, self_ms

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "instance"],
                       "spans": self.spans}, handle)


# --- observers: deterministic counts at the traced boundaries -----------------

def _route(tracer: Tracer, args, result, exc) -> None:
    if result is not None:
        tracer.count("graph.route_hops", len(result.steps))


def _reduced(tracer: Tracer, args, result, exc) -> None:
    target = getattr(result, "target_instance", None)
    if getattr(target, "type_name", None) != "IntegerLinearProgram":
        return
    for key, value in check.ilp_size(target.to_data()).items():
        tracer.count(f"rules.{key}", value)


def _solved(tracer: Tracer, args, result, exc) -> None:
    if exc is not None:
        if type(exc).__name__ == "BudgetExceededError":
            tracer.count("solvers.budget_exhausted")
        return
    key = "solvers.dispatch.ilp" if result.solver_name == "ilp" else "solvers.dispatch.brute"
    tracer.count(key)


def _folded(tracer: Tracer, args, result, exc) -> None:
    configs = 1
    for d in args[0].config_dims():
        configs *= d
    tracer.count("model.fold_configs", configs)


OBSERVERS = {
    "graph.find_path": _route,
    "graph.reduce_along": _reduced,
    "solvers.solve": _solved,
    "model.fold_space": _folded,
}
