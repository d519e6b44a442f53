"""pred: polynomial-time reductions between hard problems, with solvers.

The package models a directed graph whose nodes are problem types
(independent set, SAT, QUBO, integer programming, ...) and whose edges are
reduction rules. Each rule carries a symbolic overhead map, a forward
instance transform, and extraction data for mapping solutions or optimal
values back to the source. On top of the graph sit a fewest-steps router,
an exact branch-and-bound integer programming solver, and a brute-force
fallback, so any registered instance can be solved by reducing it to a
solvable type and translating the answer back.

Every name in ``__all__`` is importable from ``pred``, but a submodule is
loaded only when one of its names is first used (PEP 562), so a ``pred``
command pays only for the modules it runs: ``create`` never loads the rule
catalogue or the solvers, for instance. Overhead and complexity expressions
stay as their declared text until something reads them, so importing the
package and building the graph (``default_graph()``) do not load the
symbolic algebra, ``pred.symbolic``, and neither does routing, which reads
no expression. Nor do they load any problem family (``pred.problems``): a
problem's class module loads when an instance of it is first built or
reduced to, and a forward map's module when a route first runs the map.
``canonical`` is the expression normaliser from ``pred.symbolic``; the
example database is ``pred.examples``. The brute-force fold, ``combine``
and ``identity_value`` are ``pred.fold``, loaded on the first fold, and
the checks that only tests run (``round_trip_check``,
``verify_all_examples``, and the example database's JSON form) are
``pred.checks``, so no command compiles them. The command line is
``pred.cli``, whose command table loads one handler module per command.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "1.0.0"

# submodule -> the public names it provides
_EXPORTS = {
    "errors": (
        "BudgetExceededError CapabilityError DimensionMismatchError DocumentError "
        "DomainError DuplicateRegistrationError ExtractionError InfeasibleError "
        "InvalidInstanceError KindError NoExampleError NoPathError PredError "
        "RegistrationError SymbolicError TypeMismatchError UnknownProblemError"
    ),
    "checks": (
        "ExampleReport RoundTripReport examples_from_json examples_to_json "
        "round_trip_check verify_all_examples"
    ),
    "examples": "CanonicalExample build_examples get_example",
    "fold": "FoldResult combine identity_value",
    "graph": (
        "ReductionEnvelope ReductionGraph ReductionPath Solver default_graph "
        "extract_along extract_value_along reduce_along"
    ),
    "model": (
        "DEFAULT_NODE_BUDGET AggregatedValue Problem ProblemTypeDescriptor Registry "
        "SENSE_MAXIMIZE SENSE_MINIMIZE ValueKind VariantKey evaluate fold_space "
        "make_key validate_config"
    ),
    "problems": (
        "Clique CnfData DecisionProblem DominatingSet GraphColoring GraphData Ilp IlpData "
        "IndependentSet IsingData MaxCut Qubo QuboData Satisfiability SetCover SetCoverData "
        "SpinGlass ThreeSatisfiability VertexCover decision_wrap instance_from_document "
        "instance_to_document register_catalogue"
    ),
    "rules": "ReductionOutcome ReductionRule shipped_rules",
    "solvers": "SolveResult solve solve_brute solve_ilp solver_label",
    "symbolic": (
        "Add Comparison Const Exp Expr Mul OverheadMap Pow Var canonical compare compose "
        "evaluate_expr identity_overhead is_polynomial parse_expr render render_overhead subst"
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
