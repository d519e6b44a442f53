"""pred: polynomial-time reductions between hard problems, with solvers.

The package models a directed graph whose nodes are problem types
(independent set, SAT, QUBO, integer programming, ...) and whose edges are
reduction rules. Each rule carries a symbolic overhead map, a forward
instance transform, and extraction data for mapping solutions or optimal
values back to the source. On top of the graph sit a cheapest-path router,
an exact branch-and-bound integer programming solver, and a brute-force
fallback, so any registered instance can be solved by reducing it to a
solvable type and translating the answer back.

Every name in ``__all__`` is importable from ``pred``, but a submodule is
loaded only when one of its names is first used (PEP 562), so a ``pred``
command pays only for the modules it runs: ``create`` never loads the rule
catalogue or the solvers, for instance. ``canonical`` is the expression
normaliser from ``pred.symbolic``; the example database is ``pred.examples``.
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
    "examples": (
        "CanonicalExample ExampleReport build_examples examples_from_json "
        "examples_to_json get_example verify_all_examples"
    ),
    "graph": (
        "ReductionEnvelope ReductionGraph ReductionPath RoundTripReport default_graph "
        "extract_along extract_value_along reduce_along round_trip_check"
    ),
    "model": (
        "DEFAULT_CONFIG_BUDGET DEFAULT_NODE_BUDGET AggregatedValue DecisionProblem "
        "FoldResult Problem ProblemTypeDescriptor Registry SENSE_MAXIMIZE SENSE_MINIMIZE "
        "ValueKind VariantKey combine decision_wrap evaluate fold_space "
        "identity_value make_key validate_config"
    ),
    "problems": (
        "Clique CnfData DominatingSet GraphColoring GraphData Ilp IlpData IndependentSet "
        "IsingData MaxCut Qubo QuboData Satisfiability SetCover SetCoverData SpinGlass "
        "ThreeSatisfiability VertexCover instance_from_document instance_to_document "
        "register_catalogue"
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
