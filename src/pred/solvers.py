"""Solver dispatch.

The reduction graph holds the solver nodes (``ReductionGraph.solvers``,
declared by ``default_graph``: ILP's exact branch-and-bound search and
QUBO's pruned prefix walk) and makes the one dispatch decision
(``ReductionGraph.solver_route``): an instance with a witness-capable path
to a solver node is carried along the one with the fewest steps (then the
smallest rule names) and solved there, a solver node itself being the empty
path, and any other instance is enumerated by brute force, which takes the
same prefix walk as QUBO for every Or, Max, Min and Extremum fold. Every
search runs under the one node budget ``max_nodes``: the branch-and-bound
search charges its nodes, and a walk the prefixes it asks. Adding a
solver is one entry in the graph's table. Each solver's module loads on its
first call (``pred.kernel`` in ``solve_ilp``, ``pred.fold`` in
``fold_space`` and the QUBO walk), so a stage compiles only the one it runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import Record
from .graph import ReductionPath, default_graph, reduce_along, solution_along
from .model import (
    AggregatedValue,
    Configuration,
    DEFAULT_NODE_BUDGET,
    Problem,
    SENSE_MAXIMIZE,
    SENSE_MINIMIZE,
    ValueKind,
    fold_space,
)

if TYPE_CHECKING:
    from .problems.ilp import IlpData


class SolveResult(Record):
    value: AggregatedValue
    witness: Configuration | None
    solver_name: str
    route: ReductionPath | None = None


def solver_label(result: SolveResult, prefix_steps: tuple = ()) -> str:
    """Human-readable solver string, e.g. ``ilp (via MIS -> ILP)``."""
    steps = tuple(prefix_steps)
    if result.route is not None:
        steps += result.route.steps
    if not steps:
        return result.solver_name
    registry = default_graph().registry
    hops = " -> ".join(registry.short_name(step.target.key) for step in steps)
    return f"{result.solver_name} (via {hops})"


def solve_ilp(data: IlpData, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact optimum of a bounded integer linear program."""
    from .kernel import _kernel

    sense = SENSE_MAXIMIZE if data.sense == "max" else SENSE_MINIMIZE
    search = _kernel(data, max_nodes)
    search.run()
    if search.best_point is None:  # the Extremum identity: nothing is feasible
        return SolveResult(AggregatedValue(ValueKind.EXTREMUM, None, False, sense), None, "ilp")
    value = search.sign * search.best_value
    return SolveResult(
        AggregatedValue(ValueKind.EXTREMUM, value, True, sense),
        search.witness(),
        "ilp",
    )


def solve_brute(instance: Problem, *, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    result = fold_space(instance, max_nodes=max_nodes)
    return SolveResult(result.value, result.witness, "brute-force")


def solve(instance: Problem, *, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Solve at the solver node the graph routes ``instance`` to, or by brute
    force when it has no route.

    The solver's answer is mapped back by ``solution_along``. A solver node
    is its own empty route, so it gets its solver's result as it is.
    """
    graph = default_graph()
    route = graph.solver_route(instance.variant_key())
    if route is None:
        return solve_brute(instance, max_nodes=max_nodes)
    solver = graph.solvers[route.target]
    if not route.steps:
        result = solver.run(instance, max_nodes)
        return SolveResult(result.value, result.witness, solver.label)
    envelope = reduce_along(route, instance)
    result = solver.run(envelope.target_instance, max_nodes)
    value, witness = solution_along(envelope, result.value, result.witness)
    return SolveResult(value, witness, solver.label, route=route)
