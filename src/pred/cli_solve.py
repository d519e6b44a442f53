"""``pred solve``: solve an instance or an envelope's target, and map the
answer back to the source.
"""

from __future__ import annotations

import json
from typing import Mapping

from .cli import emit, load_envelope
from .errors import DocumentError, InfeasibleError
from .graph import default_graph, solution_along
from .model import ValueKind


def _solution_document(problem_name: str, solver: str, value, witness) -> dict:
    return {
        "problem": problem_name,
        "solver": solver,
        "solution": list(witness) if witness is not None else None,
        "evaluation": value.render(),
        "value": {"kind": value.kind.value, "payload": value.payload},
    }


def _print_solution(document: Mapping, pretty: bool) -> None:
    if not pretty:
        emit(document)
        return
    print(f'Problem: "{document["problem"]}"')
    print(f"Solver: {document['solver']}")
    print(f"Solution: {json.dumps(document['solution'])}")
    print(f'Evaluation: "{document["evaluation"]}"')


def _reject_infeasible(value) -> None:
    if value.kind is ValueKind.EXTREMUM and not value.feasible:
        raise InfeasibleError("the integer program has an empty feasible region")


def cmd_solve(args) -> None:
    from .solvers import solve, solver_label

    if args.max_nodes < 0:
        raise DocumentError("--max-nodes must be at least 0")
    graph = default_graph()
    envelope = load_envelope(args.input, graph)
    source = envelope.source_instance
    result = solve(envelope.target_instance, max_nodes=args.max_nodes)
    _reject_infeasible(result.value)
    value, witness = solution_along(envelope, result.value, result.witness)
    solver = solver_label(result, prefix_steps=envelope.path.steps)
    problem_name = graph.registry.display_name(source.variant_key())
    _print_solution(_solution_document(problem_name, solver, value, witness), args.pretty)
