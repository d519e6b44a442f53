"""``pred reduce`` and ``pred solve``: the pipe stages that route, and the
envelope codec that they alone use.

Each reads its input as an envelope (``envelope_from_document`` replays a
stored one and checks it with ``same_json``; a bare instance is its own
empty-path envelope). ``reduce`` extends the envelope's path to a target
type and writes it (``envelope_to_document``), and ``solve`` solves its
target and maps the answer back to the source.
"""

from __future__ import annotations

import json
import sys
from operator import is_
from typing import TYPE_CHECKING, Mapping

from .cli import _json_text, emit, load_document
from .errors import DocumentError, InfeasibleError, NoPathError
from .graph import ReductionEnvelope, default_graph, reduce_along, solution_along
from .model import ValueKind
from .problems import instance_from_document, instance_to_document

if TYPE_CHECKING:
    from .graph import ReductionGraph

TRACE_VERSION = 1


def same_json(a, b) -> bool:
    """Whether ``_json_text(a) == _json_text(b)``: the replay check of
    ``envelope_from_document``, which writes neither value as text. Exact when
    either value's object keys are all strings, as a document read from JSON's
    are.

    Arrays (lists or tuples) and objects are compared member by member, an
    array first by identity, which settles a long row of small ints at C
    speed. Two strings, ints or booleans are compared by value, and anything
    else by its JSON text, so that values equal in Python but not in JSON
    (``4`` and ``4.0``, ``1`` and ``true``, ``0.0`` and ``-0.0``) differ.
    """
    if type(a) is type(b) in (str, int, bool):
        return a == b
    if type(a) in (list, tuple) and type(b) in (list, tuple):
        return len(a) == len(b) and (all(map(is_, a, b)) or all(map(same_json, a, b)))
    if type(a) is dict is type(b) and a.keys() == b.keys():
        return all(same_json(a[key], b[key]) for key in a)
    return _json_text(a) == _json_text(b)


def envelope_to_document(envelope: ReductionEnvelope) -> dict:
    return {
        "kind": "envelope",
        "trace_version": TRACE_VERSION,
        "source": instance_to_document(envelope.source_instance),
        "path": list(envelope.path.rule_names()),
        "target": instance_to_document(envelope.target_instance),
        "trace": [outcome.extraction for outcome in envelope.stack],
    }


def envelope_from_document(document: Mapping, graph: ReductionGraph) -> ReductionEnvelope:
    """Rebuild an envelope by replaying its path; reject stale or doctored traces."""
    expected = {"kind", "trace_version", "source", "path", "target", "trace"}
    if set(document) != expected:
        raise DocumentError(
            f"envelope must have exactly the fields {sorted(expected)}"
        )
    version = document["trace_version"]
    if type(version) is not int or version != TRACE_VERSION:
        raise DocumentError(
            f"unsupported trace version {version!r} "
            f"(this build reads version {TRACE_VERSION})"
        )
    if not isinstance(document["path"], list) or not all(
        isinstance(name, str) for name in document["path"]
    ):
        raise DocumentError("envelope path must be a list of rule names")
    if not isinstance(document["trace"], list):
        raise DocumentError("envelope trace must be a list")
    if len(document["trace"]) != len(document["path"]):
        raise DocumentError("trace length does not match path length")
    source = instance_from_document(document["source"], graph.registry)
    steps = []
    for name in document["path"]:
        rule = graph.rule_named(name)
        if rule is None:
            raise DocumentError(f"unknown reduction rule {name!r}")
        steps.append(rule)
    path = graph.make_path(source.variant_key(), tuple(steps))
    envelope = reduce_along(path, source)
    for index, (stored, outcome) in enumerate(zip(document["trace"], envelope.stack)):
        if not same_json(stored, outcome.extraction):
            raise DocumentError(f"trace step {index} does not match the replayed reduction")
    if not same_json(document["target"], instance_to_document(envelope.target_instance)):
        raise DocumentError("envelope target does not match the replayed reduction")
    return envelope


def _load_envelope(source: str, graph: ReductionGraph) -> ReductionEnvelope:
    """The input as an envelope: a bare instance is its own empty-path envelope."""
    document = load_document(source)
    if document.get("kind") == "envelope":
        return envelope_from_document(document, graph)
    instance = instance_from_document(document, graph.registry)
    return ReductionEnvelope(instance, graph.make_path(instance.variant_key(), ()), instance, ())


def cmd_reduce(args) -> None:
    graph = default_graph()
    registry = graph.registry
    prior = _load_envelope(args.input, graph)
    source = prior.source_instance
    current = prior.target_instance
    target = registry.lookup(args.to)
    segment = graph.find_path(current.variant_key(), target.key)
    if segment is None:
        raise NoPathError(
            f"no witness-capable reduction path from "
            f"{registry.display_name(current.variant_key())} to "
            f"{registry.display_name(target.key)}"
        )
    reduced = reduce_along(segment, current)
    full_path = graph.make_path(source.variant_key(), prior.path.steps + segment.steps)
    envelope = ReductionEnvelope(
        source, full_path, reduced.target_instance, prior.stack + reduced.stack
    )
    if args.path:
        from .cli_browse import print_route

        print(f"route: {len(segment.steps)} step(s)", file=sys.stderr)
        print_route(segment, sys.stderr, indent="  ")
    emit(envelope_to_document(envelope))


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
    envelope = _load_envelope(args.input, graph)
    source = envelope.source_instance
    result = solve(envelope.target_instance, max_nodes=args.max_nodes)
    _reject_infeasible(result.value)
    value, witness = solution_along(envelope, result.value, result.witness)
    solver = solver_label(result, prefix_steps=envelope.path.steps)
    problem_name = graph.registry.display_name(source.variant_key())
    _print_solution(_solution_document(problem_name, solver, value, witness), args.pretty)
