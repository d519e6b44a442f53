"""The ``pred`` command line: a JSON-over-pipes reduction workbench.

``create`` emits an instance document, ``reduce`` carries it along a
reduction path inside an envelope document, and ``solve`` solves the
envelope's target and maps the witness back to the source; both also take
a bare instance document, read as an envelope with an empty path. ``path``,
``show``, ``list``, and ``evaluate`` are inspection commands. All machine
output goes to stdout as JSON (one document per stream); diagnostics and the
optional ``--pretty`` rendering go to stdout as plain lines only where
documented, and errors go to stderr.

Exit codes: 0 ok, 2 bad input, 3 no reduction path, 4 budget exhausted,
5 infeasible program. A reader that closes the pipe before the output ends
(``pred list | head -n 1``) ends the command quietly, with status 0.

Each command is one process in a pipe, so each imports only what it runs:
``create`` and ``evaluate`` need the problem registry and the instance's
problem family alone (a family is loaded only by the commands that build or
reduce into one of its problems), the reduction graph (rules and routing)
is imported by the commands that route, the solvers by ``solve`` and
``show``, and the example database by ``create --example`` and ``show``.
Routing reads no expression, so the symbolic algebra (``pred.symbolic``) is
loaded only by the commands that print one: ``path``, ``show``, ``list`` and
``reduce --path``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .errors import (
    BudgetExceededError,
    DocumentError,
    InfeasibleError,
    NoPathError,
    PredError,
)
from .model import (
    DEFAULT_CONFIG_BUDGET,
    DEFAULT_NODE_BUDGET,
    ValueKind,
    evaluate,
)
from .problems import DATA_FIELDS, default_registry, instance_from_document, instance_to_document

if TYPE_CHECKING:
    from .graph import ReductionEnvelope, ReductionGraph

TRACE_VERSION = 1


# --- plumbing ---------------------------------------------------------------

def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        return Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {source}: {exc}") from exc


def _load_document(source: str) -> dict:
    text = _read_text(source)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON input: {exc}") from exc
    except RecursionError:
        raise DocumentError("invalid JSON input: nested too deeply") from None
    if not isinstance(document, dict):
        raise DocumentError("top-level JSON document must be an object")
    return document


def _json_text(document) -> str:
    return json.dumps(document, sort_keys=True)


def _emit(document: Mapping) -> None:
    print(_json_text(document))


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
    from .graph import reduce_along

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
    # compared as JSON text, so that 4.0 or true does not pass for 4 or 1
    for index, (stored, outcome) in enumerate(zip(document["trace"], envelope.stack)):
        if _json_text(stored) != _json_text(outcome.extraction):
            raise DocumentError(f"trace step {index} does not match the replayed reduction")
    target = instance_to_document(envelope.target_instance)
    if _json_text(target) != _json_text(document["target"]):
        raise DocumentError("envelope target does not match the replayed reduction")
    return envelope


def _load_envelope(source: str, graph: ReductionGraph) -> ReductionEnvelope:
    """The input as an envelope: a bare instance is its own empty-path envelope."""
    from .graph import ReductionEnvelope

    document = _load_document(source)
    if document.get("kind") == "envelope":
        return envelope_from_document(document, graph)
    instance = instance_from_document(document, graph.registry)
    return ReductionEnvelope(instance, graph.make_path(instance.variant_key(), ()), instance, ())


# --- create ------------------------------------------------------------------

def _parse_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        left, sep, right = token.partition("-")
        if not sep:
            raise DocumentError(f"malformed edge {token!r}; expected u-v")
        try:
            edges.append((int(left), int(right)))
        except ValueError as exc:
            raise DocumentError(f"malformed edge {token!r}; expected u-v") from exc
    return edges


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DocumentError(f"malformed {what} {text!r}; expected comma-separated integers") from exc


def _parse_clauses(text: str) -> tuple[tuple[int, ...], ...]:
    clauses = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            clauses.append(_parse_ints(part, "clause"))
    if not clauses:
        raise DocumentError("no clauses given")
    return tuple(clauses)


# create flag -> (data field it fills, parser of its text); argparse has
# already turned the integer flags into ints
_FLAG_FIELDS = {
    "graph": ("edges", _parse_edges),
    "vertices": ("num_vertices", None),
    "weights": ("weights", lambda text: _parse_ints(text, "weight list")),
    "clauses": ("clauses", _parse_clauses),
    "variables": ("num_variables", None),
    "colors": ("colors", None),
    "bound": ("bound", None),
}


def _data_from_flags(name: str, args) -> dict:
    """The instance data that the set data flags spell, for the shared decoder."""
    required, optional, _ = DATA_FIELDS[name]
    takes = required.keys() | optional.keys()
    if not any(field in takes for field, _ in _FLAG_FIELDS.values()):
        raise DocumentError(f"{name} instances need --example or --file (no data flags)")
    data: dict = {}
    for flag, (field, parse) in _FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if field not in takes:
            raise DocumentError(f"{name} takes no --{flag}")
        data[field] = parse(value) if parse else value
    if "edges" in takes:
        edges = data.setdefault("edges", [])
        if "num_vertices" not in data:
            if not edges:
                raise DocumentError(f"{name} needs --graph, or --vertices for an edgeless graph")
            data["num_vertices"] = max(map(max, edges)) + 1
    if "clauses" in data:
        data.setdefault("num_variables", max(abs(lit) for c in data["clauses"] for lit in c))
    for flag, (field, _) in _FLAG_FIELDS.items():
        if field in required and field not in data:
            raise DocumentError(f"{name} needs --{flag}")
    return data


def _reject_unread_flags(source: str, args) -> None:
    """Refuse the flags that ``--example`` or ``--file`` would leave unread."""
    unread = [f for f in ("file", *_FLAG_FIELDS) if f != source and getattr(args, f) is not None]
    if unread:
        raise DocumentError(f"--{unread[0]} cannot be used with --{source}")


def cmd_create(args) -> None:
    registry = default_registry()
    descriptor = registry.lookup(args.problem)
    if args.example:
        from .examples import get_example

        _reject_unread_flags("example", args)
        instance = get_example(args.problem, registry).instance
    elif args.file:
        _reject_unread_flags("file", args)
        instance = instance_from_document(_load_document(args.file), registry)
        if instance.type_name != descriptor.name:
            raise DocumentError(
                f"--file holds a {instance.type_name}, but {descriptor.name} was requested"
            )
    else:
        data = _data_from_flags(descriptor.name, args)
        instance = instance_from_document({"problem": descriptor.name, "data": data}, registry)
    _emit(instance_to_document(instance))


# --- reduce ------------------------------------------------------------------

def _print_route(path, stream, indent: str = "") -> None:
    """Each step with its overhead, then the composite overhead and the
    estimated cost: to stderr for ``reduce --path``, to stdout for ``path``."""
    from .symbolic import render, render_overhead

    for rule in path.steps:
        print(f"{indent}{rule.name}  {render_overhead(rule.overhead)}", file=stream)
    print(f"composite: {render_overhead(path.composite_overhead)}", file=stream)
    print(f"estimated cost: {render(path.estimated_cost)}", file=stream)


def cmd_reduce(args) -> None:
    from .graph import ReductionEnvelope, default_graph, reduce_along

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
    if args.show_path:
        print(f"route: {len(segment.steps)} step(s)", file=sys.stderr)
        _print_route(segment, sys.stderr, indent="  ")
    _emit(envelope_to_document(envelope))


# --- solve -------------------------------------------------------------------

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
        _emit(document)
        return
    print(f'Problem: "{document["problem"]}"')
    print(f"Solver: {document['solver']}")
    print(f"Solution: {json.dumps(document['solution'])}")
    print(f'Evaluation: "{document["evaluation"]}"')


def _reject_infeasible(value) -> None:
    if value.kind is ValueKind.EXTREMUM and not value.feasible:
        raise InfeasibleError("the integer program has an empty feasible region")


def cmd_solve(args) -> None:
    from .graph import default_graph, solution_along
    from .solvers import solve, solver_label

    for flag, budget in (("--max-configs", args.max_configs), ("--max-nodes", args.max_nodes)):
        if budget < 0:
            raise DocumentError(f"{flag} must be at least 0")
    graph = default_graph()
    envelope = _load_envelope(args.input, graph)
    source = envelope.source_instance
    result = solve(envelope.target_instance, args.max_configs, args.max_nodes)
    _reject_infeasible(result.value)
    value, witness = solution_along(envelope, result.value, result.witness)
    solver = solver_label(result, prefix_steps=envelope.path.steps)
    problem_name = graph.registry.display_name(source.variant_key())
    _print_solution(_solution_document(problem_name, solver, value, witness), args.pretty)


# --- inspection --------------------------------------------------------------

def cmd_path(args) -> None:
    from .graph import default_graph

    graph = default_graph()
    registry = graph.registry
    source = registry.lookup(args.source)
    target = registry.lookup(args.target)
    path = graph.find_path(source.key, target.key, require_witness=False)
    if path is None:
        raise NoPathError(
            f"no reduction path from {registry.display_name(source.key)} "
            f"to {registry.display_name(target.key)}"
        )
    if not path.steps:
        print("identity (source equals target; no reduction applied)")
    _print_route(path, sys.stdout)


def cmd_show(args) -> None:
    from .examples import get_example
    from .graph import default_graph
    from .solvers import SOLVERS
    from .symbolic import render

    graph = default_graph()
    registry = graph.registry
    descriptor = registry.lookup(args.problem)
    key = descriptor.key
    print(registry.display_name(key))
    if descriptor.variant_tags:
        tags = ", ".join(f"{k}={v}" for k, v in descriptor.variant_tags)
        print(f"  variant: {tags}")
    print(f"  kind: {descriptor.kind.value}")
    print(f"  size measures: {', '.join(descriptor.size_measure_names)}")
    print(f"  complexity: {render(descriptor.complexity)}")
    route = graph.solver_route(key)
    if route is None:
        tier = "brute_force_only"
    elif route.steps:
        solver_name, _ = SOLVERS[route.target_type.name]
        tier = f"via_{solver_name}"
    else:
        tier = "dedicated"
    print(f"  solver tier: {tier}")
    incoming = graph.incoming(key)
    outgoing = graph.outgoing(key)
    print(f"  incoming rules: {', '.join(r.name for r in incoming) if incoming else '(none)'}")
    print(f"  outgoing rules: {', '.join(r.name for r in outgoing) if outgoing else '(none)'}")
    try:
        example = get_example(args.problem, registry)
    except PredError:
        print("  example: (none)")
    else:
        print(
            f"  example: {example.id} "
            f"(known value {example.known_value.render()}) - {example.narrative}"
        )


def cmd_list(args) -> None:
    from .graph import default_graph
    from .symbolic import render

    graph = default_graph()
    registry = graph.registry
    for descriptor in registry.variants():
        name = registry.display_name(descriptor.key)
        print(f"{name:<40} {descriptor.kind.value:<10} {render(descriptor.complexity)}")
    if args.stats:
        print(json.dumps(graph.topology_report(), sort_keys=True))


def cmd_evaluate(args) -> None:
    instance = instance_from_document(_load_document(args.input), default_registry())
    config = _parse_ints(args.config, "configuration")
    value = evaluate(instance, config)
    print(f"{value.render()} {'feasible' if value.feasible else 'infeasible'}")


# --- entry point ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pred",
        description="Reduction workbench: create, reduce, and solve hard-problem instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_create = sub.add_parser("create", help="emit an instance document as JSON")
    p_create.add_argument("problem", help="problem name or alias (MIS, VC, 3SAT, ILP, ...)")
    p_create.add_argument("--graph", help="edge list like 0-1,1-2,2-3")
    p_create.add_argument("--vertices", type=int, help="vertex count (default: max index + 1)")
    p_create.add_argument("--weights", help="comma-separated positive vertex weights")
    p_create.add_argument("--clauses", help="clause list like '1,2,3;-1,2'")
    p_create.add_argument("--variables", type=int, help="variable count (default: widest literal)")
    p_create.add_argument("--colors", type=int, help="color count for GraphColoring")
    p_create.add_argument("--bound", type=int, help="threshold for decision problems")
    p_create.add_argument("--example", action="store_true", help="emit the canonical example")
    p_create.add_argument("--file", help="read an instance document from a JSON file")
    p_create.set_defaults(handler=cmd_create)

    p_reduce = sub.add_parser("reduce", help="reduce an instance or envelope to a target type")
    p_reduce.add_argument("input", help="instance/envelope document path, or - for stdin")
    p_reduce.add_argument("--to", required=True, help="target problem name or alias")
    p_reduce.add_argument(
        "--path", dest="show_path", action="store_true",
        help="print the chosen route and overheads to stderr",
    )
    p_reduce.set_defaults(handler=cmd_reduce)

    p_solve = sub.add_parser("solve", help="solve an instance or envelope")
    p_solve.add_argument("input", help="instance/envelope document path, or - for stdin")
    p_solve.add_argument("--pretty", action="store_true", help="print display lines, not JSON")
    p_solve.add_argument(
        "--max-configs", type=int, default=DEFAULT_CONFIG_BUDGET,
        help="brute-force configuration budget",
    )
    p_solve.add_argument(
        "--max-nodes", type=int, default=DEFAULT_NODE_BUDGET,
        help="node budget of the ILP branch-and-bound and the QUBO bounded search",
    )
    p_solve.set_defaults(handler=cmd_solve)

    p_path = sub.add_parser("path", help="print the shortest reduction route between two types")
    p_path.add_argument("source")
    p_path.add_argument("target")
    p_path.set_defaults(handler=cmd_path)

    p_show = sub.add_parser("show", help="describe one problem type")
    p_show.add_argument("problem")
    p_show.set_defaults(handler=cmd_show)

    p_list = sub.add_parser("list", help="list all registered problem variants")
    p_list.add_argument("--stats", action="store_true", help="append the topology report JSON")
    p_list.set_defaults(handler=cmd_list)

    p_eval = sub.add_parser("evaluate", help="score a configuration against an instance")
    p_eval.add_argument("input", help="instance document path, or - for stdin")
    p_eval.add_argument("--config", required=True, help="comma-separated configuration values")
    p_eval.set_defaults(handler=cmd_evaluate)

    return parser


def _silence_stdout() -> None:
    """Point stdout at the null device once its reader has gone, so the
    interpreter's last flush does not report the broken pipe again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
    except BrokenPipeError:
        _silence_stdout()
        return 0
    except BudgetExceededError as exc:
        print(f"pred: {exc}", file=sys.stderr)
        return 4
    except InfeasibleError as exc:
        print(f"pred: {exc}", file=sys.stderr)
        return 5
    except NoPathError as exc:
        print(f"pred: {exc}", file=sys.stderr)
        return 3
    except (PredError, ValueError) as exc:
        print(f"pred: {exc}", file=sys.stderr)
        return 2
    return 0
