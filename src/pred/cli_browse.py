"""``pred path``, ``pred show`` and ``pred list``: the commands that describe
the graph and its types rather than an instance.

Each prints an overhead or complexity expression, so each loads
``pred.symbolic``. ``print_route`` also serves ``reduce --path``, and
``topology_report`` serves ``list --stats``.
"""

from __future__ import annotations

import json
import sys

from .errors import NoPathError, PredError
from .graph import ReductionGraph, default_graph
from .model import VariantKey
from .symbolic import render, render_overhead


def print_route(path, stream, indent: str = "") -> None:
    """Each step with its overhead, then the composite overhead and the
    estimated cost: to stderr for ``reduce --path``, to stdout for ``path``."""
    for rule in path.steps:
        print(f"{indent}{rule.name}  {render_overhead(rule.overhead)}", file=stream)
    print(f"composite: {render_overhead(path.composite_overhead)}", file=stream)
    print(f"estimated cost: {render(path.estimated_cost)}", file=stream)


def cmd_path(args) -> None:
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
    print_route(path, sys.stdout)


def cmd_show(args) -> None:
    from .examples import get_example

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
        tier = f"via_{graph.solvers[route.target].label}"
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


def _reached(start: VariantKey, step) -> set[VariantKey]:
    """The nodes that ``step`` (a node's rules, each to its far end) reaches from
    ``start``; ``start`` itself only if a cycle returns to it."""
    reached: set[VariantKey] = set()
    frontier = [start]
    while frontier:
        for end in step(frontier.pop()):
            if end not in reached:
                reached.add(end)
                frontier.append(end)
    return reached


def topology_report(graph: ReductionGraph) -> dict:
    """Reachability sets over all edges, as JSON-able sorted name lists."""
    registry = graph.registry
    ilp_key = registry.lookup("IntegerLinearProgram").key
    sat3_key = registry.lookup("ThreeSatisfiability").key
    to_ilp = _reached(ilp_key, lambda key: (r.source.key for r in graph.incoming(key)))
    from_3sat = _reached(sat3_key, lambda key: (r.target.key for r in graph.outgoing(key)))
    keys = [descriptor.key for descriptor in registry.variants()]
    isolated = [key for key in keys if not graph.outgoing(key) and not graph.incoming(key)]
    name = registry.display_name
    return {
        "reachable_to_ilp": sorted(name(k) for k in to_ilp),
        "reachable_from_3sat": sorted(name(k) for k in from_3sat),
        "isolated": sorted(name(k) for k in isolated),
    }


def cmd_list(args) -> None:
    graph = default_graph()
    registry = graph.registry
    for descriptor in registry.variants():
        name = registry.display_name(descriptor.key)
        print(f"{name:<40} {descriptor.kind.value:<10} {render(descriptor.complexity)}")
    if args.stats:
        print(json.dumps(topology_report(graph), sort_keys=True))
