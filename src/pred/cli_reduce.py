"""``pred reduce``: carry an instance or envelope along a route to a target
type, and write the envelope (``envelope_to_document``, the encoder of the
envelope codec, which no other stage runs).
"""

from __future__ import annotations

import sys

from .cli import TRACE_VERSION, emit, load_envelope
from .errors import NoPathError
from .graph import ReductionEnvelope, default_graph, reduce_along
from .problems import instance_to_document


def envelope_to_document(envelope: ReductionEnvelope) -> dict:
    return {
        "kind": "envelope",
        "trace_version": TRACE_VERSION,
        "source": instance_to_document(envelope.source_instance),
        "path": list(envelope.path.rule_names()),
        "target": instance_to_document(envelope.target_instance),
        "trace": [outcome.extraction for outcome in envelope.stack],
    }


def cmd_reduce(args) -> None:
    graph = default_graph()
    registry = graph.registry
    prior = load_envelope(args.input, graph)
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
