"""The envelope decoder: ``envelope_from_document`` reads a stored envelope
back by replaying its path, and rejects it unless the replay gives the
stored trace and target (``same_json``).

``pred.cli.load_envelope`` loads this module only for an input that is an
envelope, so a stage that reads a bare instance never compiles it.
"""

from __future__ import annotations

from operator import is_
from typing import TYPE_CHECKING, Mapping

from .cli import TRACE_VERSION, _json_text
from .errors import DocumentError
from .graph import reduce_along
from .problems import instance_from_document, instance_to_document

if TYPE_CHECKING:
    from .graph import ReductionEnvelope, ReductionGraph


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
