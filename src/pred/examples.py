"""Canonical-instance database: one worked example per registered variant.

Every example is small enough (at most 10 configuration variables) that the
whole suite can re-derive each stored optimum by brute force
(``pred.checks.verify_all_examples``). The database feeds tests,
`pred create --example` and `pred show`; ``pred.checks`` also writes it to
JSON and reads it back, losslessly. Each example is stored as instance data
and decoded when it is asked for, so `pred create X --example` builds only X.
"""

from __future__ import annotations

from typing import Mapping

from .errors import DocumentError, NoExampleError, Record
from .model import (
    AggregatedValue,
    Configuration,
    Problem,
    Registry,
    SENSE_MAXIMIZE,
    ValueKind,
    VariantKey,
)
from .problems import default_registry, instance_from_document


class CanonicalExample(Record):
    id: str
    instance: Problem
    known_value: AggregatedValue
    known_witness: Configuration | None
    narrative: str


_P4 = {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}

# One entry per variant: a name the registry looks up, the example's id, its
# instance data, known value, known witness and narrative. An entry's instance
# is decoded only when it is asked for, so looking up one example builds only
# that problem (and loads only its family).
_EXAMPLES = (
    (
        "Satisfiability",
        "sat-two-clauses",
        {"num_variables": 4, "clauses": [[1, 2, 3, 4], [-1, -2]]},
        AggregatedValue(ValueKind.OR, True),
        (0, 0, 1, 0),
        "one wide clause plus a binary clause; x3 true settles both",
    ),
    (
        "ThreeSatisfiability",
        "3sat-two-clauses",
        {"num_variables": 3, "clauses": [[1, 2, 3], [-1, 2, -3]]},
        AggregatedValue(ValueKind.OR, True),
        (0, 1, 0),
        "two 3-literal clauses sharing x2; setting x2 satisfies both",
    ),
    (
        "MaximumIndependentSet",
        "mis-path4",
        _P4,
        AggregatedValue(ValueKind.MAX, 2),
        (1, 0, 0, 1),
        "path on 4 vertices; the two endpoints form a maximum independent set",
    ),
    (
        "MaximumIndependentSet[weight=integer]",
        "mis-weighted-path3",
        {"num_vertices": 3, "edges": [[0, 1], [1, 2]], "weights": [2, 3, 2]},
        AggregatedValue(ValueKind.MAX, 4),
        (1, 0, 1),
        "weighted path where the two light endpoints beat the heavy middle",
    ),
    (
        "MinimumVertexCover",
        "vc-path4",
        _P4,
        AggregatedValue(ValueKind.MIN, 2),
        (0, 1, 1, 0),
        "path on 4 vertices; the two middle vertices cover all edges",
    ),
    (
        "MaximumClique",
        "clique-triangle-tail",
        {"num_vertices": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]]},
        AggregatedValue(ValueKind.MAX, 3),
        (1, 1, 1, 0),
        "triangle with a pendant vertex; the triangle is the maximum clique",
    ),
    (
        "MinimumDominatingSet",
        "domset-star4",
        {"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3]]},
        AggregatedValue(ValueKind.MIN, 1),
        (1, 0, 0, 0),
        "star graph; the hub alone dominates every vertex",
    ),
    (
        "MinimumSetCover",
        "setcover-ring4",
        {"num_elements": 4, "sets": [[0, 1], [1, 2], [2, 3], [0, 3]]},
        AggregatedValue(ValueKind.MIN, 2),
        (1, 0, 1, 0),
        "four overlapping pair-sets in a ring; two opposite sets cover all",
    ),
    (
        "MaxCut",
        "maxcut-triangle",
        {"num_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        AggregatedValue(ValueKind.MAX, 2),
        (0, 0, 1),
        "triangle; any bipartition cuts exactly two of the three edges",
    ),
    (
        "QUBO",
        "qubo-coupled-pair",
        {"n": 2, "q": [[1, -2], [-2, 1]]},
        AggregatedValue(ValueKind.MAX, 1),
        (1, 0),
        "two unit gains with a strong negative coupling; pick one variable",
    ),
    (
        "SpinGlass",
        "ising-coupled-pair",
        {"n": 2, "j": [[0, -1], [-1, 0]], "h": [1, 0]},
        AggregatedValue(ValueKind.MAX, 2),
        (0, 0),
        "ferromagnetic pair with a field on one spin; both spins down",
    ),
    (
        "GraphColoring",
        "coloring-edge2",
        {"num_vertices": 2, "edges": [[0, 1]], "colors": 2},
        AggregatedValue(ValueKind.OR, True),
        (0, 1),
        "single edge with two colors; any proper 2-coloring works",
    ),
    (
        "IntegerLinearProgram",
        "ilp-path4",
        {
            "num_vars": 4,
            "bounds": [[0, 1]] * 4,
            "constraints": [
                {"coeffs": [1, 1, 0, 0], "rel": "<=", "rhs": 1},
                {"coeffs": [0, 1, 1, 0], "rel": "<=", "rhs": 1},
                {"coeffs": [0, 0, 1, 1], "rel": "<=", "rhs": 1},
            ],
            "objective": [1, 1, 1, 1],
            "sense": "max",
        },
        AggregatedValue(ValueKind.EXTREMUM, 2, True, SENSE_MAXIMIZE),
        (1, 0, 0, 1),
        "binary program with chained at-most-one constraints; optimum 2",
    ),
    (
        "DecisionMaximumIndependentSet",
        "decision-mis-path4",
        {**_P4, "bound": 2},
        AggregatedValue(ValueKind.OR, True),
        (1, 0, 0, 1),
        "is there an independent set of size 2 on the 4-path? yes",
    ),
    (
        "DecisionMinimumVertexCover",
        "decision-vc-path4",
        {**_P4, "bound": 2},
        AggregatedValue(ValueKind.OR, True),
        (0, 1, 1, 0),
        "is there a vertex cover of size 2 on the 4-path? yes",
    ),
)


def _by_variant(pairs) -> dict:
    """The ``(key, value)`` pairs as a dict; a second one for a key is an error."""
    table: dict = {}
    for key, value in pairs:
        if key in table:
            raise DocumentError(f"two examples for variant {key}")
        table[key] = value
    return table


def _entries(registry: Registry) -> dict[VariantKey, tuple]:
    """The stored entries by variant key, none of them decoded."""
    return _by_variant((registry.lookup(entry[0]).key, entry) for entry in _EXAMPLES)


def _decode(entry: tuple, key: VariantKey, registry: Registry) -> CanonicalExample:
    name, example_id, data, value, witness, narrative = entry
    instance = instance_from_document({"problem": name, "data": data}, registry)
    if instance.variant_key() != key:
        raise DocumentError(f"example {example_id} is a {instance.variant_key()}, not a {key}")
    return CanonicalExample(example_id, instance, value, witness, narrative)


def build_examples(registry: Registry | None = None) -> dict[VariantKey, CanonicalExample]:
    """Construct the shipped database, keyed by problem variant."""
    if registry is None:
        registry = default_registry()
    return {key: _decode(entry, key, registry) for key, entry in _entries(registry).items()}


def get_example(
    problem_name: str,
    registry: Registry | None = None,
    database: Mapping[VariantKey, CanonicalExample] | None = None,
) -> CanonicalExample:
    """The example of one variant, from ``database`` if given; else only that
    variant's stored entry is decoded."""
    if registry is None:
        registry = default_registry()
    key = registry.lookup(problem_name).key
    if database is None:
        entries = _entries(registry)
        if key in entries:
            return _decode(entries[key], key, registry)
        database = entries
    example = database.get(key)
    if example is None:
        available = ", ".join(sorted(registry.display_name(k) for k in database))
        raise NoExampleError(f"no example for {problem_name}; available: {available}")
    return example
