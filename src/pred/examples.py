"""Canonical-instance database: one worked example per registered variant.

Every example is small enough (at most 10 configuration variables) that the
whole suite can re-derive each stored optimum by brute force. The database
feeds tests, `pred create --example`, and round-trip checks, and serializes
losslessly to JSON. Each example is stored as instance data and decoded
when it is asked for, so `pred create X --example` builds only X.
"""

from __future__ import annotations

import json
from typing import Mapping

from .errors import DocumentError, NoExampleError, PredError, Record
from .model import (
    AggregatedValue,
    Configuration,
    Problem,
    Registry,
    SENSE_MAXIMIZE,
    ValueKind,
    VariantKey,
    evaluate,
    fold_space,
    validate_config,
)
from .problems import (
    _int,
    _int_list,
    _list,
    _require_fields,
    default_registry,
    instance_from_document,
    instance_to_document,
)


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


class ExampleReport(Record):
    checked: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_all_examples(
    database: Mapping[VariantKey, CanonicalExample] | None = None,
) -> ExampleReport:
    """Re-derive every stored optimum by brute force; list discrepancies."""
    if database is None:
        database = build_examples()
    mismatches: list[str] = []
    for example in sorted(database.values(), key=lambda e: e.id):
        derived = fold_space(example.instance).value
        stored = example.known_value
        if (
            derived.kind is not stored.kind
            or derived.feasible != stored.feasible
            or derived.payload != stored.payload
        ):
            mismatches.append(
                f"{example.id}: stored {stored.render()} != derived {derived.render()}"
            )
            continue
        if example.known_witness is not None:
            scored = evaluate(example.instance, example.known_witness)
            if scored.payload != stored.payload or scored.feasible != stored.feasible:
                mismatches.append(
                    f"{example.id}: witness re-evaluates to {scored.render()}, "
                    f"stored {stored.render()}"
                )
    return ExampleReport(len(database), tuple(mismatches))


# --- JSON round trip ---------------------------------------------------------

def _value_to_data(value: AggregatedValue) -> dict:
    data: dict = {
        "kind": value.kind.value,
        "payload": value.payload,
        "feasible": value.feasible,
    }
    if value.sense is not None:
        data["sense"] = value.sense
    return data


def _value_from_data(data: Mapping) -> AggregatedValue:
    _require_fields(data, {"kind", "payload", "feasible"}, {"sense"}, what="known_value")
    try:
        kind = ValueKind(data["kind"])
    except ValueError:
        raise DocumentError(f"unknown value kind {data['kind']!r}") from None
    payload = data["payload"]
    if kind in (ValueKind.OR, ValueKind.AND):
        if not isinstance(payload, bool):
            raise DocumentError(f"{kind.value} payload must be true or false")
    elif payload is not None:
        _int(payload, "payload")
    if not isinstance(data["feasible"], bool):
        raise DocumentError("feasible must be true or false")
    return AggregatedValue(kind, payload, data["feasible"], data.get("sense"))


def _example_from_data(entry: Mapping, registry: Registry) -> CanonicalExample:
    _require_fields(
        entry, {"id", "instance", "known_value", "known_witness", "narrative"}, what="an example"
    )
    if not (isinstance(entry["id"], str) and isinstance(entry["narrative"], str)):
        raise DocumentError("id and narrative must be strings")
    instance = instance_from_document(entry["instance"], registry)
    witness = entry["known_witness"]
    if witness is not None:
        witness = _int_list(witness, "known_witness")
        validate_config(instance, witness)
    value = _value_from_data(entry["known_value"])
    return CanonicalExample(entry["id"], instance, value, witness, entry["narrative"])


def examples_to_json(database: Mapping[VariantKey, CanonicalExample]) -> str:
    entries = []
    for example in sorted(database.values(), key=lambda e: e.id):
        entries.append(
            {
                "id": example.id,
                "instance": instance_to_document(example.instance),
                "known_value": _value_to_data(example.known_value),
                "known_witness": (
                    list(example.known_witness) if example.known_witness is not None else None
                ),
                "narrative": example.narrative,
            }
        )
    return json.dumps({"examples": entries}, indent=2, sort_keys=True)


def examples_from_json(
    text: str, registry: Registry | None = None
) -> dict[VariantKey, CanonicalExample]:
    """Read a database written by ``examples_to_json``, checking every field."""
    if registry is None:
        registry = default_registry()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid example JSON: {exc}") from exc
    if not isinstance(payload, dict) or "examples" not in payload:
        raise DocumentError("example database must be an object with an 'examples' list")
    examples = []
    for index, entry in enumerate(_list(payload["examples"], "examples")):
        try:
            examples.append(_example_from_data(entry, registry))
        except PredError as exc:
            # prefix the message in place: the class and its attributes stay intact
            exc.args = (f"example {index}: {exc}",)
            raise
    return _by_variant((example.instance.variant_key(), example) for example in examples)
