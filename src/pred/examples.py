"""Canonical-instance database: one worked example per registered variant.

Every example is small enough (at most 10 configuration variables) that the
whole suite can re-derive each stored optimum by brute force. The database
feeds tests, `pred create --example`, and round-trip checks, and serializes
losslessly to JSON.
"""

from __future__ import annotations

import json
from typing import Mapping

from .errors import DocumentError, NoExampleError, Record
from .model import (
    AggregatedValue,
    Configuration,
    DecisionProblem,
    Problem,
    Registry,
    SENSE_MAXIMIZE,
    ValueKind,
    VariantKey,
    evaluate,
    fold_space,
)
from .problems import (
    CnfData,
    Clique,
    DominatingSet,
    GraphColoring,
    GraphData,
    Ilp,
    IlpData,
    IndependentSet,
    IsingData,
    MaxCut,
    Qubo,
    QuboData,
    Satisfiability,
    SetCover,
    SetCoverData,
    SpinGlass,
    ThreeSatisfiability,
    VertexCover,
    instance_from_document,
    instance_to_document,
    register_catalogue,
)


class CanonicalExample(Record):
    id: str
    instance: Problem
    known_value: AggregatedValue
    known_witness: Configuration | None
    narrative: str


def _p4() -> GraphData:
    return GraphData(4, ((0, 1), (1, 2), (2, 3)))


def build_examples(registry: Registry | None = None) -> dict[VariantKey, CanonicalExample]:
    """Construct the shipped database, keyed by problem variant."""
    registry = registry or register_catalogue()
    examples = [
        CanonicalExample(
            "sat-two-clauses",
            Satisfiability(CnfData(4, ((1, 2, 3, 4), (-1, -2)))),
            AggregatedValue(ValueKind.OR, True),
            (0, 0, 1, 0),
            "one wide clause plus a binary clause; x3 true settles both",
        ),
        CanonicalExample(
            "3sat-two-clauses",
            ThreeSatisfiability(CnfData(3, ((1, 2, 3), (-1, 2, -3)))),
            AggregatedValue(ValueKind.OR, True),
            (0, 1, 0),
            "two 3-literal clauses sharing x2; setting x2 satisfies both",
        ),
        CanonicalExample(
            "mis-path4",
            IndependentSet(_p4()),
            AggregatedValue(ValueKind.MAX, 2),
            (1, 0, 0, 1),
            "path on 4 vertices; the two endpoints form a maximum independent set",
        ),
        CanonicalExample(
            "mis-weighted-path3",
            IndependentSet(GraphData(3, ((0, 1), (1, 2)), (2, 3, 2))),
            AggregatedValue(ValueKind.MAX, 4),
            (1, 0, 1),
            "weighted path where the two light endpoints beat the heavy middle",
        ),
        CanonicalExample(
            "vc-path4",
            VertexCover(_p4()),
            AggregatedValue(ValueKind.MIN, 2),
            (0, 1, 1, 0),
            "path on 4 vertices; the two middle vertices cover all edges",
        ),
        CanonicalExample(
            "clique-triangle-tail",
            Clique(GraphData(4, ((0, 1), (0, 2), (1, 2), (2, 3)))),
            AggregatedValue(ValueKind.MAX, 3),
            (1, 1, 1, 0),
            "triangle with a pendant vertex; the triangle is the maximum clique",
        ),
        CanonicalExample(
            "domset-star4",
            DominatingSet(GraphData(4, ((0, 1), (0, 2), (0, 3)))),
            AggregatedValue(ValueKind.MIN, 1),
            (1, 0, 0, 0),
            "star graph; the hub alone dominates every vertex",
        ),
        CanonicalExample(
            "setcover-ring4",
            SetCover(SetCoverData(4, ((0, 1), (1, 2), (2, 3), (0, 3)))),
            AggregatedValue(ValueKind.MIN, 2),
            (1, 0, 1, 0),
            "four overlapping pair-sets in a ring; two opposite sets cover all",
        ),
        CanonicalExample(
            "maxcut-triangle",
            MaxCut(GraphData(3, ((0, 1), (1, 2), (0, 2)))),
            AggregatedValue(ValueKind.MAX, 2),
            (0, 0, 1),
            "triangle; any bipartition cuts exactly two of the three edges",
        ),
        CanonicalExample(
            "qubo-coupled-pair",
            Qubo(QuboData(2, ((1, -2), (-2, 1)))),
            AggregatedValue(ValueKind.MAX, 1),
            (1, 0),
            "two unit gains with a strong negative coupling; pick one variable",
        ),
        CanonicalExample(
            "ising-coupled-pair",
            SpinGlass(IsingData(2, ((0, -1), (-1, 0)), (1, 0))),
            AggregatedValue(ValueKind.MAX, 2),
            (0, 0),
            "ferromagnetic pair with a field on one spin; both spins down",
        ),
        CanonicalExample(
            "coloring-edge2",
            GraphColoring(GraphData(2, ((0, 1),)), 2),
            AggregatedValue(ValueKind.OR, True),
            (0, 1),
            "single edge with two colors; any proper 2-coloring works",
        ),
        CanonicalExample(
            "ilp-path4",
            Ilp(
                IlpData(
                    4,
                    ((0, 1),) * 4,
                    (
                        (((0, 1), (1, 1)), "<=", 1),
                        (((1, 1), (2, 1)), "<=", 1),
                        (((2, 1), (3, 1)), "<=", 1),
                    ),
                    (1, 1, 1, 1),
                    "max",
                )
            ),
            AggregatedValue(ValueKind.EXTREMUM, 2, True, SENSE_MAXIMIZE),
            (1, 0, 0, 1),
            "binary program with chained at-most-one constraints; optimum 2",
        ),
        CanonicalExample(
            "decision-mis-path4",
            DecisionProblem(IndependentSet(_p4()), 2),
            AggregatedValue(ValueKind.OR, True),
            (1, 0, 0, 1),
            "is there an independent set of size 2 on the 4-path? yes",
        ),
        CanonicalExample(
            "decision-vc-path4",
            DecisionProblem(VertexCover(_p4()), 2),
            AggregatedValue(ValueKind.OR, True),
            (0, 1, 1, 0),
            "is there a vertex cover of size 2 on the 4-path? yes",
        ),
    ]
    database: dict[VariantKey, CanonicalExample] = {}
    for example in examples:
        key = example.instance.variant_key()
        registry.lookup_key(key)
        if key in database:
            raise DocumentError(f"two examples for variant {key}")
        database[key] = example
    return database


def get_example(
    problem_name: str,
    registry: Registry | None = None,
    database: Mapping[VariantKey, CanonicalExample] | None = None,
) -> CanonicalExample:
    registry = registry or register_catalogue()
    if database is None:
        database = build_examples(registry)
    descriptor = registry.lookup(problem_name)
    example = database.get(descriptor.key)
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
    kinds = {k.value: k for k in ValueKind}
    if data.get("kind") not in kinds:
        raise DocumentError(f"unknown value kind {data.get('kind')!r}")
    return AggregatedValue(
        kinds[data["kind"]], data["payload"], data["feasible"], data.get("sense")
    )


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
    registry = registry or register_catalogue()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid example JSON: {exc}") from exc
    if not isinstance(payload, dict) or "examples" not in payload:
        raise DocumentError("example database must be an object with an 'examples' list")
    database: dict[VariantKey, CanonicalExample] = {}
    for entry in payload["examples"]:
        try:
            instance = instance_from_document(entry["instance"], registry)
            witness = entry["known_witness"]
            example = CanonicalExample(
                id=entry["id"],
                instance=instance,
                known_value=_value_from_data(entry["known_value"]),
                known_witness=tuple(witness) if witness is not None else None,
                narrative=entry["narrative"],
            )
        except KeyError as exc:
            raise DocumentError(f"example entry is missing field {exc}") from exc
        except TypeError as exc:
            raise DocumentError(f"malformed example entry: {exc}") from exc
        database[instance.variant_key()] = example
    return database
