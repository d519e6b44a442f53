"""Brute-force self-checks, and the example database's JSON form.

What the test suite runs against the library and no command does: a
reduction's round trip compared at both ends by brute force
(``round_trip_check``), every stored example optimum derived again
(``verify_all_examples``), and the example database written to JSON and
read back with every field checked (``examples_to_json``,
``examples_from_json``). No ``pred`` command loads this module.
"""

from __future__ import annotations

import json
from typing import Mapping

from .errors import CapabilityError, DocumentError, PredError, Record
from .examples import CanonicalExample, _by_variant, build_examples
from .graph import ReductionPath, extract_value_along, reduce_along, solution_along
from .model import (
    DEFAULT_NODE_BUDGET,
    AggregatedValue,
    Problem,
    Registry,
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
from .rules import ReductionRule

# --- reductions --------------------------------------------------------------


class RoundTripReport(Record):
    rule_names: tuple[str, ...]
    passed: bool
    source_optimum: AggregatedValue
    extracted_value: AggregatedValue | None
    detail: str


def _values_equal(a: AggregatedValue, b: AggregatedValue) -> bool:
    return a.feasible == b.feasible and a.payload == b.payload


def round_trip_check(
    rule_or_path: ReductionRule | ReductionPath,
    instance: Problem,
    *,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> RoundTripReport:
    """Brute-force both endpoints of a reduction and compare via extraction."""
    path = rule_or_path
    if isinstance(path, ReductionRule):
        path = ReductionPath(path.source, path.target, (path,))
    names = path.rule_names()
    if not (path.witness_capable or all(rule.value_capable for rule in path.steps)):
        raise CapabilityError(
            f"path {' / '.join(names)} is neither witness- nor value-extractable end to end"
        )
    envelope = reduce_along(path, instance)
    source_fold = fold_space(instance, max_nodes=max_nodes)
    target_fold = fold_space(envelope.target_instance, max_nodes=max_nodes)

    if path.witness_capable:
        if target_fold.witness is None:
            passed = source_fold.witness is None
            detail = (
                "ok (no witness on either side)"
                if passed
                else f"target produced no witness but source optimum is {source_fold.value.render()}"
            )
            return RoundTripReport(names, passed, source_fold.value, None, detail)
        extracted, _ = solution_along(envelope, target_fold.value, target_fold.witness)
    else:
        extracted = extract_value_along(envelope, target_fold.value)

    passed = _values_equal(extracted, source_fold.value)
    detail = "ok" if passed else f"mismatch: {source_fold.value.payload} != {extracted.payload}"
    return RoundTripReport(names, passed, source_fold.value, extracted, detail)


# --- the example database ----------------------------------------------------


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
