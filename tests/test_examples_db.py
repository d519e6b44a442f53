"""Canonical example database: integrity, lookup, and JSON round trips."""

from __future__ import annotations

import json

import pytest

from pred import (
    AggregatedValue,
    CanonicalExample,
    DocumentError,
    NoExampleError,
    PredError,
    ValueKind,
    build_examples,
    default_graph,
    examples_from_json,
    examples_to_json,
    get_example,
    verify_all_examples,
)

REGISTRY = default_graph().registry
DATABASE = build_examples(REGISTRY)

EXPECTED_IDS = {
    "3sat-two-clauses",
    "clique-triangle-tail",
    "coloring-edge2",
    "decision-mis-path4",
    "decision-vc-path4",
    "domset-star4",
    "ilp-path4",
    "ising-coupled-pair",
    "maxcut-triangle",
    "mis-path4",
    "mis-weighted-path3",
    "qubo-coupled-pair",
    "sat-two-clauses",
    "setcover-ring4",
    "vc-path4",
}


def test_every_variant_with_an_example_is_registered():
    assert set(DATABASE) <= {d.key for d in REGISTRY.variants()}


def test_database_covers_expected_ids():
    assert {e.id for e in DATABASE.values()} == EXPECTED_IDS
    assert len(DATABASE) == 15


def test_every_example_carries_witness_and_narrative():
    for example in DATABASE.values():
        assert example.known_witness is not None
        assert example.narrative


def test_verify_all_examples_is_clean():
    report = verify_all_examples(DATABASE)
    assert report.ok
    assert report.checked == 15
    assert report.mismatches == ()


def test_verify_flags_a_corrupted_value():
    corrupted = dict(DATABASE)
    key = REGISTRY.lookup("MIS").key
    original = corrupted[key]
    corrupted[key] = CanonicalExample(
        original.id,
        original.instance,
        AggregatedValue(ValueKind.MAX, 3, True),
        original.known_witness,
        original.narrative,
    )
    report = verify_all_examples(corrupted)
    assert not report.ok
    assert len(report.mismatches) == 1
    assert "mis-path4" in report.mismatches[0]
    assert "Max(3)" in report.mismatches[0]


def test_verify_flags_a_corrupted_witness():
    corrupted = dict(DATABASE)
    key = REGISTRY.lookup("MIS").key
    original = corrupted[key]
    corrupted[key] = CanonicalExample(
        original.id, original.instance, original.known_value, (1, 1, 0, 0), original.narrative
    )
    report = verify_all_examples(corrupted)
    assert len(report.mismatches) == 1
    assert "witness re-evaluates" in report.mismatches[0]


def test_get_example_by_alias():
    assert get_example("MIS", REGISTRY, DATABASE).id == "mis-path4"
    assert get_example("MaximumIndependentSet", REGISTRY, DATABASE).id == "mis-path4"
    assert get_example("ILP", REGISTRY, DATABASE).id == "ilp-path4"
    assert get_example("Ising", REGISTRY, DATABASE).id == "ising-coupled-pair"


def test_get_example_missing_lists_available():
    bare = {k: v for k, v in DATABASE.items() if v.id != "ilp-path4"}
    with pytest.raises(NoExampleError) as exc_info:
        get_example("ILP", REGISTRY, bare)
    message = str(exc_info.value)
    assert "no example for ILP" in message
    assert "MaximumIndependentSet" in message


def test_json_round_trip_lossless():
    text = examples_to_json(DATABASE)
    loaded = examples_from_json(text, REGISTRY)
    assert set(loaded) == set(DATABASE)
    for key, example in DATABASE.items():
        other = loaded[key]
        assert other.id == example.id
        assert other.instance == example.instance
        assert other.known_value == example.known_value
        assert other.known_witness == example.known_witness
        assert other.narrative == example.narrative


def test_json_re_export_is_byte_identical():
    text = examples_to_json(DATABASE)
    again = examples_to_json(examples_from_json(text, REGISTRY))
    assert again == text


def test_examples_from_json_rejects_junk():
    with pytest.raises(DocumentError):
        examples_from_json("not json", REGISTRY)
    with pytest.raises(DocumentError):
        examples_from_json("[1, 2]", REGISTRY)
    with pytest.raises(DocumentError):
        examples_from_json('{"examples": [{"id": "x"}]}', REGISTRY)


def test_examples_from_json_rejects_bad_value_kind():
    text = examples_to_json(DATABASE)
    broken = text.replace('"kind": "Max"', '"kind": "Best"', 1)
    with pytest.raises(DocumentError):
        examples_from_json(broken, REGISTRY)


def test_loaded_database_still_verifies():
    loaded = examples_from_json(examples_to_json(DATABASE), REGISTRY)
    assert verify_all_examples(loaded).ok


def _edited(edit) -> str:
    document = json.loads(examples_to_json(DATABASE))
    edit(document["examples"])
    return json.dumps(document)


@pytest.mark.parametrize(
    "text",
    [
        '{"examples": 5}',
        _edited(lambda entries: entries[0].update(known_value=[])),
        _edited(lambda entries: entries[0]["known_value"].update(feasible="yes")),
        _edited(lambda entries: entries[0].update(known_witness="ab")),
        _edited(lambda entries: entries.append(entries[0])),
    ],
    ids=["examples-not-a-list", "value-not-an-object", "feasible-not-a-bool",
         "witness-not-a-list", "two-entries-for-one-variant"],
)
def test_examples_from_json_rejects_malformed_entries(text):
    with pytest.raises(PredError):
        examples_from_json(text, REGISTRY)


def test_examples_from_json_checks_the_witness_against_the_instance():
    too_long = _edited(lambda entries: entries[0].update(known_witness=[0] * 11))
    with pytest.raises(PredError, match="^example 0: "):
        examples_from_json(too_long, REGISTRY)
