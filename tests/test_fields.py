"""The field table: one decoder for instance documents and ``pred create`` flags.

``pred create`` turns its data flags into a data dict and decodes it with the
same table as ``pred solve``, so whatever ``create`` emits, ``solve`` accepts.
The property tests hold the exit-code contract for drawn documents, drawn
flag text and envelopes with one node replaced: a document is either an
instance or a ``PredError``, ``create`` exits 0 or 2, and ``solve`` and
``reduce`` exit with a contract code, all without a traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pred import (
    PredError,
    build_examples,
    cli,
    default_graph,
    evaluate,
    instance_from_document,
    instance_to_document,
)
from pred.problems import DATA_FIELDS

REGISTRY = default_graph().registry
EXAMPLES = build_examples(REGISTRY)
NAMES = sorted({descriptor.name for descriptor in REGISTRY.variants()})
PROPERTY = settings(derandomize=True, deadline=None, max_examples=20, database=None)

# valid data flags for every type that flags can build
FLAG_CASES = {
    "MaximumIndependentSet": ["--graph", "0-1,1-2,2-3"],
    "MinimumVertexCover": ["--graph", "0-1,1-2", "--vertices", "4"],
    "MaximumClique": ["--graph", "0-1,1-2,0-2,2-3"],
    "MinimumDominatingSet": ["--graph", "0-1,1-2,2-3"],
    "MaxCut": ["--graph", "0-1,1-2,0-2"],
    "GraphColoring": ["--graph", "0-1,1-2", "--colors", "2"],
    "Satisfiability": ["--clauses", "1,2;-1,2;1,-2"],
    "ThreeSatisfiability": ["--clauses", "1,2,3;-1,2,-3", "--variables", "4"],
    "DecisionMaximumIndependentSet": ["--graph", "0-1,1-2,2-3", "--bound", "2"],
    "DecisionMinimumVertexCover": ["--vertices", "3", "--bound", "0"],
}


def run_main(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_registered_type_has_a_field_table():
    assert sorted(DATA_FIELDS) == NAMES


def test_flag_cases_cover_every_type_with_data_flags():
    graph_or_cnf = {
        name
        for name, (required, _, _) in DATA_FIELDS.items()
        if "edges" in required or "clauses" in required
    }
    assert set(FLAG_CASES) == graph_or_cnf


@pytest.mark.parametrize(
    "name,flags",
    [*FLAG_CASES.items(), ("MaximumIndependentSet", ["--vertices", "3", "--weights", "2,1,5"])],
)
def test_created_documents_round_trip_through_the_decoder(name, flags):
    code, out, err = run_main(["create", name, *flags])
    assert code == 0, err
    document = json.loads(out)
    rebuilt = instance_from_document(document, REGISTRY)
    assert instance_to_document(rebuilt) == document


# --- exit-code contract, drawn inputs ------------------------------------------

_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=8)
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["max", "min", "<=", ">=", "="])
)
JSON = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["coeffs", "rel", "rhs", "x"]), children, max_size=4),
    max_leaves=10,
)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, path + (index,))


def _replaced(data: dict, path: tuple, value) -> dict:
    data = json.loads(json.dumps(data))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


def _data_dicts(name: str):
    """Free dicts over the table's fields, or the example's data with one node
    replaced: a field first, then a node inside it, so every field is hit."""
    required, optional, _ = DATA_FIELDS[name]
    fields = [*required, *optional, "stray"]
    free = st.fixed_dictionaries({}, optional={field: JSON for field in fields})
    example = next(e for e in EXAMPLES.values() if e.instance.type_name == name)
    base = instance_to_document(example.instance)["data"]
    nodes = {field: list(_paths(base[field], (field,))) for field in base}
    nodes["stray"] = [("stray",)]
    one_node_replaced = st.builds(
        lambda path, value: _replaced(base, path, value),
        st.sampled_from(sorted(nodes)).flatmap(lambda field: st.sampled_from(nodes[field])),
        st.integers(min_value=-2, max_value=6) | JSON,
    )
    return free | one_node_replaced


def _decodes_or_rejects(document: dict) -> None:
    """A document is a ``PredError`` or an instance that encodes, decodes and evaluates."""
    try:
        instance = instance_from_document(document, REGISTRY)
    except PredError:
        return
    encoded = instance_to_document(instance)
    assert instance_to_document(instance_from_document(encoded, REGISTRY)) == encoded
    # a count above sys.maxsize is rejected, but one like 2**40 still decodes and
    # its configuration space cannot be built in memory (ROADMAP item 6); only
    # instances of at most 64 variables are evaluated
    if max(instance.size_measures().values(), default=0) <= 64:
        evaluate(instance, (0,) * len(instance.config_dims()))


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(data=st.data())
def test_drawn_documents_raise_nothing_but_pred_errors(name, data):
    document = {"problem": name, "data": data.draw(_data_dicts(name))}
    if data.draw(st.booleans()):
        document["variant"] = data.draw(JSON)
    _decodes_or_rejects(document)


ODD_VALUES = [
    None, True, -1, 0, 2, 2**64, 1.5, "x", "max", [], [0], [[0, 1]], [[0, 1, 2]], {},
    {"coeffs": [1], "rel": "<=", "rhs": 1},
]


@pytest.mark.parametrize(
    "example", sorted(EXAMPLES.values(), key=lambda e: e.id), ids=lambda e: e.id
)
def test_every_one_node_replacement_raises_nothing_but_pred_errors(example):
    document = instance_to_document(example.instance)
    for path in _paths(document["data"], ()):
        if not path:
            continue
        for value in ODD_VALUES:
            _decodes_or_rejects(dict(document, data=_replaced(document["data"], path, value)))
    for stray in ("stray", "weights", "bound", "colors"):
        _decodes_or_rejects(dict(document, data={**document["data"], stray: 1}))


# the count fields size ranges and sequences, so none may exceed sys.maxsize
COUNTS = ("num_vertices", "num_variables", "num_elements", "n", "num_vars", "colors")


@pytest.mark.parametrize("name", NAMES)
def test_a_count_too_large_to_index_exits_2(name):
    # Counts that fit an index can still exhaust memory (a 10**8-vertex graph,
    # say); those stay open under ROADMAP item 6.
    example = next(e for e in EXAMPLES.values() if e.instance.type_name == name)
    document = instance_to_document(example.instance)
    fields = [field for field in COUNTS if field in document["data"]]
    assert fields
    for field in fields:
        for count in (sys.maxsize + 1, 2**64):
            text = json.dumps(dict(document, data={**document["data"], field: count}))
            for command in ("solve", "reduce --to ILP", "evaluate --config 0"):
                code, out, err = run_main([*command.split(), "-"], text)
                assert (code, out) == (2, ""), err
                assert err == f"pred: {field} must be at most {sys.maxsize}\n"


def test_create_rejects_a_count_too_large_to_index():
    code, out, err = run_main(["create", "MIS", "--vertices", str(2**64)])
    assert (code, out, err) == (2, "", f"pred: num_vertices must be at most {sys.maxsize}\n")


def _envelope_to_ilp(example) -> dict | None:
    document = json.dumps(instance_to_document(example.instance))
    code, out, _ = run_main(["reduce", "-", "--to", "ILP"], document)
    return json.loads(out) if code == 0 else None


# each canonical example with a witness-capable route to ILP, as its envelope
ENVELOPES = {
    example.id: envelope
    for example in EXAMPLES.values()
    if (envelope := _envelope_to_ilp(example)) is not None
}


def _exits_cleanly(envelope: dict) -> None:
    """``solve`` and ``reduce`` of the envelope exit with a contract code, and
    print nothing to stdout when they fail."""
    text = json.dumps(envelope)
    for argv in (["solve", "-"], ["reduce", "-", "--to", "ILP"]):
        code, out, err = run_main(argv, text)
        assert code in (0, 2, 3, 4, 5), (argv, err)
        assert code == 0 or out == "", (argv, out)


@pytest.mark.parametrize("example_id", sorted(ENVELOPES))
def test_every_odd_source_field_in_an_envelope_exits_cleanly(example_id):
    envelope = ENVELOPES[example_id]
    for field in envelope["source"]["data"]:
        for value in ODD_VALUES:
            _exits_cleanly(_replaced(envelope, ("source", "data", field), value))


@pytest.mark.parametrize("example_id", sorted(ENVELOPES))
@PROPERTY
@given(data=st.data())
def test_one_node_replaced_in_an_envelope_exits_cleanly(example_id, data):
    """A top-level field first, then a node inside it, so every section is hit."""
    envelope = ENVELOPES[example_id]
    section = data.draw(st.sampled_from(sorted(envelope)))
    path = data.draw(st.sampled_from(list(_paths(envelope[section], (section,)))))
    _exits_cleanly(_replaced(envelope, path, data.draw(st.sampled_from(ODD_VALUES))))


# data flag -> the data field it fills (README, "CLI tour")
FLAG_FIELDS = {
    "--graph": "edges",
    "--vertices": "num_vertices",
    "--weights": "weights",
    "--clauses": "clauses",
    "--variables": "num_variables",
    "--colors": "colors",
    "--bound": "bound",
}
_SMALL = st.integers(min_value=-3, max_value=12)
_TEXT = st.text(alphabet="0123456789-,; ", max_size=12) | st.text(max_size=6)
_FLAG_VALUES = {
    "--graph": _TEXT
    | st.lists(st.tuples(_SMALL, _SMALL), max_size=5).map(
        lambda edges: ",".join(f"{u}-{v}" for u, v in edges)
    ),
    "--weights": _TEXT | st.lists(_SMALL, max_size=6).map(lambda ws: ",".join(map(str, ws))),
    "--clauses": _TEXT
    | st.lists(st.lists(_SMALL, min_size=1, max_size=4), max_size=4).map(
        lambda clauses: ";".join(",".join(map(str, c)) for c in clauses)
    ),
}


@st.composite
def _create_argv(draw, name: str) -> list[str]:
    """Each flag the type takes half the time, each other flag one time in eight."""
    required, optional, _ = DATA_FIELDS[name]
    argv = ["create", name]
    for flag, field in FLAG_FIELDS.items():
        odds = 1 if field in required or field in optional else 7
        if draw(st.integers(min_value=0, max_value=odds)) != odds:
            continue
        value = draw(_FLAG_VALUES.get(flag, _SMALL))
        argv.append(f"{flag}={value}")
    return argv


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(data=st.data())
def test_drawn_create_flags_exit_0_or_2(name, data):
    code, out, err = run_main(data.draw(_create_argv(name)))
    if code == 0:
        document = json.loads(out)
        assert instance_to_document(instance_from_document(document, REGISTRY)) == document
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("pred: ") and err.count("\n") == 1
