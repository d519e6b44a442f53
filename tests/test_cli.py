"""End-to-end CLI behaviour through real subprocesses.

Everything here shells out to ``python -m pred`` so argument parsing, stream
handling, JSON wire formats, and exit codes are all exercised exactly as a
user would hit them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from pred import build_examples, default_graph, evaluate, instance_from_document

GRAPH = default_graph()
REGISTRY = GRAPH.registry
EXAMPLES = build_examples(REGISTRY)

LISTING_GRAPH = "0-1,1-2,2-3"


def run_cli(*args: str, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "pred", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def pipeline(*stages: list[str], stdin: str | None = None):
    """Chain stages stdin->stdout like a shell pipeline; return the last result."""
    current = stdin
    result = None
    for stage in stages:
        result = run_cli(*stage, stdin=current)
        assert result.returncode == 0, result.stderr
        current = result.stdout
    return result


def test_create_emits_single_line_sorted_json():
    result = run_cli("create", "MIS", "--graph", LISTING_GRAPH)
    assert result.returncode == 0
    assert result.stdout.count("\n") == 1
    document = json.loads(result.stdout)
    assert document == {
        "problem": "MaximumIndependentSet",
        "variant": {"graph": "simple", "weight": "unit"},
        "data": {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
    }
    assert result.stdout.strip() == json.dumps(document, sort_keys=True)


def test_full_pipeline_pretty_output():
    result = pipeline(
        ["create", "MIS", "--graph", LISTING_GRAPH],
        ["reduce", "-", "--to", "ILP"],
        ["solve", "-", "--pretty"],
    )
    assert result.stdout == (
        'Problem: "MaximumIndependentSet"\n'
        "Solver: ilp (via ILP)\n"
        "Solution: [0, 1, 0, 1]\n"
        'Evaluation: "Max(2)"\n'
    )


def test_solve_json_document_shape():
    result = pipeline(
        ["create", "MIS", "--graph", LISTING_GRAPH],
        ["reduce", "-", "--to", "ILP"],
        ["solve", "-"],
    )
    document = json.loads(result.stdout)
    assert document == {
        "problem": "MaximumIndependentSet",
        "solver": "ilp (via ILP)",
        "solution": [0, 1, 0, 1],
        "evaluation": "Max(2)",
        "value": {"kind": "Max", "payload": 2},
    }


def test_envelope_document_shape():
    result = pipeline(
        ["create", "MIS", "--graph", LISTING_GRAPH],
        ["reduce", "-", "--to", "ILP"],
    )
    envelope = json.loads(result.stdout)
    assert envelope["kind"] == "envelope"
    assert envelope["trace_version"] == 1
    assert envelope["path"] == ["MaximumIndependentSet->IntegerLinearProgram"]
    assert envelope["source"]["problem"] == "MaximumIndependentSet"
    assert envelope["target"]["problem"] == "IntegerLinearProgram"
    assert len(envelope["trace"]) == 1


def test_reduce_envelope_extends_the_path():
    result = pipeline(
        ["create", "MaxCut", "--graph", "0-1,1-2,0-2"],
        ["reduce", "-", "--to", "QUBO"],
        ["reduce", "-", "--to", "ILP"],
    )
    envelope = json.loads(result.stdout)
    assert envelope["path"] == [
        "MaxCut->QUBO",
        "QUBO->IntegerLinearProgram",
    ]
    assert envelope["source"]["problem"] == "MaxCut"
    solved = run_cli("solve", "-", "--pretty", stdin=result.stdout)
    assert solved.returncode == 0
    lines = solved.stdout.splitlines()
    assert lines[0] == 'Problem: "MaxCut"'
    assert lines[1] == "Solver: ilp (via QUBO -> ILP)"
    assert lines[3] == 'Evaluation: "Max(2)"'


def test_reduce_path_flag_reports_route_on_stderr():
    created = run_cli("create", "3SAT", "--clauses", "1,2,3;-1,2,-3")
    result = run_cli("reduce", "-", "--to", "ILP", "--path", stdin=created.stdout)
    assert result.returncode == 0
    assert result.stderr.splitlines() == [
        "route: 2 step(s)",
        "  ThreeSatisfiability->MaximumIndependentSet  {V: L, E: L^2}",
        "  MaximumIndependentSet->IntegerLinearProgram  {n: V, c: E}",
        "composite: {n: L, c: L^2}",
        "estimated cost: 2^L",
    ]
    json.loads(result.stdout)


def test_solve_instance_directly():
    created = run_cli("create", "ILP", "--example")
    result = run_cli("solve", "-", stdin=created.stdout)
    document = json.loads(result.stdout)
    assert document["solver"] == "ilp"
    assert document["evaluation"] == "Extremum(2)"


def test_exit_2_on_invalid_graph():
    result = run_cli("create", "MIS", "--graph", "0-0")
    assert result.returncode == 2
    assert result.stderr.startswith("pred: ")
    assert "self-loop" in result.stderr


def test_exit_2_on_unknown_problem():
    result = run_cli("create", "Sudoku", "--graph", "0-1")
    assert result.returncode == 2


def test_exit_2_on_bad_json():
    result = run_cli("solve", "-", stdin="this is not json\n")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "-"),
        ("reduce", "-", "--to", "ILP"),
        ("evaluate", "-", "--config", "0"),
        ("create", "MIS", "--file", "-"),
    ],
    ids=" ".join,
)
def test_exit_2_on_deeply_nested_json(argv):
    # json.loads recurses once per level; past the interpreter's limit it
    # raises RecursionError, which must reach the user as bad input
    result = run_cli(*argv, stdin="[" * 100_000 + "\n")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "pred: invalid JSON input: nested too deeply\n"


ILP_DATA = {"num_vars": 1, "bounds": [[0, 1]], "constraints": [], "objective": [1], "sense": "max"}
ENVELOPE = {"kind": "envelope", "trace_version": 1, "source": {}, "path": [], "target": {}}


@pytest.mark.parametrize(
    "document",
    [
        {"problem": "QUBO", "data": {"n": "2", "q": [[1, 0], [0, 1]]}},
        {"problem": "QUBO", "data": {"n": 2, "q": 5}},
        {"problem": "ILP", "variant": 5, "data": ILP_DATA},
        {**ENVELOPE, "trace": 3},
        {"problem": "MIS", "data": {"num_vertices": 3, "edges": 5}},
        {"problem": "MIS", "data": {"num_vertices": True, "edges": []}},
    ],
    ids=["qubo-n-string", "qubo-q-int", "ilp-variant-int", "envelope-trace-int",
         "mis-edges-int", "mis-count-bool"],
)
def test_exit_2_on_wrongly_typed_document_fields(document):
    result = run_cli("solve", "-", stdin=json.dumps(document))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("pred: ")
    assert result.stderr.count("\n") == 1


def test_exit_2_on_missing_required_data():
    # QUBO has no flag syntax; it needs --example or --file
    result = run_cli("create", "QUBO")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "args,flag",
    [
        (["VC", "--graph", "0-1,1-2", "--weights", "2,3,4"], "--weights"),
        (["Clique", "--graph", "0-1,1-2", "--weights", "2,3,4"], "--weights"),
        (["DominatingSet", "--graph", "0-1,1-2", "--weights", "2,3,4"], "--weights"),
        (["MaxCut", "--graph", "0-1,1-2", "--weights", "2,3,4"], "--weights"),
        (["GC", "--graph", "0-1,1-2", "--colors", "2", "--weights", "2,3,4"], "--weights"),
        (["DecisionVC", "--graph", "0-1,1-2", "--bound", "1", "--weights", "2,3,4"], "--weights"),
        (["DecisionMIS", "--graph", "0-1,1-2", "--bound", "1", "--weights", "2,3,4"], "--weights"),
        (["MIS", "--graph", "0-1", "--colors", "3"], "--colors"),
        (["SAT", "--clauses", "1,2;-1", "--graph", "0-1"], "--graph"),
        (["MIS", "--graph", "0-1", "--clauses", "1,2"], "--clauses"),
    ],
    ids=lambda case: " ".join(case) if isinstance(case, list) else case,
)
def test_create_rejects_a_flag_the_problem_does_not_take(args, flag):
    result = run_cli("create", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("pred: ")
    assert result.stderr.count("\n") == 1
    assert flag in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "args,flag",
    [
        (["MIS", "--example", "--graph", "0-1"], "--graph"),
        (["MIS", "--example", "--graph", "0-1", "--colors", "3"], "--graph"),
        (["GC", "--example", "--colors", "3"], "--colors"),
        (["DecisionVC", "--example", "--bound", "1"], "--bound"),
        (["SAT", "--example", "--variables", "5"], "--variables"),
        (["MIS", "--example", "--file", "{file}"], "--file"),
        (["MIS", "--file", "{file}", "--weights", "1,1,1,1"], "--weights"),
        (["MIS", "--file", "{file}", "--vertices", "9"], "--vertices"),
    ],
    ids=lambda case: " ".join(case) if isinstance(case, list) else case,
)
def test_create_rejects_a_flag_its_source_would_not_read(args, flag, tmp_path):
    document = tmp_path / "mis.json"
    document.write_text(run_cli("create", "MIS", "--example").stdout)
    result = run_cli("create", *(arg.format(file=document) for arg in args))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("pred: ")
    assert result.stderr.count("\n") == 1
    assert flag in result.stderr
    assert "Traceback" not in result.stderr


def test_exit_3_when_no_reduction_path():
    created = run_cli("create", "ILP", "--example")
    result = run_cli("reduce", "-", "--to", "MIS", stdin=created.stdout)
    assert result.returncode == 3
    assert "IntegerLinearProgram" in result.stderr
    assert "MaximumIndependentSet" in result.stderr


def test_exit_3_when_only_aggregate_path_exists():
    created = run_cli("create", "MIS", "--graph", LISTING_GRAPH)
    result = run_cli("reduce", "-", "--to", "QUBO", stdin=created.stdout)
    assert result.returncode == 3


def test_exit_4_on_node_budget():
    created = run_cli("create", "Clique", "--graph", "0-1,1-2,0-2,2-3")
    reduced = run_cli("reduce", "-", "--to", "ILP", stdin=created.stdout)
    result = run_cli("solve", "-", "--max-nodes", "2", stdin=reduced.stdout)
    assert result.returncode == 4
    assert "branch-and-bound exceeded 2 nodes" in result.stderr


def test_exit_4_on_qubo_node_budget(tmp_path):
    # the bounded QUBO search charges each prefix it bounds as one node
    n = 20
    q = [[(3 * i + 5 * j + i * j) % 7 - 3 for j in range(n)] for i in range(n)]
    q = [[q[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    path = tmp_path / "qubo.json"
    path.write_text(json.dumps({"problem": "QUBO", "data": {"n": n, "q": q}}))
    result = run_cli("solve", str(path), "--max-nodes", "10")
    assert (result.returncode, result.stdout) == (4, "")
    assert "bounded search exceeded 10 nodes" in result.stderr
    assert run_cli("solve", str(path)).returncode == 0


# Clique solves through ILP, DecisionVC by brute force
@pytest.mark.parametrize("problem", ["Clique", "DecisionVC"])
@pytest.mark.parametrize("flag", ["--max-nodes", "--max-configs"])
def test_exit_2_on_negative_budget(problem, flag):
    created = run_cli("create", problem, "--example")
    result = run_cli("solve", "-", flag, "-1", stdin=created.stdout)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"pred: {flag} must be at least 0\n"


@pytest.mark.parametrize(
    "problem,flag", [("Clique", "--max-nodes"), ("DecisionVC", "--max-configs")]
)
def test_exit_4_on_zero_budget(problem, flag):
    created = run_cli("create", problem, "--example")
    result = run_cli("solve", "-", flag, "0", stdin=created.stdout)
    assert (result.returncode, result.stdout) == (4, "")


def test_exit_5_on_infeasible_program(tmp_path):
    document = {
        "problem": "IntegerLinearProgram",
        "variant": {},
        "data": {
            "num_vars": 1,
            "bounds": [[0, 1]],
            "constraints": [{"coeffs": [1], "rel": ">=", "rhs": 2}],
            "objective": [1],
            "sense": "max",
        },
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(document))
    result = run_cli("solve", str(path))
    assert result.returncode == 5
    assert "empty feasible region" in result.stderr


def test_exit_2_on_a_coefficient_row_of_the_wrong_length(tmp_path):
    document = {
        "problem": "ILP",
        "data": {
            "num_vars": 1,
            "bounds": [[0, 1]],
            "constraints": [{"coeffs": [1, 2], "rel": "<=", "rhs": 1}],
            "objective": [1],
            "sense": "max",
        },
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(document))
    for args in (("solve", str(path)), ("create", "ILP", "--file", str(path))):
        result = run_cli(*args)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "pred: constraint coefficient length != variable count\n"


def test_deep_ilp_solves_without_traceback(tmp_path):
    n = 1200
    document = {
        "problem": "IntegerLinearProgram",
        "variant": {},
        "data": {
            "num_vars": n,
            "bounds": [[0, 1]] * n,
            "constraints": [],
            "objective": [1] * n,
            "sense": "min",
        },
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(document))
    result = run_cli("solve", str(path))
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert json.loads(result.stdout)["value"]["payload"] == 0


def test_envelope_tamper_detected():
    envelope_json = pipeline(
        ["create", "MIS", "--graph", LISTING_GRAPH],
        ["reduce", "-", "--to", "ILP"],
    ).stdout
    envelope = json.loads(envelope_json)

    bumped = dict(envelope, trace_version=2)
    assert run_cli("solve", "-", stdin=json.dumps(bumped)).returncode == 2

    # corrupt the stored target instance
    broken_target = json.loads(json.dumps(envelope))
    broken_target["target"]["data"]["objective"][0] = 99
    assert run_cli("solve", "-", stdin=json.dumps(broken_target)).returncode == 2

    # corrupt the per-step extraction trace
    broken_trace = json.loads(json.dumps(envelope))
    broken_trace["trace"][0] = {"tampered": True}
    assert run_cli("solve", "-", stdin=json.dumps(broken_trace)).returncode == 2

    # drop a required field
    missing = {k: v for k, v in envelope.items() if k != "trace"}
    assert run_cli("solve", "-", stdin=json.dumps(missing)).returncode == 2


def _doctor_version(envelope):
    envelope["trace_version"] = 1.0


def _doctor_target(envelope):
    envelope["target"]["data"]["objective"][0] = True


def _doctor_trace(envelope):
    envelope["trace"][0]["num_vars"] = 4.0


@pytest.mark.parametrize(
    "doctor",
    [_doctor_version, _doctor_target, _doctor_trace],
    ids=["version-float", "target-bool-for-int", "trace-float-for-int"],
)
def test_exit_2_on_an_envelope_field_equal_in_value_but_not_in_json_type(doctor):
    envelope = json.loads(pipeline(
        ["create", "MIS", "--graph", LISTING_GRAPH],
        ["reduce", "-", "--to", "ILP"],
    ).stdout)
    assert envelope["trace"] == [{"num_vars": 4}]
    doctor(envelope)
    result = run_cli("solve", "-", stdin=json.dumps(envelope))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("pred: ")
    assert result.stderr.count("\n") == 1


def test_evaluate_golden_lines():
    created = run_cli("create", "MIS", "--graph", LISTING_GRAPH).stdout
    good = run_cli("evaluate", "-", "--config", "0,1,0,1", stdin=created)
    assert good.stdout == "Max(2) feasible\n"
    clash = run_cli("evaluate", "-", "--config", "1,1,0,0", stdin=created)
    assert clash.stdout == "Max(2) infeasible\n"
    empty = run_cli("evaluate", "-", "--config", "0,0,0,0", stdin=created)
    assert empty.stdout == "Max(0) feasible\n"


def test_evaluate_rejects_wrong_length():
    created = run_cli("create", "MIS", "--graph", LISTING_GRAPH).stdout
    result = run_cli("evaluate", "-", "--config", "0,1", stdin=created)
    assert result.returncode == 2


def test_path_command_golden():
    result = run_cli("path", "3SAT", "ILP")
    assert result.returncode == 0
    assert result.stdout.splitlines() == [
        "ThreeSatisfiability->MaximumIndependentSet  {V: L, E: L^2}",
        "MaximumIndependentSet->IntegerLinearProgram  {n: V, c: E}",
        "composite: {n: L, c: L^2}",
        "estimated cost: 2^L",
    ]


def test_path_command_identity():
    result = run_cli("path", "MIS", "MIS")
    assert result.stdout.splitlines() == [
        "identity (source equals target; no reduction applied)",
        "composite: {V: V, E: E}",
        "estimated cost: 1.1996^V",
    ]


def test_path_command_exit_3():
    result = run_cli("path", "ILP", "SAT")
    assert result.returncode == 3


def test_show_command():
    result = run_cli("show", "MIS")
    lines = result.stdout.splitlines()
    assert lines[0] == "MaximumIndependentSet"
    assert "  kind: Max" in lines
    assert "  size measures: V, E" in lines
    assert "  complexity: 1.1996^V" in lines
    assert "  solver tier: via_ilp" in lines
    assert any(line.startswith("  example: mis-path4") for line in lines)


@pytest.mark.parametrize(
    "problem,tier", [("QUBO", "dedicated"), ("MaxCut", "via_qubo"), ("ILP", "dedicated")]
)
def test_show_names_the_solver_node_of_the_route(problem, tier):
    lines = run_cli("show", problem).stdout.splitlines()
    assert f"  solver tier: {tier}" in lines


def test_show_weighted_variant_tags():
    result = run_cli("show", "MaximumIndependentSet[weight=integer]")
    lines = result.stdout.splitlines()
    assert lines[0] == "MaximumIndependentSet[weight=integer]"
    assert any("variant:" in line and "weight=integer" in line for line in lines)


def test_list_command():
    result = run_cli("list")
    lines = result.stdout.splitlines()
    assert len(lines) == 15
    assert any(line.startswith("MaximumIndependentSet ") for line in lines)
    assert any(line.startswith("QUBO ") for line in lines)


def test_list_stats_appends_topology_report():
    result = run_cli("list", "--stats")
    lines = result.stdout.splitlines()
    assert len(lines) == 16
    report = json.loads(lines[-1])
    assert len(report["reachable_to_ilp"]) == 13
    assert len(report["reachable_from_3sat"]) == 7
    assert report["isolated"] == ["DecisionMinimumVertexCover"]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_early_ends_the_command_quietly(unbuffered):
    # like ``pred list | head -n 1``, but the reader is gone before the first
    # write, so every write (or the final flush) meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pred", "list", "--stats"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0
    assert result.stderr == ""


def test_create_example_for_every_canonical_entry():
    for example in EXAMPLES.values():
        name = REGISTRY.display_name(example.instance.variant_key())
        result = run_cli("create", name, "--example")
        assert result.returncode == 0, (name, result.stderr)
        document = json.loads(result.stdout)
        instance = instance_from_document(document, REGISTRY)
        assert instance == example.instance


def test_create_from_file_round_trip(tmp_path):
    created = run_cli("create", "VC", "--graph", LISTING_GRAPH).stdout
    path = tmp_path / "vc.json"
    path.write_text(created)
    result = run_cli("create", "VC", "--file", str(path))
    assert result.returncode == 0
    assert result.stdout == created


def test_create_from_file_type_mismatch(tmp_path):
    created = run_cli("create", "VC", "--graph", LISTING_GRAPH).stdout
    path = tmp_path / "vc.json"
    path.write_text(created)
    result = run_cli("create", "MIS", "--file", str(path))
    assert result.returncode == 2


def test_missing_input_file_is_exit_2():
    result = run_cli("solve", "/nonexistent/input.json")
    assert result.returncode == 2


def _witness_targets(source_key):
    targets = []
    for descriptor in REGISTRY.variants():
        if descriptor.key == source_key:
            continue
        path = GRAPH.find_path(source_key, descriptor.key, require_witness=True)
        if path is not None and path.steps:
            targets.append(descriptor.key)
    return targets


def test_pipe_composability_across_examples():
    """create --example | reduce --to T | solve must reproduce the known value
    for every canonical example and every witness-reachable target."""
    checked = 0
    for example in sorted(EXAMPLES.values(), key=lambda e: e.id):
        source_key = example.instance.variant_key()
        source_name = REGISTRY.display_name(source_key)
        for target_key in _witness_targets(source_key):
            target_name = REGISTRY.display_name(target_key)
            result = pipeline(
                ["create", source_name, "--example"],
                ["reduce", "-", "--to", target_name],
                ["solve", "-"],
            )
            document = json.loads(result.stdout)
            assert document["problem"] == source_name, (example.id, target_name)
            witness = document["solution"]
            value = evaluate(example.instance, tuple(witness))
            assert value.feasible, (example.id, target_name)
            assert value.payload == example.known_value.payload, (
                example.id,
                target_name,
            )
            checked += 1
    assert checked > 30


def test_byte_identical_reruns():
    for args, stdin in [
        (["create", "MIS", "--graph", LISTING_GRAPH], None),
        (["list", "--stats"], None),
        (["path", "SAT", "ILP"], None),
    ]:
        first = run_cli(*args, stdin=stdin)
        second = run_cli(*args, stdin=stdin)
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    chain = [
        ["create", "Clique", "--graph", "0-1,1-2,0-2,2-3"],
        ["reduce", "-", "--to", "ILP"],
        ["solve", "-"],
    ]
    assert pipeline(*chain).stdout == pipeline(*chain).stdout
