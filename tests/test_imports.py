"""Import budget: each CLI stage loads only the pred modules it runs.

Every stage is a fresh process in a pipe, so a module it imports but does
not use costs start-up time on every call. The stages run here as real
interpreters (``python -m pred`` through ``runpy``), and each reports the
modules that appeared in ``sys.modules`` while it ran. Each command loads
its own handler module alone (``pred.cli_create``, ``cli_reduce``,
``cli_solve``, ``cli_flags`` or ``cli_browse``); the data flags' parsers
(``pred.cli_flags``) belong only to a ``create`` that reads them, and the
envelope decoder (``pred.cli_replay``) only to a stage whose input is an
envelope. The brute-force fold (``pred.fold``) belongs only to the stages
that fold, the branch-and-bound kernel (``pred.kernel``) only to a solve at
the ILP node, and its box kernel (``pred.kernel_box``) only to a program
that the 0-1 kernel does not take. The symbolic algebra (``pred.symbolic``,
which brings in ``fractions``) belongs only to the stages that print an
expression, since routing reads none. A problem class module
(``pred.problems.graph``, ``clique``, ``coloring``, ``decision``, ...)
belongs only to the stages that build or reduce to one of its classes, and
a forward-map module (``pred.problems.sat_to_mis``, ...) only to the stages
whose route runs one of its maps. Where no bytecode is written, a stage
compiles the source of every pred module it loads, so the size of that
source is pinned too (``STARTUP_PINS``).
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

# Runs one stage as ``python -m pred`` would, then prints (to stderr, since
# stdout carries the stage's own output) the modules the stage loaded, as the
# last line after any diagnostics of the stage's own.
STAGE = """
import json, runpy, sys
before = set(sys.modules)
sys.argv[0] = "pred"
try:
    runpy.run_module("pred", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(set(sys.modules) - before)
sys.stderr.write(json.dumps({"code": code, "loaded": loaded}))
"""

# Imports every submodule, then checks the package's lazy names.
NAMES = """
import importlib, json, pkgutil, sys
import pred
resolved = sorted(name for name in pred.__all__ if getattr(pred, name, None) is not None)
for info in pkgutil.iter_modules(pred.__path__):
    if info.name != "__main__":
        importlib.import_module(f"pred.{info.name}")
import pred.symbolic
print(json.dumps({
    "all": pred.__all__,
    "resolved": resolved,
    "dir_covers_all": set(pred.__all__) <= set(dir(pred)),
    "canonical_is_the_normaliser": pred.canonical is pred.symbolic.canonical,
}))
"""

# Imports the command line and builds the graph, then lists what that loaded.
GRAPH_BUILD = """
import json, sys
before = set(sys.modules)
import pred.cli, pred
pred.default_graph()
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# Resolves every lazy reference into the families: the class table, each
# rule's forward map and extractors, and each field-table constructor; then
# lists the modules of pred.problems that neither the class table nor any
# reference names.
RESOLVE = """
import json, pkgutil
import pred.problems as problems
from pred.graph import default_graph

unresolved = [
    name
    for names in problems.FAMILIES.values()
    for name in names.split()
    if getattr(problems, name, None) is None
]
refs = [problems.DATA_FIELDS[name][2] for name in sorted(problems.DATA_FIELDS)]
rules = default_graph().rules
for rule in rules:
    refs += [rule.forward, rule.config_extractor, rule.value_extractor]
eager = [
    name for name in sorted(problems.DATA_FIELDS)
    if not isinstance(problems.DATA_FIELDS[name][2], problems.FamilyRef)
] + [rule.name for rule in rules if not isinstance(rule.forward, problems.FamilyRef)]
refs = [ref for ref in refs if isinstance(ref, problems.FamilyRef)]
unresolved += [ref.name for ref in refs if not callable(ref.resolve())]
named = set(problems.FAMILIES) | {ref.name.split(".")[0] for ref in refs}
unnamed = sorted(info.name for info in pkgutil.iter_modules(problems.__path__)
                 if info.name not in named)
print(json.dumps({"unresolved": unresolved, "eager": eager, "unnamed": unnamed}))
"""

# Compares, hashes and prints every registered descriptor, a routed path and
# its envelope, and a descriptor whose complexity names an unknown measure,
# then lists what that loaded.
RECORDS = """
import json, sys
before = set(sys.modules)
from pred.graph import default_graph, reduce_along
from pred.model import ProblemTypeDescriptor, ValueKind
from pred.problems import instance_from_document

graph = default_graph()
lookup = graph.registry.lookup
path = graph.find_path(lookup("MIS").key, lookup("ILP").key)
instance = instance_from_document(json.loads(sys.argv[1]), graph.registry)
envelope = reduce_along(path, instance)
for record in (*graph.registry.variants(), path, envelope):
    assert record == record and hash(record) == hash(record) and repr(record)
bad = ProblemTypeDescriptor("X", (), ("n",), "2^m", ValueKind.MAX)
print(json.dumps({
    "equal": bad == ProblemTypeDescriptor("X", (), ("n",), "2^m", ValueKind.MAX),
    "differ": bad != ProblemTypeDescriptor("X", (), ("n",), "2^n", ValueKind.MAX),
    "hashes": hash(bad) == hash(ProblemTypeDescriptor("X", (), ("n",), "2^m", ValueKind.MAX)),
    "repr": repr(bad),
    "loaded": sorted(set(sys.modules) - before),
}))
"""

# Imports the command line alone, then reads the envelope codec through it.
CODEC = """
import json, sys
import pred.cli
loaded = sorted(sys.modules)
to_document, from_document = pred.cli.envelope_to_document, pred.cli.envelope_from_document
import pred.cli_reduce, pred.cli_replay
print(json.dumps({
    "loaded": loaded,
    "resolved": to_document is pred.cli_reduce.envelope_to_document
    and from_document is pred.cli_replay.envelope_from_document,
}))
"""

MIS = {"problem": "MIS", "data": {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}}
CORE = ["pred", "pred.cli", "pred.errors", "pred.model", "pred.problems"]
CREATE = [*CORE, "pred.cli_create"]
ROUTING = [*CORE, "pred.graph", "pred.rules"]
REDUCE = [*ROUTING, "pred.cli_reduce"]
SOLVE = [*ROUTING, "pred.cli_solve"]
FLAGS = "pred.cli_flags"
REPLAY = "pred.cli_replay"
SYMBOLIC = ("pred.symbolic", "fractions")
GRAPH_FAMILY = "pred.problems.graph"
ILP_FAMILY = "pred.problems.ilp"
KERNEL = "pred.kernel"
BOX_KERNEL = "pred.kernel_box"
# the problem class modules, and the modules that hold forward maps alone
CLASSES = {
    f"pred.problems.{m}"
    for m in ("graph", "clique", "domset", "maxcut", "coloring", "decision", "sat", "ilp", "qubo",
              "setcover")
}
MAPS = {
    f"pred.problems.{m}"
    for m in ("sat_to_mis", "coloring_to_sat", "graph_maps", "qubo_maps", "qubo_to_ilp")
}


def run_stage(*argv: str, stdin: str = "") -> tuple[str, dict]:
    result = subprocess.run(
        [sys.executable, "-c", STAGE, *argv], input=stdin, capture_output=True, text=True
    )
    report = json.loads(result.stderr.splitlines()[-1])
    assert report["code"] in (None, 0), result.stderr
    return result.stdout, report


def pred_modules(report: dict) -> list[str]:
    return sorted(m for m in report["loaded"] if m == "pred" or m.startswith("pred."))


def assert_no_symbolic(report: dict) -> None:
    assert not set(SYMBOLIC) & set(report["loaded"])


def test_create_from_flags_loads_only_the_registry_the_flags_and_the_family():
    _, report = run_stage("create", "MIS", "--graph", "0-1,1-2,2-3")
    assert pred_modules(report) == sorted([*CREATE, FLAGS, GRAPH_FAMILY])
    # no forward map, no decision wrapper and no graph class but MIS's
    assert not (MAPS | (CLASSES - {GRAPH_FAMILY})) & set(report["loaded"])
    assert_no_symbolic(report)


@pytest.mark.parametrize(
    "problem, modules",
    [
        ("MIS", ["graph"]),
        ("GC", ["graph", "coloring"]),
        ("SetCover", ["setcover"]),
        ("3SAT", ["sat"]),
        ("DecisionVC", ["graph", "decision"]),
    ],
)
def test_create_example_adds_the_example_database_and_the_class_modules(problem, modules):
    _, report = run_stage("create", problem, "--example")
    classes = [f"pred.problems.{m}" for m in modules]
    assert pred_modules(report) == sorted([*CREATE, "pred.examples", *classes])
    assert_no_symbolic(report)


def test_evaluate_loads_only_the_registry_the_flags_and_the_family():
    _, report = run_stage("evaluate", "-", "--config", "1,0,1,0", stdin=json.dumps(MIS))
    assert pred_modules(report) == sorted([*CORE, FLAGS, GRAPH_FAMILY])
    assert_no_symbolic(report)


def test_import_and_graph_build_leave_the_algebra_unloaded():
    result = subprocess.run([sys.executable, "-c", GRAPH_BUILD], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert {"pred.graph", "pred.rules", "pred.cli"} <= set(loaded)
    assert not set(SYMBOLIC) & set(loaded)


def test_the_envelope_codec_loads_with_the_pipe_stages_and_resolves_through_the_cli():
    result = subprocess.run([sys.executable, "-c", CODEC], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert not {"pred.cli_reduce", REPLAY, "pred.problems"} & set(report["loaded"])
    assert report["resolved"]


def test_import_and_graph_build_load_no_family():
    result = subprocess.run([sys.executable, "-c", GRAPH_BUILD], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert not (CLASSES | MAPS) & set(json.loads(result.stdout))


def test_reduce_loads_routing_and_the_route_families_but_not_the_solvers():
    _, report = run_stage("reduce", "-", "--to", "ILP", stdin=json.dumps(MIS))
    assert pred_modules(report) == sorted([*REDUCE, GRAPH_FAMILY, ILP_FAMILY])
    # a bare instance needs neither the envelope decoder nor solve's handler
    assert not {REPLAY, "pred.cli_solve"} & set(report["loaded"])
    assert_no_symbolic(report)


def test_the_3sat_route_loads_its_own_maps_and_not_the_coloring_map():
    instance, _ = run_stage("create", "3SAT", "--example")
    _, report = run_stage("reduce", "-", "--to", "ILP", stdin=instance)
    assert "pred.problems.sat_to_mis" in report["loaded"]
    assert "pred.problems.coloring_to_sat" not in report["loaded"]


@pytest.mark.parametrize("problem", ("MIS", "VC", "Clique", "SAT", "3SAT", "GC", "DecisionMIS"))
def test_routed_reduce_and_solve_read_no_expression(problem):
    instance, _ = run_stage("create", problem, "--example")
    envelope, report = run_stage("reduce", "-", "--to", "ILP", stdin=instance)
    assert json.loads(envelope)["path"]
    assert_no_symbolic(report)
    solved, report = run_stage("solve", "-", stdin=instance)
    assert "(via " in json.loads(solved)["solver"]
    assert_no_symbolic(report)


def test_solve_picks_between_two_solver_nodes_without_the_algebra():
    instance, _ = run_stage("create", "MaxCut", "--example")
    solved, report = run_stage("solve", "-", stdin=instance)
    assert json.loads(solved)["solver"] == "qubo (via QUBO)"
    assert_no_symbolic(report)


def test_solve_on_an_envelope_adds_the_decoder_the_solvers_and_only_the_route_families():
    envelope, _ = run_stage("reduce", "-", "--to", "ILP", stdin=json.dumps(MIS))
    _, report = run_stage("solve", "-", stdin=envelope)
    assert pred_modules(report) == sorted(
        [*SOLVE, REPLAY, "pred.solvers", KERNEL, GRAPH_FAMILY, ILP_FAMILY]
    )
    assert_no_symbolic(report)


@pytest.mark.parametrize("problem, box", [("MIS", False), ("QUBO", True)])
def test_only_a_program_off_the_zero_one_kernel_loads_the_box_kernel(problem, box):
    # MIS's rows are 0-1 with +1 coefficients; QUBO's linearisation has a 2
    instance, _ = run_stage("create", problem, "--example")
    envelope, _ = run_stage("reduce", "-", "--to", "ILP", stdin=instance)
    _, report = run_stage("solve", "-", stdin=envelope)
    assert KERNEL in report["loaded"]
    assert (BOX_KERNEL in report["loaded"]) is box


@pytest.mark.parametrize(
    "problem, solver",
    [("DecisionVC", "brute-force"), ("QUBO", "qubo"), ("MaxCut", "qubo (via QUBO)")],
)
def test_a_solve_off_the_ilp_node_leaves_the_kernel_unloaded(problem, solver):
    instance, _ = run_stage("create", problem, "--example")
    solved, report = run_stage("solve", "-", stdin=instance)
    assert json.loads(solved)["solver"] == solver
    assert "pred.solvers" in report["loaded"]
    assert KERNEL not in report["loaded"]


def test_show_names_the_solver_without_the_kernel():
    # the label is read off the graph's own solver table
    shown, report = run_stage("show", "MIS")
    assert "solver tier: via_ilp" in shown
    assert "pred.solvers" not in report["loaded"]
    assert KERNEL not in report["loaded"]


def test_every_family_reference_resolves():
    result = subprocess.run([sys.executable, "-c", RESOLVE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["unresolved"] == []
    # every constructor and forward map is reached through a family reference
    assert report["eager"] == []
    # and every module of pred.problems is a class module or holds a referenced map
    assert report["unnamed"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "-", "--to", "ILP", "--path"),
        ("path", "3SAT", "ILP"),
        ("show", "MIS"),
        ("list",),
    ],
    ids=" ".join,
)
def test_commands_that_read_expressions_load_the_algebra(argv):
    _, report = run_stage(*argv, stdin=json.dumps(MIS))
    assert "pred.symbolic" in report["loaded"]


@pytest.mark.parametrize(
    "argv",
    [
        ("create", "MIS", "--example"),
        ("create", "MIS", "--graph", "0-1"),
        ("reduce", "-", "--to", "ILP"),
        ("solve", "-"),
        ("evaluate", "-", "--config", "1,0,1,0"),
    ],
    ids=" ".join,
)
def test_no_stage_loads_dataclasses_or_inspect(argv):
    # nor the argument parser that the command table replaces, with its gettext and locale
    _, report = run_stage(*argv, stdin=json.dumps(MIS))
    forbidden = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    assert not forbidden & set(report["loaded"])


# (AST nodes, source lines) summed over the pred modules that each stage
# loads: the README pipeline's three stages, then four examples. The README
# solve reads the pipeline's envelope and solves at the ILP node; a stage
# named "<PROBLEM" reads that problem's example: DecisionVC's solve folds by
# brute force, without the kernel, 3SAT's reduce takes two hops to ILP and
# GC's solve four. Counted from the source text, so the pins hold on any
# machine; a change that moves one moves it on purpose.
STARTUP_PINS = {
    "create MIS --graph 0-1,1-2,2-3": (8164, 1639),
    "create GC --example": (8834, 1822),
    "reduce - --to ILP": (11222, 2207),
    "solve -": (16722, 3135),
    "solve - <DecisionVC": (13214, 2542),
    "reduce - --to ILP <3SAT": (12318, 2367),
    "solve - <GC": (17955, 3316),
}


def source_size(modules: list[str]) -> tuple[int, int]:
    nodes = lines = 0
    for name in modules:
        text = Path(importlib.import_module(name).__file__).read_text(encoding="utf-8")
        nodes += sum(1 for _ in ast.walk(ast.parse(text)))
        lines += len(text.splitlines())
    return nodes, lines


@pytest.mark.parametrize("stage", STARTUP_PINS)
def test_each_stage_compiles_its_pinned_source(stage):
    argv, _, example = stage.partition(" <")
    stdin = json.dumps(MIS)
    if example:
        stdin, _ = run_stage("create", example, "--example")
    elif argv == "solve -":
        stdin, _ = run_stage("reduce", "-", "--to", "ILP", stdin=stdin)
    _, report = run_stage(*argv.split(), stdin=stdin)
    assert source_size(pred_modules(report)) == STARTUP_PINS[stage]


@pytest.mark.parametrize("problem", ["DecisionVC", "QUBO"])
def test_a_solve_that_folds_adds_the_fold(problem):
    # DecisionVC by brute force, QUBO by the prefix walk at its solver node
    instance, _ = run_stage("create", problem, "--example")
    _, report = run_stage("solve", "-", stdin=instance)
    assert "pred.fold" in report["loaded"]


def test_every_public_name_resolves_and_canonical_stays_the_normaliser():
    result = subprocess.run([sys.executable, "-c", NAMES], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["resolved"] == report["all"]
    assert report["dir_covers_all"]
    assert report["canonical_is_the_normaliser"]


def test_comparing_hashing_and_printing_descriptors_parse_no_complexity():
    result = subprocess.run(
        [sys.executable, "-c", RECORDS, json.dumps(MIS)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["equal"] is True and report["differ"] is True and report["hashes"]
    assert "complexity='2^m'" in report["repr"]
    assert not set(SYMBOLIC) & set(report["loaded"])
