"""Acceptance suite.

Each test is one acceptance criterion, asserts its tolerances and runtime
budget, and prints a single ACCEPTANCE line on success. Run with -s (or read
the -v test lines) for the per-criterion verdicts.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
import zlib

from pred import (
    GraphData,
    IndependentSet,
    build_examples,
    compare,
    Comparison,
    default_graph,
    evaluate,
    evaluate_expr,
    examples_from_json,
    examples_to_json,
    fold_space,
    parse_expr,
    round_trip_check,
    solve,
    subst,
    verify_all_examples,
)
from pred.rules import apply
from pred.symbolic import compose, vars_of

from generators import (
    make_rng,
    random_clique,
    random_coloring,
    random_domset,
    random_ilp,
    random_ising,
    random_maxcut,
    random_mis,
    random_qubo,
    random_sat,
    random_set_cover,
    random_3sat,
    random_vc,
)
from test_graph import _enumerate_best
from test_rules import _small_source
from test_symbolic import _random_poly

GRAPH = default_graph()
REGISTRY = GRAPH.registry
EXAMPLES = build_examples(REGISTRY)


def run_cli(*args: str, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "pred", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_acceptance_1_listing_pipeline():
    # the budget is the stages' own CPU time, which a busy host does not
    # stretch as it does their wall time
    cpu_before = _children_cpu_s()
    started = time.perf_counter()
    created = run_cli("create", "MIS", "--graph", "0-1,1-2,2-3")
    reduced = run_cli("reduce", "-", "--to", "ILP", stdin=created.stdout)
    solved = run_cli("solve", "-", "--pretty", stdin=reduced.stdout)
    elapsed = time.perf_counter() - started
    cpu = _children_cpu_s() - cpu_before

    assert created.returncode == reduced.returncode == solved.returncode == 0
    lines = solved.stdout.splitlines()
    assert lines[0] == 'Problem: "MaximumIndependentSet"'
    assert lines[1].startswith("Solver: ilp (via ")
    assert "ILP" in lines[1]
    assert lines[3] == 'Evaluation: "Max(2)"'
    # the witness may be any maximum independent set; check by re-evaluation
    witness = json.loads(lines[2].removeprefix("Solution: "))
    instance = IndependentSet(GraphData(4, ((0, 1), (1, 2), (2, 3))))
    value = evaluate(instance, tuple(witness))
    assert value.render() == "Max(2)"
    assert value.feasible
    assert cpu < 1.0
    print(
        f"ACCEPTANCE 1 PASS: listing pipeline reproduced "
        f"(CPU {cpu:.2f}s < 1s, wall {elapsed:.2f}s)"
    )


def test_acceptance_2_master_round_trip():
    started = time.perf_counter()
    count = 0
    for rule in GRAPH.rules:
        example = EXAMPLES[rule.source.key]
        report = round_trip_check(rule, example.instance)
        assert report.passed, f"{rule.name}: {report.detail}"
        count += 1
    elapsed = time.perf_counter() - started
    assert count >= 15
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 2 PASS: {count} rules round-trip on canonical examples "
        f"({elapsed:.2f}s < 30s)"
    )


FAMILIES = [
    ("mis", lambda rng: random_mis(rng, max_vertices=8)[0]),
    ("mis-weighted", lambda rng: random_mis(rng, max_vertices=8, weighted=True)[0]),
    ("vc", lambda rng: random_vc(rng, max_vertices=8)[0]),
    ("clique", lambda rng: random_clique(rng, max_vertices=8)[0]),
    ("domset", lambda rng: random_domset(rng, max_vertices=8)[0]),
    ("maxcut", lambda rng: random_maxcut(rng, max_vertices=5)[0]),
    ("coloring", lambda rng: random_coloring(rng, max_vertices=3, colors=2)[0]),
    ("sat", lambda rng: random_sat(rng, max_variables=4, max_clauses=4)[0]),
    ("3sat", lambda rng: random_3sat(rng, max_variables=4, max_clauses=4)[0]),
    ("qubo", lambda rng: random_qubo(rng, max_n=5)[0]),
    ("ising", lambda rng: random_ising(rng, max_n=4)[0]),
    ("setcover", lambda rng: random_set_cover(rng, max_sets=5, max_elements=6)[0]),
    ("ilp", lambda rng: random_ilp(rng, max_vars=5)[0]),
]


def test_acceptance_3_oracle_equivalence():
    started = time.perf_counter()
    routed = 0
    for example in sorted(EXAMPLES.values(), key=lambda e: e.id):
        result = solve(example.instance)
        folded = fold_space(example.instance)
        assert result.value.feasible == folded.value.feasible, example.id
        assert result.value.payload == folded.value.payload, example.id
        if result.solver_name != "brute-force":
            routed += 1
    assert routed >= 12  # every type with a witness route to a solver node, and the nodes

    checked = 0
    for name, build in FAMILIES:
        rng = make_rng(zlib.crc32(name.encode()) % 99991)
        for _ in range(100):
            instance = build(rng)
            result = solve(instance)
            folded = fold_space(instance)
            assert result.value.feasible == folded.value.feasible, name
            if folded.value.feasible:
                assert result.value.payload == folded.value.payload, name
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 100 * len(FAMILIES)
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 3 PASS: solve == brute force on {routed} canonical + "
        f"{checked} random instances ({elapsed:.2f}s < 60s)"
    )


def test_acceptance_4_overhead_soundness():
    def check(rule, instance):
        outcome = apply(rule, instance)
        source_sizes = instance.size_measures()
        target_sizes = outcome.target_instance.size_measures()
        assert set(target_sizes) == set(rule.overhead)
        for measure, expr in rule.overhead.items():
            bound = evaluate_expr(expr, source_sizes)
            assert target_sizes[measure] <= bound, (rule.name, measure)
        return source_sizes, target_sizes

    for rule in GRAPH.rules:
        check(rule, EXAMPLES[rule.source.key].instance)
        rng = make_rng(zlib.crc32(rule.name.encode()) & 0xFFFF)
        for _ in range(50):
            check(rule, _small_source(rule, rng))

    # the CNF-to-graph edge is exact in V and quadratic in E
    three_mis = GRAPH.rule_named("ThreeSatisfiability->MaximumIndependentSet")
    rng = make_rng(4242)
    for _ in range(50):
        instance = random_3sat(rng)[0]
        sizes, target = (
            instance.size_measures(),
            apply(three_mis, instance).target_instance.size_measures(),
        )
        assert target["V"] == sizes["L"]
        assert target["E"] <= sizes["L"] ** 2
    print("ACCEPTANCE 4 PASS: measured sizes within overhead bounds for all rules")


def test_acceptance_5_symbolic_laws():
    started = time.perf_counter()
    rng = make_rng(55_555)
    names = ("n", "m")
    for _ in range(500):
        f = {name: _random_poly(rng, names) for name in names}
        g = {name: _random_poly(rng, names) for name in names}
        h = {name: _random_poly(rng, names) for name in names}
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        point = {"n": rng.randint(0, 6), "m": rng.randint(0, 6)}
        for name in names:
            assert evaluate_expr(left[name], point) == evaluate_expr(
                right[name], point
            )
            # evaluation/composition coherence
            inner = {k: evaluate_expr(g[k], point) for k in names}
            assert evaluate_expr(compose(f, g)[name], point) == evaluate_expr(
                f[name], inner
            )
            # monotonicity on the nonnegative orthant
            bigger = {k: v + rng.randint(0, 3) for k, v in point.items()}
            assert evaluate_expr(f[name], bigger) >= evaluate_expr(f[name], point)

    base = parse_expr("1.1996^n")
    for degree in range(11):
        poly = parse_expr(f"n^{degree}") if degree else parse_expr("1")
        assert compare(poly, base) is Comparison.LOWER_GROWTH
        assert compare(base, poly) is Comparison.HIGHER_GROWTH
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"ACCEPTANCE 5 PASS: symbolic laws on 500 triples ({elapsed:.2f}s < 5s)")


def test_acceptance_6_topology_anchors():
    report = GRAPH.topology_report()
    all_names = {REGISTRY.display_name(d.key) for d in REGISTRY.variants()}
    expected_to_ilp = sorted(
        all_names - {"IntegerLinearProgram", "DecisionMinimumVertexCover"}
    )
    assert report["reachable_to_ilp"] == expected_to_ilp
    assert len(report["reachable_to_ilp"]) == 13
    from_3sat = set(report["reachable_from_3sat"])
    assert {
        "MaximumIndependentSet",
        "MinimumVertexCover",
        "MaximumClique",
        "IntegerLinearProgram",
        "QUBO",
    } <= from_3sat
    assert report["reachable_from_3sat"] == [
        "IntegerLinearProgram",
        "MaximumClique",
        "MaximumIndependentSet",
        "MaximumIndependentSet[weight=integer]",
        "MinimumVertexCover",
        "QUBO",
        "SpinGlass",
    ]
    assert report["isolated"] == ["DecisionMinimumVertexCover"]
    print("ACCEPTANCE 6 PASS: topology anchors match the shipped edge list")


def test_acceptance_7_path_optimality():
    started = time.perf_counter()
    keys = [d.key for d in REGISTRY.variants()]
    pairs = 0
    for require_witness in (True, False):
        for source in keys:
            for target in keys:
                routed = GRAPH.find_path(source, target, require_witness=require_witness)
                best = _enumerate_best(source, target, require_witness)
                if best is None:
                    assert routed is None, (source, target)
                else:
                    assert routed is not None and routed.rule_names() == best.rule_names()
                pairs += 1
    elapsed = time.perf_counter() - started
    assert pairs == 2 * len(keys) ** 2
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 7 PASS: find_path optimal on {pairs} routed pairs "
        f"({elapsed:.2f}s < 10s)"
    )


def test_acceptance_8_example_database_integrity():
    report = verify_all_examples(EXAMPLES)
    assert report.ok, report.mismatches
    assert report.checked == 15
    text = examples_to_json(EXAMPLES)
    loaded = examples_from_json(text, REGISTRY)
    assert loaded == EXAMPLES
    assert examples_to_json(loaded) == text
    print("ACCEPTANCE 8 PASS: 15 canonical examples verify; JSON round trip lossless")


GOLDEN_SUITE: list[tuple[list[str], str | None]] = [
    (["list"], None),
    (["list", "--stats"], None),
    (["path", "SAT", "ILP"], None),
    (["path", "MIS", "QUBO"], None),
    (["show", "MIS"], None),
    (["show", "QUBO"], None),
    (["create", "MIS", "--graph", "0-1,1-2,2-3"], None),
    (["create", "SAT", "--clauses", "1,2;-1,2;1,-2;-1,-2"], None),
]


def _run_golden_suite() -> str:
    chunks = []
    for args, stdin in GOLDEN_SUITE:
        result = run_cli(*args, stdin=stdin)
        chunks.append(f"$ pred {' '.join(args)} -> {result.returncode}\n")
        chunks.append(result.stdout)
        chunks.append(result.stderr)
    for example in sorted(EXAMPLES.values(), key=lambda e: e.id):
        name = REGISTRY.display_name(example.instance.variant_key())
        created = run_cli("create", name, "--example")
        chunks.append(created.stdout)
        solved = run_cli("solve", "-", stdin=created.stdout)
        chunks.append(solved.stdout)
    pipelineed = run_cli("create", "Clique", "--graph", "0-1,1-2,0-2,2-3")
    reduced = run_cli("reduce", "-", "--to", "ILP", stdin=pipelineed.stdout)
    solved = run_cli("solve", "-", "--pretty", stdin=reduced.stdout)
    chunks.extend([pipelineed.stdout, reduced.stdout, solved.stdout])
    return "".join(chunks)


def test_acceptance_9_determinism():
    first = _run_golden_suite()
    second = _run_golden_suite()
    assert first == second
    assert first  # the suite actually produced output
    print("ACCEPTANCE 9 PASS: golden CLI suite is byte-identical across runs")
