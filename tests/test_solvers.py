"""Solver dispatch and the branch-and-bound ILP backend."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import zlib
from unittest import mock

import pytest

from pred import (
    BudgetExceededError,
    CnfData,
    Clique,
    GraphColoring,
    GraphData,
    Ilp,
    IlpData,
    IndependentSet,
    MaxCut,
    Qubo,
    QuboData,
    ReductionGraph,
    SENSE_MAXIMIZE,
    SENSE_MINIMIZE,
    Satisfiability,
    SetCover,
    SetCoverData,
    SpinGlass,
    IsingData,
    ThreeSatisfiability,
    ValueKind,
    VertexCover,
    DominatingSet,
    cli,
    default_graph,
    evaluate,
    fold_space,
    instance_from_document,
    solve,
    solve_brute,
    solve_ilp,
    solver_label,
    shipped_rules,
)

from generators import (
    make_rng,
    random_cardinality_ilp,
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
from oracles import best_ilp, ilp_feasible

REGISTRY = default_graph().registry
P4 = GraphData(4, ((0, 1), (1, 2), (2, 3)))


def _gnp(rng, n, p):
    return tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)


def _point(data: IlpData, witness):
    # solver witnesses live in offset coordinates starting at each lower bound
    return tuple(x + lo for x, (lo, _) in zip(witness, data.var_bounds))


def test_solve_ilp_simple_max():
    data = IlpData(2, ((0, 3), (0, 3)), (((1, 2), "<=", 4),), (2, 3), "max")
    result = solve_ilp(data)
    assert result.solver_name == "ilp"
    assert result.value.kind is ValueKind.EXTREMUM
    assert result.value.sense == SENSE_MAXIMIZE
    assert result.value.payload == 7
    assert _point(data, result.witness) == (2, 1)


def test_solve_ilp_negative_coefficients_and_equality():
    data = IlpData(
        3,
        ((-3, 2), (1, 4), (-2, 0)),
        (
            ((2, -1, 3), "<=", 4),
            ((-1, 2, -2), ">=", -3),
            ((1, 1, 1), "=", 1),
        ),
        (-2, 3, 1),
        "min",
    )
    result = solve_ilp(data)
    assert result.value.payload == -3
    assert _point(data, result.witness) == (2, 1, -2)


def test_solve_ilp_offset_bounds_round_trip():
    data = IlpData(2, ((5, 8), (-4, -1)), (((1, 1), "<=", 5),), (1, 1), "max")
    result = solve_ilp(data)
    # evaluate() consumes the same offset coordinates the solver reports
    assert evaluate(Ilp(data), result.witness).payload == result.value.payload
    assert _point(data, result.witness) == (6, -1)
    assert result.value.payload == 5


def test_solve_ilp_infeasible_is_a_value_not_an_error():
    data = IlpData(1, ((0, 1),), (((1,), ">=", 2),), (1,), "max")
    result = solve_ilp(data)
    assert result.value.kind is ValueKind.EXTREMUM
    assert result.value.payload is None
    assert not result.value.feasible
    assert result.value.sense == SENSE_MAXIMIZE
    assert result.witness is None
    assert result.value.render() == "Extremum(none)"


def test_solve_ilp_min_sense_recorded():
    data = IlpData(1, ((0, 2),), (), (1,), "min")
    result = solve_ilp(data)
    assert result.value.sense == SENSE_MINIMIZE
    assert result.value.payload == 0


def test_solve_ilp_tie_keeps_first_incumbent():
    # both (1,0) and (0,1) score 1; ascending branch order finds (0,1) first
    data = IlpData(2, ((0, 1), (0, 1)), (((1, 1), "<=", 1),), (1, 1), "max")
    result = solve_ilp(data)
    assert result.value.payload == 1
    assert result.witness == (0, 1)


def test_solve_ilp_node_budget():
    data = IlpData(6, ((0, 1),) * 6, (((1,) * 6, "<=", 3),), (1,) * 6, "max")
    with pytest.raises(BudgetExceededError) as exc_info:
        solve_ilp(data, max_nodes=2)
    assert exc_info.value.limit == 2
    assert exc_info.value.nodes == 2
    assert exc_info.value.incumbent is None
    assert "branch-and-bound exceeded 2 nodes" in str(exc_info.value)


def test_budget_exhaustion_reports_the_incumbent_so_far():
    # MIS rows over G(40, 0.15): the search holds an incumbent long before
    # its optimum is proved
    n = 40
    rows = tuple(
        (tuple(1 if k in edge else 0 for k in range(n)), "<=", 1)
        for edge in _gnp(make_rng(4), n, 0.15)
    )
    data = IlpData(n, ((0, 1),) * n, rows, (1,) * n, "max")
    optimum = solve_ilp(data).value.payload
    with pytest.raises(BudgetExceededError) as exc_info:
        solve_ilp(data, max_nodes=40)
    assert exc_info.value.limit == 40
    assert exc_info.value.nodes == 40
    assert 0 < exc_info.value.incumbent <= optimum


def test_solve_ilp_random_against_enumeration():
    rng = make_rng(88)
    for _ in range(300):
        ilp, (bounds, constraints, objective, sense) = random_ilp(rng, max_vars=5)
        result = solve_ilp(ilp.data)
        expected, winners = best_ilp(bounds, constraints, objective, sense)
        if expected is None:
            assert not result.value.feasible
            assert result.witness is None
        else:
            assert result.value.feasible
            assert result.value.payload == expected
            point = _point(ilp.data, result.witness)
            assert ilp_feasible(point, constraints)
            # best_ilp enumerates the box in lexicographic order, so the
            # witness is pinned to the lexicographically smallest optimum
            assert point == winners[0]


def test_cardinality_row_bound_keeps_the_first_optimum():
    # packing, covering and split ``=`` rows over 0/1 variables are the rows
    # the cardinality relaxation reads; pre-fixed variables and zero or
    # negative gains exercise its capacity and least-bad choices
    rng = make_rng(2007)
    for _ in range(1000):
        ilp, (bounds, constraints, objective, sense) = random_cardinality_ilp(rng)
        result = solve_ilp(ilp.data)
        expected, winners = best_ilp(bounds, constraints, objective, sense)
        if expected is None:
            assert not result.value.feasible
            assert result.witness is None
        else:
            assert result.value.payload == expected
            assert _point(ilp.data, result.witness) == winners[0]


# --- dispatch ---------------------------------------------------------------------


def _decision(problem, data):
    document = {
        "problem": problem,
        "variant": {"graph": "simple", "weight": "unit"}
        if problem == "DecisionMaximumIndependentSet"
        else {"graph": "simple"},
        "data": data,
    }
    return instance_from_document(document, REGISTRY)


LABEL_CASES = [
    (Ilp(IlpData(2, ((0, 1), (0, 1)), (), (1, 1), "max")), "ilp"),
    (IndependentSet(P4), "ilp (via ILP)"),
    (IndependentSet(GraphData(3, ((0, 1),), (2, 1, 3))), "ilp (via ILP)"),
    (VertexCover(P4), "ilp (via ILP)"),
    (Clique(GraphData(4, ((0, 1), (1, 2), (2, 3), (0, 2)))), "ilp (via MIS -> ILP)"),
    (MaxCut(GraphData(3, ((0, 1), (1, 2)))), "ilp (via QUBO -> ILP)"),
    (SetCover(SetCoverData(3, ((0, 1), (1, 2), (0, 2)))), "ilp (via ILP)"),
    (DominatingSet(P4), "ilp (via SetCover -> ILP)"),
    (Qubo(QuboData(2, ((1, -2), (-2, 1)))), "ilp (via ILP)"),
    (Satisfiability(CnfData(2, ((1, 2), (-1, -2)))), "ilp (via 3SAT -> MIS -> ILP)"),
    (
        ThreeSatisfiability(CnfData(3, ((1, 2, 3), (-1, -2, -3)))),
        "ilp (via MIS -> ILP)",
    ),
    (
        GraphColoring(GraphData(3, ((0, 1), (1, 2))), 2),
        "ilp (via SAT -> 3SAT -> MIS -> ILP)",
    ),
    (SpinGlass(IsingData(2, ((0, 1), (1, 0)), (0, 0))), "brute-force"),
    (
        _decision(
            "DecisionMaximumIndependentSet",
            {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]], "bound": 2},
        ),
        "ilp (via MIS -> ILP)",
    ),
    (
        _decision(
            "DecisionMinimumVertexCover",
            {"num_vertices": 3, "edges": [[0, 1], [1, 2]], "bound": 1},
        ),
        "brute-force",
    ),
]


@pytest.mark.parametrize(
    "instance,label",
    LABEL_CASES,
    ids=[inst.type_name + "/" + label for inst, label in LABEL_CASES],
)
def test_solver_labels(instance, label):
    result = solve(instance)
    assert solver_label(result) == label


def test_solver_label_with_prefix_steps():
    rule = default_graph().rule_named("MaxCut->QUBO")
    qubo = Qubo(QuboData(2, ((1, -2), (-2, 1))))
    result = solve(qubo)
    assert solver_label(result, prefix_steps=(rule,)) == "ilp (via QUBO -> ILP)"


def _stdout(argv: list[str], stdin: str = "") -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize(
    "name", [REGISTRY.display_name(d.key) for d in REGISTRY.variants()]
)
def test_show_tier_names_the_solver_that_solve_runs(name):
    example = _stdout(["create", name, "--example"])
    solver = json.loads(_stdout(["solve", "-"], example))["solver"]
    if solver == "brute-force":
        tier = "brute_force_only"
    elif solver == "ilp":
        tier = "dedicated"
    else:
        assert solver.startswith("ilp (via ")
        tier = "via_ilp"
    assert f"\n  solver tier: {tier}\n" in _stdout(["show", name])


def test_solve_witness_reevaluates_to_reported_value():
    for instance, _ in LABEL_CASES:
        result = solve(instance)
        if result.witness is None:
            continue
        again = evaluate(instance, result.witness)
        assert again.payload == result.value.payload
        assert again.feasible == result.value.feasible


def test_solve_strips_witness_on_false_decision():
    unsat = Satisfiability(CnfData(2, ((1,), (-1,), (2,))))
    result = solve(unsat)
    assert result.value.render() == "Or(false)"
    assert result.witness is None

    triangle = GraphColoring(GraphData(3, ((0, 1), (1, 2), (0, 2))), 2)
    result = solve(triangle)
    assert result.value.render() == "Or(false)"
    assert result.witness is None


def test_solve_keeps_witness_on_true_decision():
    sat = Satisfiability(CnfData(2, ((1, 2), (-1, -2))))
    result = solve(sat)
    assert result.value.render() == "Or(true)"
    assert result.witness is not None
    assert evaluate(sat, result.witness).payload is True


FAMILIES = [
    ("mis", lambda rng: random_mis(rng, max_vertices=6)[0]),
    ("mis-weighted", lambda rng: random_mis(rng, max_vertices=6, weighted=True)[0]),
    ("vc", lambda rng: random_vc(rng, max_vertices=6)[0]),
    ("clique", lambda rng: random_clique(rng, max_vertices=6)[0]),
    ("domset", lambda rng: random_domset(rng, max_vertices=6)[0]),
    ("maxcut", lambda rng: random_maxcut(rng, max_vertices=4)[0]),
    ("coloring", lambda rng: random_coloring(rng, max_vertices=3)[0]),
    ("sat", lambda rng: random_sat(rng)[0]),
    ("3sat", lambda rng: random_3sat(rng)[0]),
    ("qubo", lambda rng: random_qubo(rng, max_n=3)[0]),
    ("ising", lambda rng: random_ising(rng)[0]),
    ("setcover", lambda rng: random_set_cover(rng)[0]),
    ("ilp", lambda rng: random_ilp(rng, max_vars=4)[0]),
]


@pytest.mark.parametrize("name,build", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_solve_matches_exhaustive_fold(name, build):
    rng = make_rng(zlib.crc32(name.encode()) % 100000)
    for _ in range(8):
        instance = build(rng)
        result = solve(instance)
        folded = fold_space(instance)
        assert result.value.feasible == folded.value.feasible
        if folded.value.feasible:
            assert result.value.payload == folded.value.payload


def test_solve_brute_agrees_with_dedicated():
    rng = make_rng(17)
    for _ in range(20):
        ilp, _ = random_ilp(rng, max_vars=3)
        dedicated = solve_ilp(ilp.data)
        brute = solve_brute(ilp)
        assert brute.solver_name == "brute-force"
        assert brute.value.feasible == dedicated.value.feasible
        if dedicated.value.feasible:
            assert brute.value.payload == dedicated.value.payload


# --- witness contract and scale ---------------------------------------------------


def test_mis_through_ilp_witness_matches_fold_space():
    rng = make_rng(31)
    for weighted in (False, True):
        for _ in range(15):
            instance, _ = random_mis(rng, max_vertices=9, weighted=weighted)
            result = solve(instance)
            assert solver_label(result) == "ilp (via ILP)"
            assert result.witness == fold_space(instance).witness


def test_deep_binary_ilp_solves_without_recursion():
    # the search is 1,200 levels deep, beyond Python's default recursion limit
    n = 1200
    data = IlpData(n, ((0, 1),) * n, (), (1,) * n, "min")
    result = solve_ilp(data)
    assert result.value.payload == 0
    assert result.witness == (0,) * n


def test_deep_binary_ilp_maximising_closes_at_the_root():
    # the optimistic point of the root satisfies every row, so it is the optimum
    n = 1200
    data = IlpData(n, ((0, 1),) * n, (), (1,) * n, "max")
    result = solve_ilp(data, max_nodes=10)
    assert result.value.payload == n
    assert result.witness == (1,) * n
    mixed = IlpData(n, ((0, 1),) * n, (), (1, -1) * (n // 2), "min")
    result = solve_ilp(mixed, max_nodes=10)
    assert result.value.payload == -(n // 2)
    assert result.witness == (0, 1) * (n // 2)


def test_huge_domains_stop_at_the_first_prunable_value():
    data = IlpData(2, ((0, 10**9), (0, 10**9)), (), (1, 1), "min")
    result = solve_ilp(data)
    assert result.value.payload == 0
    assert result.witness == (0, 0)




def test_routed_coloring_solves_within_a_node_budget():
    # GC -> SAT -> 3SAT -> MIS -> ILP; the cardinality-row bound over the MIS
    # stage's edge rows keeps this search within the budget
    instance = GraphColoring(GraphData(4, ((0, 1), (1, 2), (2, 3))), 3)
    result = solve(instance, max_nodes=50_000)
    assert result.value.render() == "Or(true)"
    assert evaluate(instance, result.witness).payload is True


def test_mis_g40_solves_within_a_node_budget():
    instance = IndependentSet(GraphData(40, _gnp(make_rng(40), 40, 0.15)))
    result = solve(instance, max_nodes=5_000)
    assert evaluate(instance, result.witness).payload == result.value.payload


INF = float("inf")


def _milp_optimum(objective, rows, lower, upper, sense):
    """Optimum of a binary program by HiGHS, which minimises; max is negated."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    sign = -1 if sense == "max" else 1
    c = sign * np.asarray(objective, dtype=float)
    constraint = LinearConstraint(np.asarray(rows, dtype=float), lower, upper)
    outcome = milp(
        c, constraints=constraint, integrality=np.ones(len(c)), bounds=Bounds(0, 1)
    )
    assert outcome.success
    return sign * round(outcome.fun)


def _assert_mis_matches_highs(n, edges):
    rows = [[1 if k in edge else 0 for k in range(n)] for edge in edges]
    expected = _milp_optimum([1] * n, rows, -INF, 1, "max")
    instance = IndependentSet(GraphData(n, edges))
    result = solve(instance)
    assert result.value.payload == expected
    assert evaluate(instance, result.witness).payload == expected


def test_solve_matches_highs_beyond_brute_force():
    pytest.importorskip("scipy")
    rng = make_rng(1960)
    for _ in range(3):
        _assert_mis_matches_highs(30, _gnp(rng, 30, 0.15))
    for _ in range(3):
        num_elements = 24
        sets = [tuple(sorted(rng.sample(range(num_elements), 4))) for _ in range(20)]
        sets.append(tuple(range(0, num_elements, 2)))
        sets.append(tuple(range(1, num_elements, 2)))
        rows = [[1 if e in s else 0 for s in sets] for e in range(num_elements)]
        expected = _milp_optimum([1] * len(sets), rows, 1, INF, "min")
        instance = SetCover(SetCoverData(num_elements, tuple(sets)))
        result = solve(instance)
        assert result.value.payload == expected
        assert evaluate(instance, result.witness).payload == expected
    _assert_mis_matches_highs(50, _gnp(rng, 50, 0.15))


def test_solver_route_is_searched_once_per_variant(monkeypatch):
    registry = default_graph().registry
    graph = ReductionGraph(registry, shipped_rules(registry))
    monkeypatch.setattr("pred.solvers.default_graph", lambda: graph)
    searches = []
    find_path = graph.find_path

    def counting_find_path(*args, **kwargs):
        searches.append(args)
        return find_path(*args, **kwargs)

    monkeypatch.setattr(graph, "find_path", counting_find_path)
    first = solve(GraphColoring(GraphData(3, ((0, 1), (1, 2))), 2))
    second = solve(GraphColoring(GraphData(4, ((0, 1), (1, 2), (2, 3))), 2))
    assert len(searches) == 1
    assert first.route is second.route and first.route.steps
    assert first.value.payload is True and second.value.payload is True
