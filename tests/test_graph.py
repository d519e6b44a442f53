"""Reduction graph: routing, cost ordering, envelopes, topology reporting,
and round-trip verification along multi-step paths."""

from __future__ import annotations

import time

import pytest

from pred import (
    AggregatedValue,
    CapabilityError,
    CnfData,
    DuplicateRegistrationError,
    GraphData,
    IndependentSet,
    NoPathError,
    ProblemTypeDescriptor,
    Qubo,
    QuboData,
    ReductionGraph,
    ReductionRule,
    Registry,
    SENSE_MAXIMIZE,
    Satisfiability,
    Solver,
    ThreeSatisfiability,
    TypeMismatchError,
    UnknownProblemError,
    ValueKind,
    build_examples,
    default_graph,
    evaluate,
    extract_along,
    extract_value_along,
    fold_space,
    reduce_along,
    render,
    render_overhead,
    round_trip_check,
)
from pred.cli_browse import topology_report
from pred.graph import solution_along

from generators import make_rng, random_mis

GRAPH = default_graph()
REGISTRY = GRAPH.registry
EXAMPLES = build_examples(REGISTRY)
P4 = GraphData(4, ((0, 1), (1, 2), (2, 3)))


def key(name: str):
    return REGISTRY.lookup(name).key


def _rule_with(rule: ReductionRule, **changes) -> ReductionRule:
    """A new rule with the fields of ``rule``, except those in ``changes``."""
    fields = {
        "name": rule.name,
        "source": rule.source,
        "target": rule.target,
        "overhead": rule.overhead,
        "forward": rule.forward,
        "config_extractor": rule.config_extractor,
        "value_extractor": rule.value_extractor,
    }
    return ReductionRule(**{**fields, **changes})


def test_default_graph_is_cached():
    assert default_graph() is GRAPH


def test_find_path_direct_edge():
    path = GRAPH.find_path(key("MIS"), key("ILP"))
    assert path is not None
    assert path.rule_names() == ("MaximumIndependentSet->IntegerLinearProgram",)
    assert render_overhead(path.composite_overhead) == "{n: V, c: E}"
    assert render(path.estimated_cost) == "2^V"


def test_find_path_two_hops():
    path = GRAPH.find_path(key("3SAT"), key("ILP"))
    assert path.rule_names() == (
        "ThreeSatisfiability->MaximumIndependentSet",
        "MaximumIndependentSet->IntegerLinearProgram",
    )
    assert render_overhead(path.composite_overhead) == "{n: L, c: L^2}"
    assert render(path.estimated_cost) == "2^L"


def test_find_path_identity():
    path = GRAPH.find_path(key("MIS"), key("MIS"))
    assert path.steps == ()
    assert render(path.estimated_cost) == "1.1996^V"


def test_find_path_none_when_unreachable():
    assert GRAPH.find_path(key("ILP"), key("3SAT")) is None
    assert GRAPH.find_path(key("ILP"), key("MIS")) is None


def test_find_path_unknown_variant():
    with pytest.raises(UnknownProblemError):
        GRAPH.find_path(("Mystery", ()), key("ILP"))


def test_require_witness_excludes_aggregate_edges():
    assert GRAPH.find_path(key("MIS"), key("QUBO")) is None
    relaxed = GRAPH.find_path(key("MIS"), key("QUBO"), require_witness=False)
    assert relaxed.rule_names() == ("MaximumIndependentSet->QUBO",)
    assert not relaxed.witness_capable


def test_reduction_to_cheaper_terminal_lowers_cost():
    # Clique folds in 2^V on its own; routing to MIS re-costs at 1.1996^V
    path = GRAPH.find_path(key("Clique"), key("MIS"))
    assert render(path.estimated_cost) == "1.1996^V"


def test_equal_cost_tie_broken_by_edge_count():
    path = GRAPH.find_path(key("Clique"), key("ILP"))
    assert path.rule_names() == (
        "MaximumClique->MaximumIndependentSet",
        "MaximumIndependentSet->IntegerLinearProgram",
    )


def test_make_path_rejects_disconnected_steps():
    first = GRAPH.rule_named("MaximumIndependentSet->MinimumVertexCover")
    second = GRAPH.rule_named("QUBO->IntegerLinearProgram")
    with pytest.raises(UnknownProblemError) as exc_info:
        GRAPH.make_path(first.source.key, (first, second))
    assert "endpoint-compatible" in str(exc_info.value)


def test_topology_report_exact():
    report = topology_report(GRAPH)
    assert report == {
        "isolated": ["DecisionMinimumVertexCover"],
        "reachable_from_3sat": [
            "IntegerLinearProgram",
            "MaximumClique",
            "MaximumIndependentSet",
            "MaximumIndependentSet[weight=integer]",
            "MinimumVertexCover",
            "QUBO",
            "SpinGlass",
        ],
        "reachable_to_ilp": [
            "DecisionMaximumIndependentSet",
            "GraphColoring",
            "MaxCut",
            "MaximumClique",
            "MaximumIndependentSet",
            "MaximumIndependentSet[weight=integer]",
            "MinimumDominatingSet",
            "MinimumSetCover",
            "MinimumVertexCover",
            "QUBO",
            "Satisfiability",
            "SpinGlass",
            "ThreeSatisfiability",
        ],
    }


def test_reduce_along_and_extract_along_two_hops():
    path = GRAPH.find_path(key("3SAT"), key("ILP"))
    three = ThreeSatisfiability(CnfData(3, ((1, 2, 3), (-1, 2, -3))))
    envelope = reduce_along(path, three)
    assert envelope.target_instance.type_name == "IntegerLinearProgram"
    target_best = fold_space(envelope.target_instance)
    config = extract_along(envelope, target_best.witness)
    assert evaluate(three, config).payload is True


def test_solution_along_withholds_the_witness_of_an_infeasible_value():
    path = GRAPH.find_path(key("MIS"), key("ILP"))
    envelope = reduce_along(path, IndependentSet(GraphData(3, ((0, 1), (1, 2)))))
    target_value = AggregatedValue(ValueKind.EXTREMUM, 2, True, SENSE_MAXIMIZE)
    value, witness = solution_along(envelope, target_value, (1, 1, 0))
    assert (value.render(), value.feasible, witness) == ("Max(2)", False, None)
    value, witness = solution_along(envelope, target_value, (1, 0, 1))
    assert (value.render(), value.feasible, witness) == ("Max(2)", True, (1, 0, 1))


def test_solution_along_keeps_the_value_of_an_answer_with_no_witness():
    path = GRAPH.find_path(key("MIS"), key("ILP"))
    envelope = reduce_along(path, IndependentSet(GraphData(3, ((0, 1), (1, 2)))))
    empty = AggregatedValue(ValueKind.EXTREMUM, None, False, SENSE_MAXIMIZE)
    assert solution_along(envelope, empty, None) == (empty, None)


def test_reduce_along_rejects_wrong_source_instance():
    path = GRAPH.find_path(key("MIS"), key("ILP"))
    wrong = Qubo(QuboData(1, ((1,),)))
    with pytest.raises(UnknownProblemError):
        reduce_along(path, wrong)


def test_reduce_along_wraps_step_errors():
    def explode(instance):
        raise ValueError("boom")

    healthy = GRAPH.rule_named("MaximumIndependentSet->MinimumVertexCover")
    broken = _rule_with(healthy, forward=explode)
    path = GRAPH.make_path(key("MIS"), (broken,))
    with pytest.raises(ValueError) as exc_info:
        reduce_along(path, IndependentSet(P4))
    assert str(exc_info.value) == (
        "step 0 (MaximumIndependentSet->MinimumVertexCover): boom"
    )


class _PairError(Exception):
    def __init__(self, left, right):
        super().__init__(f"{left} clashes with {right}")
        self.left = left
        self.right = right


def test_reduce_along_keeps_step_error_class_and_attributes():
    def explode(instance):
        raise _PairError("u", "v")

    healthy = GRAPH.rule_named("MaximumIndependentSet->MinimumVertexCover")
    broken = _rule_with(healthy, forward=explode)
    path = GRAPH.make_path(key("MIS"), (broken,))
    with pytest.raises(_PairError) as exc_info:
        reduce_along(path, IndependentSet(P4))
    assert (exc_info.value.left, exc_info.value.right) == ("u", "v")
    assert str(exc_info.value) == (
        "step 0 (MaximumIndependentSet->MinimumVertexCover): u clashes with v"
    )


def test_extract_value_along_aggregate_chain():
    steps = (
        GRAPH.rule_named("MaximumIndependentSet->QUBO"),
        GRAPH.rule_named("QUBO->SpinGlass"),
    )
    path = GRAPH.make_path(key("MIS"), steps)
    envelope = reduce_along(path, IndependentSet(P4))
    target_value = fold_space(envelope.target_instance).value
    back = extract_value_along(envelope, target_value)
    assert back.payload == 2


def test_extract_along_needs_witness_capable_path():
    steps = (GRAPH.rule_named("MaximumIndependentSet->QUBO"),)
    path = GRAPH.make_path(key("MIS"), steps)
    envelope = reduce_along(path, IndependentSet(P4))
    with pytest.raises(CapabilityError):
        extract_along(envelope, (1, 0, 0, 1))


def test_round_trip_check_on_witness_path():
    path = GRAPH.find_path(key("3SAT"), key("ILP"))
    three = ThreeSatisfiability(CnfData(3, ((1, 2, 3), (-1, 2, -3))))
    report = round_trip_check(path, three)
    assert report.passed
    assert report.rule_names == path.rule_names()


def test_round_trip_check_on_value_path():
    steps = (
        GRAPH.rule_named("MaximumIndependentSet->QUBO"),
        GRAPH.rule_named("QUBO->SpinGlass"),
    )
    path = GRAPH.make_path(key("MIS"), steps)
    report = round_trip_check(path, IndependentSet(P4))
    assert report.passed


def test_round_trip_check_mixed_path_has_no_capability():
    steps = (
        GRAPH.rule_named("MaximumIndependentSet->QUBO"),  # value only
        GRAPH.rule_named("QUBO->IntegerLinearProgram"),  # witness only
    )
    path = GRAPH.make_path(key("MIS"), steps)
    with pytest.raises(CapabilityError):
        round_trip_check(path, IndependentSet(P4))


def test_round_trip_check_of_a_rule_is_that_of_its_one_step_path():
    for rule in GRAPH.rules:
        instance = EXAMPLES[rule.source.key].instance
        by_rule = round_trip_check(rule, instance)
        by_path = round_trip_check(GRAPH.make_path(rule.source.key, (rule,)), instance)
        assert by_rule.passed, f"{rule.name}: {by_rule.detail}"
        assert by_rule == by_path, rule.name


def test_round_trip_check_reports_a_wrong_value_extractor():
    good = GRAPH.rule_named("MaximumIndependentSet->QUBO")

    def off_by_one(data, value):
        right = good.value_extractor(data, value)
        return AggregatedValue(right.kind, right.payload + 1, right.feasible)

    bad = _rule_with(good, value_extractor=off_by_one)
    report = round_trip_check(bad, IndependentSet(P4))
    assert not report.passed
    assert report.detail == "mismatch: 2 != 3"


def test_round_trip_check_without_a_witness_on_either_side():
    unsatisfiable = Satisfiability(CnfData(1, ((1,), (-1,))))
    rule = GRAPH.rule_named("Satisfiability->ThreeSatisfiability")
    report = round_trip_check(rule, unsatisfiable)
    assert report.passed
    assert report.extracted_value is None
    assert report.detail == "ok (no witness on either side)"


def test_graph_rejects_two_rules_on_one_pair():
    rule = GRAPH.rule_named("MaximumIndependentSet->MinimumVertexCover")
    twin = _rule_with(rule, name="another MaximumIndependentSet->MinimumVertexCover")
    with pytest.raises(DuplicateRegistrationError):
        ReductionGraph(REGISTRY, [*GRAPH.rules, twin], GRAPH.solvers.values())


def test_graph_rejects_a_solver_at_an_unknown_problem():
    solvers = [*GRAPH.solvers.values(), Solver("NoSuchProblem", "nothing", fold_space)]
    with pytest.raises(UnknownProblemError):
        ReductionGraph(REGISTRY, GRAPH.rules, solvers)


def test_graph_rejects_two_solvers_at_one_node():
    # an alias names the same node as the type name
    twin = Solver("ILP", "another ilp", fold_space)
    with pytest.raises(DuplicateRegistrationError):
        ReductionGraph(REGISTRY, GRAPH.rules, [*GRAPH.solvers.values(), twin])


def test_graph_solvers_are_read_only():
    # a solver route is searched once and remembered, so the table it reads
    # must not change after the graph is built
    ilp = REGISTRY.lookup("ILP").key
    with pytest.raises(TypeError):
        GRAPH.solvers[ilp] = Solver("ILP", "another ilp", fold_space)
    with pytest.raises(TypeError):
        del GRAPH.solvers[ilp]
    assert GRAPH.solvers[ilp].label == "ilp"


def test_chaining_matches_sequential_application():
    from pred.rules import apply

    rng = make_rng(301)
    first = GRAPH.rule_named("MaximumIndependentSet->MinimumVertexCover")
    second = GRAPH.rule_named("MinimumVertexCover->IntegerLinearProgram")
    path = GRAPH.make_path(key("MIS"), (first, second))
    for _ in range(10):
        mis, _ = random_mis(rng, max_vertices=6)
        envelope = reduce_along(path, mis)
        step1 = apply(first, mis)
        step2 = apply(second, step1.target_instance)
        assert envelope.target_instance == step2.target_instance
        assert [o.extraction for o in envelope.stack] == [
            step1.extraction,
            step2.extraction,
        ]


# --- optimality against exhaustive enumeration ----------------------------------

def _better(a, b) -> bool:
    """Independent re-statement of the route rule: the fewest steps, then the
    smallest tuple of rule names."""
    return (len(a.steps), a.rule_names()) < (len(b.steps), b.rule_names())


def _enumerate_best(source, target, require_witness, max_edges=5):
    if source == target:
        return GRAPH.make_path(source, ())
    best = None

    def walk(node, visited, steps):
        nonlocal best
        if len(steps) >= max_edges:
            return
        for rule in GRAPH.outgoing(node):
            if require_witness and not rule.witness_capable:
                continue
            nxt = rule.target.key
            if nxt in visited:
                continue
            steps.append(rule)
            if nxt == target:
                candidate = GRAPH.make_path(source, tuple(steps))
                if best is None or _better(candidate, best):
                    best = candidate
            else:
                visited.add(nxt)
                walk(nxt, visited, steps)
                visited.remove(nxt)
            steps.pop()

    walk(source, {source}, [])
    return best


@pytest.mark.parametrize("require_witness", (True, False), ids=("witness", "all-edges"))
def test_find_path_matches_enumeration_on_all_pairs(require_witness):
    keys = [d.key for d in REGISTRY.variants()]
    for source in keys:
        for target in keys:
            routed = GRAPH.find_path(source, target, require_witness=require_witness)
            enumerated = _enumerate_best(source, target, require_witness)
            if enumerated is None:
                assert routed is None, (source, target)
            else:
                assert routed is not None, (source, target)
                assert routed.rule_names() == enumerated.rule_names(), (source, target)


# --- the cost rule on synthetic catalogues --------------------------------------

def _synthetic_graph(
    seed: int, num_types: int, num_rules: int, solvers: tuple = ()
) -> ReductionGraph:
    """A seeded catalogue: rules on distinct pairs of types, a cycle through
    the first four types among them, names shuffled against the endpoints,
    and about a quarter of the rules without a witness extractor; ``solvers``
    are its solver nodes."""
    rng = make_rng(seed)
    types = [
        ProblemTypeDescriptor(f"T{i}", (), ("n",), "2^n", ValueKind.MAX)
        for i in range(num_types)
    ]
    registry = Registry(types)
    pairs = [(i, (i + 1) % 4) for i in range(4)]
    while len(pairs) < num_rules:
        pair = tuple(rng.sample(range(num_types), 2))
        if pair not in pairs:
            pairs.append(pair)
    names = rng.sample(range(num_rules), num_rules)
    rules = [
        ReductionRule(
            f"r{name:03d}",
            types[source],
            types[target],
            {"n": "n"},
            None,
            (lambda data, config: config) if rng.random() < 0.75 else None,
        )
        for name, (source, target) in zip(names, pairs)
    ]
    return ReductionGraph(registry, rules, solvers)


def _fewest_steps_by_enumeration(graph, source, target, require_witness):
    """The smallest (steps, rule names) over every simple path."""
    best = None

    def walk(node, visited, steps):
        nonlocal best
        if node == target:
            candidate = (len(steps), tuple(rule.name for rule in steps))
            best = candidate if best is None else min(best, candidate)
            return
        for rule in graph.outgoing(node):
            nxt = rule.target.key
            if nxt not in visited and (rule.witness_capable or not require_witness):
                walk(nxt, visited | {nxt}, steps + [rule])

    walk(source, {source}, [])
    return best


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("require_witness", (True, False), ids=("witness", "all-edges"))
def test_find_path_takes_the_fewest_steps_then_the_smallest_names(seed, require_witness):
    graph = _synthetic_graph(seed, num_types=10, num_rules=20)
    keys = [d.key for d in graph.registry.variants()]
    for source in keys:
        for target in keys:
            routed = graph.find_path(source, target, require_witness=require_witness)
            expected = _fewest_steps_by_enumeration(graph, source, target, require_witness)
            found = None if routed is None else (len(routed.steps), routed.rule_names())
            assert found == expected, (source, target)


def test_find_path_routes_every_pair_of_a_large_catalogue_within_ten_cpu_seconds():
    graph = _synthetic_graph(100, num_types=100, num_rules=200)
    keys = [d.key for d in graph.registry.variants()]
    # CPU time of this process, so that other work on the host does not count
    began = time.process_time()
    routes = {(s, t): graph.find_path(s, t) for s in keys for t in keys}
    assert time.process_time() - began < 10.0
    reached = {}
    for source in keys:
        reached[source] = seen = {source}
        frontier = [source]
        while frontier:
            for rule in graph.outgoing(frontier.pop()):
                if rule.witness_capable and rule.target.key not in seen:
                    seen.add(rule.target.key)
                    frontier.append(rule.target.key)
    for (source, target), route in routes.items():
        assert (route is not None) == (target in reached[source]), (source, target)
    assert max(len(route.steps) for route in routes.values() if route) >= 10


def test_solver_route_takes_the_nearest_of_two_solver_nodes_of_a_large_catalogue():
    nodes = ("T23", "T77")
    solvers = [Solver(name, name.lower(), fold_space) for name in nodes]
    graph = _synthetic_graph(100, num_types=100, num_rules=200, solvers=solvers)
    targets = [graph.registry.lookup(name).key for name in nodes]
    served = {target: 0 for target in targets}
    longest = 0
    for source in (d.key for d in graph.registry.variants()):
        route = graph.solver_route(source)
        enumerated = [_fewest_steps_by_enumeration(graph, source, t, True) for t in targets]
        expected = min((found for found in enumerated if found is not None), default=None)
        found = None if route is None else (len(route.steps), route.rule_names())
        assert found == expected, source
        if route is not None:
            assert graph.solvers[route.target].label == route.target_type.name.lower()
            served[route.target] += 1
            longest = max(longest, len(route.steps))
    # each node is the nearest for many sources, some of them many steps away
    assert min(served.values()) >= 30
    assert longest >= 10
