"""Reduction graph: routing, cost ordering, envelopes, topology reporting,
and round-trip verification along multi-step paths."""

from __future__ import annotations

import pytest

from pred import (
    AggregatedValue,
    CapabilityError,
    CnfData,
    Comparison,
    DuplicateRegistrationError,
    GraphData,
    IndependentSet,
    NoPathError,
    Qubo,
    QuboData,
    ReductionGraph,
    ReductionRule,
    Satisfiability,
    ThreeSatisfiability,
    TypeMismatchError,
    UnknownProblemError,
    Var,
    build_examples,
    compare,
    default_graph,
    evaluate,
    extract_along,
    extract_value_along,
    fold_space,
    reduce_along,
    render,
    render_overhead,
    round_trip_check,
    subst,
)
from pred.graph import solution_along
from pred.symbolic import vars_of

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
    report = GRAPH.topology_report()
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
    value, witness = solution_along(envelope, (1, 1, 0))
    assert (value.render(), value.feasible, witness) == ("Max(2)", False, None)
    value, witness = solution_along(envelope, (1, 0, 1))
    assert (value.render(), value.feasible, witness) == ("Max(2)", True, (1, 0, 1))


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
        ReductionGraph(REGISTRY, [*GRAPH.rules, twin])


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

def _collapse(expr):
    return subst(expr, {name: Var("t") for name in vars_of(expr)})


def _better(a, b) -> bool:
    """Independent re-statement of the path cost order."""
    verdict = compare(_collapse(a.estimated_cost), _collapse(b.estimated_cost))
    if verdict is Comparison.LOWER_GROWTH:
        return True
    if verdict is Comparison.HIGHER_GROWTH:
        return False
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
