"""Reduction rules: forward-construction semantics against oracles, witness
and value extraction, overhead soundness, and rule validation."""

from __future__ import annotations

import json
import zlib

import pytest

from pred import (
    AggregatedValue,
    CapabilityError,
    CnfData,
    DecisionProblem,
    DomainError,
    GraphData,
    Ilp,
    IlpData,
    IndependentSet,
    KindError,
    MaxCut,
    Qubo,
    QuboData,
    RegistrationError,
    Satisfiability,
    SetCover,
    SetCoverData,
    SpinGlass,
    ThreeSatisfiability,
    TypeMismatchError,
    ValueKind,
    VertexCover,
    default_graph,
    evaluate,
    fold_space,
    parse_expr,
    evaluate_expr,
    instance_from_document,
    instance_to_document,
    round_trip_check,
)
from pred.model import SENSE_MAXIMIZE, ProblemTypeDescriptor
from pred.problems import register_catalogue
from pred.rules import (
    ReductionRule,
    _validate_rule,
    apply,
    extract_solution,
    extract_value,
    shipped_rules,
)
from pred.solvers import _stored_rows
from pred.symbolic import vars_of

import oracles
from generators import (
    dense_rows,
    make_rng,
    random_3sat,
    random_coloring,
    random_domset,
    random_ilp,
    random_ising,
    random_maxcut,
    random_mis,
    random_qubo,
    random_sat,
    random_set_cover,
    random_vc,
)

GRAPH = default_graph()
RULES = {rule.name: rule for rule in GRAPH.rules}
P4 = GraphData(4, ((0, 1), (1, 2), (2, 3)))


def rule(name: str) -> ReductionRule:
    return RULES[name]


def test_shipped_rule_inventory():
    assert len(GRAPH.rules) == 19
    aggregate_only = {name for name, r in RULES.items() if not r.witness_capable}
    assert aggregate_only == {
        "MaximumIndependentSet->QUBO",
        "QUBO->SpinGlass",
        "SpinGlass->QUBO",
    }
    # the cast is the only rule carrying both extraction styles
    both = {name for name, r in RULES.items() if r.witness_capable and r.value_capable}
    assert both == {"MaximumIndependentSet->MaximumIndependentSet[weight=integer]"}


def test_apply_rejects_wrong_instance_type():
    with pytest.raises(TypeMismatchError):
        apply(rule("MaximumIndependentSet->IntegerLinearProgram"), VertexCover(P4))


def test_extract_value_needs_a_value_map():
    outcome = apply(rule("MaxCut->QUBO"), MaxCut(GraphData(2, ((0, 1),))))
    with pytest.raises(CapabilityError):
        extract_value(outcome, AggregatedValue(ValueKind.MAX, 1))


def test_extract_solution_needs_a_config_map():
    outcome = apply(rule("MaximumIndependentSet->QUBO"), IndependentSet(P4))
    with pytest.raises(CapabilityError):
        extract_solution(outcome, (1, 0, 0, 1))


def test_extract_value_checks_kind():
    outcome = apply(rule("MaximumIndependentSet->QUBO"), IndependentSet(P4))
    with pytest.raises(KindError):
        extract_value(outcome, AggregatedValue(ValueKind.MIN, 1))


def test_extract_solution_validates_config():
    outcome = apply(rule("MaximumIndependentSet->IntegerLinearProgram"), IndependentSet(P4))
    with pytest.raises(DomainError):
        extract_solution(outcome, (2, 0, 0, 0))


# --- forward constructions, rule by rule ---------------------------------------

def test_sat_to_3sat_splits_long_clauses():
    sat = Satisfiability(CnfData(4, ((1, 2, 3, 4), (-1, -2))))
    outcome = apply(rule("Satisfiability->ThreeSatisfiability"), sat)
    target = outcome.target_instance
    assert target.cnf.num_variables == 5  # one fresh chain variable
    assert all(len(c) <= 3 for c in target.cnf.clauses)
    assert tuple(target.cnf.clauses[-1]) == (-1, -2)


def test_sat_to_3sat_equisatisfiable_random():
    rng = make_rng(201)
    split = rule("Satisfiability->ThreeSatisfiability")
    for _ in range(40):
        sat, (n, clauses) = random_sat(rng, max_variables=4, max_clauses=4)
        target = apply(split, sat).target_instance
        assert oracles.satisfiable(n, clauses) == oracles.satisfiable(
            target.cnf.num_variables, target.cnf.clauses
        )


def test_3sat_to_mis_optimum_counts_clauses():
    convert = rule("ThreeSatisfiability->MaximumIndependentSet")
    rng = make_rng(202)
    for _ in range(40):
        three, (n, clauses) = random_3sat(rng)
        mis = apply(convert, three).target_instance
        alpha, _ = oracles.best_independent_set(
            mis.graph.num_vertices, mis.graph.edges
        )
        satisfiable = oracles.satisfiable(n, clauses)
        assert (alpha == len(clauses)) == satisfiable
        assert mis.graph.num_vertices == sum(len(c) for c in clauses)


def test_3sat_to_mis_edges_match_the_pairwise_construction():
    # the reference compares every pair of literal occurrences; clauses may
    # repeat a literal or hold a variable and its negation
    convert = rule("ThreeSatisfiability->MaximumIndependentSet")
    rng = make_rng(204)
    for _ in range(60):
        n = rng.randint(1, 6)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 12))
        )
        literals = [lit for clause in clauses for lit in clause]
        expected = set()
        position = 0
        for clause in clauses:
            for a in range(len(clause)):
                for b in range(a + 1, len(clause)):
                    expected.add((position + a, position + b))
            position += len(clause)
        for i in range(len(literals)):
            for j in range(i + 1, len(literals)):
                if literals[i] == -literals[j]:
                    expected.add((i, j))
        mis = apply(convert, ThreeSatisfiability(CnfData(n, clauses))).target_instance
        assert mis.graph.edges == tuple(sorted(expected))


def test_mis_vc_complement_sizes():
    rng = make_rng(203)
    to_vc = rule("MaximumIndependentSet->MinimumVertexCover")
    for _ in range(30):
        mis, (n, edges, _) = random_mis(rng, max_vertices=7)
        vc = apply(to_vc, mis).target_instance
        alpha, _ = oracles.best_independent_set(n, edges)
        tau, _ = oracles.best_vertex_cover(n, edges)
        assert alpha + tau == n
        assert vc.graph.edges == mis.graph.edges


def test_mis_clique_complement_graph():
    rng = make_rng(204)
    to_clique = rule("MaximumIndependentSet->MaximumClique")
    for _ in range(30):
        mis, (n, edges, _) = random_mis(rng, max_vertices=7)
        clique = apply(to_clique, mis).target_instance
        alpha, _ = oracles.best_independent_set(n, edges)
        omega, _ = oracles.best_clique(clique.graph.num_vertices, clique.graph.edges)
        assert alpha == omega
        # complement has the complementary edge set
        total = n * (n - 1) // 2
        assert len(clique.graph.edges) == total - len(edges)


def test_maxcut_to_qubo_objective_equality():
    rng = make_rng(205)
    to_qubo = rule("MaxCut->QUBO")
    for _ in range(30):
        cut, (n, edges, _) = random_maxcut(rng)
        qubo = apply(to_qubo, cut).target_instance
        best_cut, _ = oracles.best_cut(n, edges)
        best_q, _ = oracles.best_qubo([list(r) for r in qubo.data.q])
        assert best_cut == best_q


def test_mis_to_qubo_penalty_formulation():
    rng = make_rng(206)
    to_qubo = rule("MaximumIndependentSet->QUBO")
    for _ in range(30):
        mis, (n, edges, _) = random_mis(rng, max_vertices=6)
        outcome = apply(to_qubo, mis)
        alpha, _ = oracles.best_independent_set(n, edges)
        best_q, _ = oracles.best_qubo([list(r) for r in outcome.target_instance.data.q])
        assert best_q == alpha  # zero offset under the shipped penalty
        back = extract_value(outcome, AggregatedValue(ValueKind.MAX, best_q))
        assert back == AggregatedValue(ValueKind.MAX, alpha)


def test_qubo_ising_known_numbers():
    to_ising = rule("QUBO->SpinGlass")
    outcome = apply(to_ising, Qubo(QuboData(2, ((1, -2), (-2, 1)))))
    glass = outcome.target_instance
    assert glass.data.h == (2, 2)
    assert glass.data.j[0][1] == 4
    assert outcome.extraction["offset"] == 0
    assert outcome.extraction["scale"] == 4

    single = apply(to_ising, Qubo(QuboData(1, ((1,),))))
    assert single.target_instance.data.h == (-2,)
    assert single.extraction["offset"] == 2


def test_ising_to_qubo_known_numbers():
    to_qubo = rule("SpinGlass->QUBO")
    glass = SpinGlass(
        __import__("pred").IsingData(2, ((0, -1), (-1, 0)), (1, 0))
    )
    outcome = apply(to_qubo, glass)
    assert outcome.target_instance.data.q == ((-4, 2), (2, -2))
    assert outcome.extraction["offset"] == 2


def test_qubo_ising_round_trip_value_correspondence():
    rng = make_rng(207)
    to_ising = rule("QUBO->SpinGlass")
    to_qubo = rule("SpinGlass->QUBO")
    for _ in range(30):
        qubo, q = random_qubo(rng, max_n=4)
        outcome = apply(to_ising, qubo)
        best_src, _ = oracles.best_qubo(q)
        glass = outcome.target_instance
        best_tgt, _ = oracles.best_ising(
            [list(r) for r in glass.data.j], list(glass.data.h)
        )
        back = extract_value(outcome, AggregatedValue(ValueKind.MAX, best_tgt))
        assert back.payload == best_src
    for _ in range(30):
        glass, (j, h) = random_ising(rng)
        outcome = apply(to_qubo, glass)
        best_src, _ = oracles.best_ising(j, h)
        best_tgt, _ = oracles.best_qubo([list(r) for r in outcome.target_instance.data.q])
        back = extract_value(outcome, AggregatedValue(ValueKind.MAX, best_tgt))
        assert back.payload == best_src


def test_coloring_to_sat_equisatisfiable():
    rng = make_rng(208)
    encode = rule("GraphColoring->Satisfiability")
    for _ in range(25):
        gc, (n, edges, k) = random_coloring(rng, max_vertices=4, colors=2)
        sat = apply(encode, gc).target_instance
        assert sat.cnf.num_variables == n * k
        assert oracles.colorable(n, edges, k) == oracles.satisfiable(
            sat.cnf.num_variables, sat.cnf.clauses
        )


def test_qubo_to_ilp_linearization_optimum():
    rng = make_rng(209)
    linearize = rule("QUBO->IntegerLinearProgram")
    for _ in range(20):
        qubo, q = random_qubo(rng, max_n=3)
        ilp = apply(linearize, qubo).target_instance
        best_src, _ = oracles.best_qubo(q)
        data = ilp.data
        best_tgt, _ = oracles.best_ilp(
            [list(b) for b in data.var_bounds],
            dense_rows(data),
            list(data.objective),
            data.sense,
        )
        assert best_tgt == best_src


# every rule into ILP, with a seeded source instance to reduce
ILP_RULE_SOURCES = {
    "MaximumIndependentSet->IntegerLinearProgram": lambda rng: random_mis(rng)[0],
    "MaximumIndependentSet[weight=integer]->IntegerLinearProgram": (
        lambda rng: random_mis(rng, weighted=True)[0]
    ),
    "MinimumVertexCover->IntegerLinearProgram": lambda rng: random_vc(rng)[0],
    "MinimumSetCover->IntegerLinearProgram": lambda rng: random_set_cover(rng)[0],
    "QUBO->IntegerLinearProgram": lambda rng: random_qubo(rng)[0],
}


def test_every_rule_into_ilp_has_a_codec_case():
    into_ilp = {name for name, r in RULES.items() if r.target.name == "IntegerLinearProgram"}
    assert set(ILP_RULE_SOURCES) == into_ilp


@pytest.mark.parametrize("name", sorted(ILP_RULE_SOURCES))
def test_ilp_targets_survive_the_dense_document_codec(name):
    # the program a rule builds in memory and the one decoded from its dense
    # document are equal, and the search stores the same rows for both
    rng = make_rng(zlib.crc32(name.encode()))
    for _ in range(25):
        target = apply(rule(name), ILP_RULE_SOURCES[name](rng)).target_instance
        document = json.loads(json.dumps(instance_to_document(target)))
        decoded = instance_from_document(document, GRAPH.registry)
        assert decoded == target
        assert _stored_rows(decoded.data) == _stored_rows(target.data)


def _written_program(source) -> IlpData:
    """The 0-1 program of an independent set, vertex cover or set cover,
    written out row by row: an edge row <= 1 per edge weighted by the vertex
    weights, an edge row >= 1 per edge, or one row >= 1 per element holding
    the sets that list it (once, however often they list it), in index order."""
    if isinstance(source, SetCover):
        sets = source.data.sets
        rows = tuple(
            (tuple((i, 1) for i, s in enumerate(sets) if e in s), ">=", 1)
            for e in range(source.data.num_elements)
        )
        return IlpData(len(sets), ((0, 1),) * len(sets), rows, (1,) * len(sets), "min")
    g = source.graph
    n = g.num_vertices
    if isinstance(source, IndependentSet):
        rows = tuple((((u, 1), (v, 1)), "<=", 1) for u, v in g.edges)
        return IlpData(n, ((0, 1),) * n, rows, g.weights, "max")
    rows = tuple((((u, 1), (v, 1)), ">=", 1) for u, v in g.edges)
    return IlpData(n, ((0, 1),) * n, rows, (1,) * n, "min")


@pytest.mark.parametrize("name", sorted(set(ILP_RULE_SOURCES) - {"QUBO->IntegerLinearProgram"}))
def test_linear_families_map_to_the_programs_written_out(name):
    # one forward map reads every 0-1 family's own rows, and gives the program
    # written out for that family, with the same extraction record
    assert rule(name).forward.name == "ilp.forward_linear_to_ilp"
    rng = make_rng(zlib.crc32(f"written:{name}".encode()))
    sources = [ILP_RULE_SOURCES[name](rng) for _ in range(30)]
    if name.startswith("MinimumSetCover"):
        # each set lists its first element twice, and one lists all of its elements twice
        sources = [
            SetCover(SetCoverData(sc.data.num_elements, tuple(s + s[:1] for s in sc.data.sets)))
            for sc in sources
        ] + [SetCover(SetCoverData(3, ((0, 0, 1), (1, 2, 1, 2), ())))] + sources
    for source in sources:
        outcome = apply(rule(name), source)
        assert outcome.target_instance == Ilp(_written_program(source)), source
        assert outcome.extraction == {"num_vars": len(source.config_dims())}


def test_qubo_to_ilp_diagonal_row_counts_its_variable_twice():
    # y_ik = x_i x_k is variable 2 + 2i + k; its third row is x_i + x_k - y_ik <= 1,
    # which on the diagonal reads 2 x_i - y_ii <= 1
    qubo = Qubo(QuboData(2, ((3, -1), (-1, 2))))
    target = apply(rule("QUBO->IntegerLinearProgram"), qubo).target_instance
    rows = target.data.constraints
    assert rows[2] == (((0, 2), (2, -1)), "<=", 1)
    assert rows[5] == (((0, 1), (1, 1), (3, -1)), "<=", 1)
    assert rows[8] == (((0, 1), (1, 1), (4, -1)), "<=", 1)
    assert rows[11] == (((1, 2), (5, -1)), "<=", 1)
    document = instance_to_document(target)
    assert document["data"]["constraints"][2] == {
        "coeffs": [2, 0, -1, 0, 0, 0], "rel": "<=", "rhs": 1
    }
    assert instance_from_document(document, GRAPH.registry) == target
    assert fold_space(target).value.payload == fold_space(qubo).value.payload == 3


def test_decision_mis_unwraps_to_inner():
    unwrap = rule("DecisionMaximumIndependentSet->MaximumIndependentSet")
    wrapped = DecisionProblem(IndependentSet(P4), 2)
    outcome = apply(unwrap, wrapped)
    assert outcome.target_instance is wrapped.inner
    # bound satisfied: any optimum witness maps straight back
    config = extract_solution(outcome, (1, 0, 0, 1))
    assert config == (1, 0, 0, 1)
    assert evaluate(wrapped, config).payload is True


def test_unit_to_integer_cast():
    cast = rule("MaximumIndependentSet->MaximumIndependentSet[weight=integer]")
    outcome = apply(cast, IndependentSet(P4))
    assert outcome.target_instance.graph.vertex_weights == (1, 1, 1, 1)
    assert extract_solution(outcome, (1, 0, 0, 1)) == (1, 0, 0, 1)
    back = extract_value(outcome, AggregatedValue(ValueKind.MAX, 2))
    assert back == AggregatedValue(ValueKind.MAX, 2)


# --- round-trip checks -----------------------------------------------------------

CANONICAL_SOURCES = {
    "Satisfiability->ThreeSatisfiability": lambda: Satisfiability(
        CnfData(4, ((1, 2, 3, 4), (-1, -2)))
    ),
    "ThreeSatisfiability->MaximumIndependentSet": lambda: ThreeSatisfiability(
        CnfData(3, ((1, 2, 3), (-1, 2, -3)))
    ),
    "MaxCut->QUBO": lambda: MaxCut(GraphData(3, ((0, 1), (1, 2), (0, 2)))),
    "QUBO->SpinGlass": lambda: Qubo(QuboData(2, ((1, -2), (-2, 1)))),
}


def _small_source(rule_obj: ReductionRule, rng):
    """A random instance of the rule's source type, sized for target folding."""
    name = rule_obj.source.name
    weighted = "integer" in dict(rule_obj.source.variant_tags).values()
    if name == "MaximumIndependentSet":
        return random_mis(rng, max_vertices=6, weighted=weighted)[0]
    if name == "MinimumVertexCover":
        return random_vc(rng, max_vertices=6)[0]
    if name == "MaximumClique":
        return __import__("pred").Clique(random_mis(rng, max_vertices=6)[0].graph)
    if name == "MinimumDominatingSet":
        return random_domset(rng, max_vertices=6)[0]
    if name == "MinimumSetCover":
        return random_set_cover(rng, max_sets=5, max_elements=5)[0]
    if name == "MaxCut":
        return random_maxcut(rng, max_vertices=5)[0]
    if name == "QUBO":
        return random_qubo(rng, max_n=3)[0]
    if name == "SpinGlass":
        return random_ising(rng, max_n=4)[0]
    if name == "GraphColoring":
        return random_coloring(rng, max_vertices=3, colors=2)[0]
    if name == "Satisfiability":
        return random_sat(rng, max_variables=3, max_clauses=3)[0]
    if name == "ThreeSatisfiability":
        return random_3sat(rng, max_variables=3, max_clauses=3)[0]
    if name == "DecisionMaximumIndependentSet":
        inner = random_mis(rng, max_vertices=6)[0]
        return DecisionProblem(inner, rng.randint(1, 3))
    raise AssertionError(f"no generator for {name}")


@pytest.mark.parametrize("name", sorted(RULES))
def test_round_trip_on_random_sources(name):
    rng = make_rng(zlib.crc32(name.encode()) & 0xFFFF)
    rule_obj = RULES[name]
    for _ in range(8):
        instance = _small_source(rule_obj, rng)
        report = round_trip_check(rule_obj, instance)
        assert report.passed, report.detail


def test_round_trip_reports_mismatch_for_corrupted_rule():
    good = rule("MaximumIndependentSet->MinimumVertexCover")

    def broken_extract(data, config):
        flipped = [1 - c for c in config]
        flipped[0] = 0  # clear one vertex: drops the extracted optimum by one
        return tuple(flipped)

    bad = ReductionRule(
        name=good.name,
        source=good.source,
        target=good.target,
        overhead=good.overhead,
        forward=good.forward,
        config_extractor=broken_extract,
    )
    report = round_trip_check(bad, IndependentSet(P4))
    assert not report.passed
    assert report.detail == "mismatch: 2 != 1"


# --- overhead soundness -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(RULES))
def test_overhead_bounds_measured_sizes(name):
    rule_obj = RULES[name]
    rng = make_rng(0xBEEF ^ (zlib.crc32(name.encode()) & 0xFFFF))
    for _ in range(50):
        instance = _small_source(rule_obj, rng)
        outcome = apply(rule_obj, instance)
        source_sizes = instance.size_measures()
        target_sizes = outcome.target_instance.size_measures()
        assert set(target_sizes) == set(rule_obj.overhead)
        for measure, expr in rule_obj.overhead.items():
            bound = evaluate_expr(expr, source_sizes)
            assert target_sizes[measure] <= bound, (
                f"{name}: {measure} = {target_sizes[measure]} > bound {bound}"
            )


def test_3sat_to_mis_overhead_is_tight_on_vertices():
    convert = rule("ThreeSatisfiability->MaximumIndependentSet")
    rng = make_rng(210)
    for _ in range(50):
        three, (n, clauses) = random_3sat(rng)
        mis = apply(convert, three).target_instance
        literals = sum(len(c) for c in clauses)
        assert mis.graph.num_vertices == literals  # V' = L exactly
        assert len(mis.graph.edges) <= literals * literals


# --- rule validation ---------------------------------------------------------------

def test_rule_requires_overhead_for_every_target_measure():
    good = rule("MaximumIndependentSet->IntegerLinearProgram")
    broken = ReductionRule(
        name="broken",
        source=good.source,
        target=good.target,
        overhead={"n": parse_expr("V")},  # missing "c"
        forward=good.forward,
        config_extractor=good.config_extractor,
    )
    with pytest.raises(RegistrationError):
        _validate_rule(broken)


def test_rule_rejects_non_polynomial_overhead():
    good = rule("MaximumIndependentSet->IntegerLinearProgram")
    broken = ReductionRule(
        name="broken",
        source=good.source,
        target=good.target,
        overhead={"n": parse_expr("2^V"), "c": parse_expr("E")},
        forward=good.forward,
        config_extractor=good.config_extractor,
    )
    with pytest.raises(RegistrationError):
        _validate_rule(broken)


def test_rule_rejects_unknown_source_measures():
    good = rule("MaximumIndependentSet->IntegerLinearProgram")
    broken = ReductionRule(
        name="broken",
        source=good.source,
        target=good.target,
        overhead={"n": parse_expr("Q"), "c": parse_expr("E")},
        forward=good.forward,
        config_extractor=good.config_extractor,
    )
    with pytest.raises(RegistrationError):
        _validate_rule(broken)


def test_rule_requires_some_extractor():
    good = rule("MaximumIndependentSet->IntegerLinearProgram")
    broken = ReductionRule(
        name="broken",
        source=good.source,
        target=good.target,
        overhead=good.overhead,
        forward=good.forward,
    )
    with pytest.raises(RegistrationError):
        _validate_rule(broken)


def test_every_shipped_expression_parses_and_passes_its_checks():
    # building the catalogue leaves the expressions as declared text, so a bad
    # entry shows only when it is read: read them all, on a fresh catalogue
    registry = register_catalogue()
    for descriptor in registry.variants():
        assert set(vars_of(descriptor.complexity)) <= set(descriptor.size_measure_names)
    rules = shipped_rules(registry)
    assert rules
    for rule_obj in rules:
        _validate_rule(rule_obj)


def test_declared_overhead_is_checked_on_first_read():
    good = rule("MaximumIndependentSet->IntegerLinearProgram")
    broken = ReductionRule(
        name="broken",
        source=good.source,
        target=good.target,
        overhead={"n": "2^V", "c": "E"},
        forward=good.forward,
        config_extractor=good.config_extractor,
    )
    for _ in range(2):  # a failed read leaves nothing behind for the next one
        with pytest.raises(
            RegistrationError, match="^rule broken: overhead for n is not polynomial$"
        ):
            broken.overhead
    fine = ReductionRule(
        name="fine",
        source=good.source,
        target=good.target,
        overhead={"n": "V", "c": "E"},
        forward=good.forward,
        config_extractor=good.config_extractor,
    )
    assert fine.overhead == {"n": parse_expr("V"), "c": parse_expr("E")}
    assert fine.overhead is fine.overhead


def test_declared_complexity_is_checked_on_first_read():
    descriptor = ProblemTypeDescriptor("X", (), ("n",), "2^m", ValueKind.MAX)
    with pytest.raises(
        RegistrationError, match=r"^X: complexity uses unknown size measure\(s\) \['m'\]$"
    ):
        descriptor.complexity
    fine = ProblemTypeDescriptor("X", (), ("n",), "2^n", ValueKind.MAX)
    assert fine.complexity == parse_expr("2^n")
