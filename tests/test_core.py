"""Core model layer: aggregated values, folding, decision wrapping, the
variant registry, and configuration validation."""

from __future__ import annotations

import itertools
import math
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pred import (
    AggregatedValue,
    Clique,
    CnfData,
    BudgetExceededError,
    DecisionProblem,
    DimensionMismatchError,
    DomainError,
    DominatingSet,
    DuplicateRegistrationError,
    GraphColoring,
    GraphData,
    Ilp,
    IlpData,
    IndependentSet,
    IsingData,
    KindError,
    MaxCut,
    Problem,
    ProblemTypeDescriptor,
    Qubo,
    QuboData,
    Registry,
    Satisfiability,
    SetCover,
    SetCoverData,
    SpinGlass,
    ThreeSatisfiability,
    UnknownProblemError,
    ValueKind,
    VertexCover,
    combine,
    decision_wrap,
    default_graph,
    evaluate,
    fold_space,
    identity_value,
    make_key,
    register_catalogue,
    validate_config,
)
from pred.model import SENSE_MAXIMIZE, SENSE_MINIMIZE, QuadraticProblem

import generators
import oracles
from generators import dense_ilp, make_rng, random_mis


P4 = GraphData(4, ((0, 1), (1, 2), (2, 3)))


def test_render_all_kinds():
    assert AggregatedValue(ValueKind.MAX, 2).render() == "Max(2)"
    assert AggregatedValue(ValueKind.MIN, 0).render() == "Min(0)"
    assert AggregatedValue(ValueKind.OR, True).render() == "Or(true)"
    assert AggregatedValue(ValueKind.OR, False).render() == "Or(false)"
    assert AggregatedValue(ValueKind.SUM, 7).render() == "Sum(7)"
    assert AggregatedValue(ValueKind.AND, False).render() == "And(false)"
    ext = AggregatedValue(ValueKind.EXTREMUM, 3, sense=SENSE_MAXIMIZE)
    assert ext.render() == "Extremum(3)"
    none_fold = AggregatedValue(ValueKind.MAX, None, feasible=False)
    assert none_fold.render() == "Max(none)"


def test_sense_is_extremum_only():
    with pytest.raises(KindError):
        AggregatedValue(ValueKind.MAX, 1, sense=SENSE_MAXIMIZE)
    with pytest.raises(KindError):
        AggregatedValue(ValueKind.EXTREMUM, 1)


def test_combine_requires_matching_kind():
    with pytest.raises(KindError):
        combine(AggregatedValue(ValueKind.MAX, 1), AggregatedValue(ValueKind.MIN, 1))
    with pytest.raises(KindError):
        combine(
            AggregatedValue(ValueKind.EXTREMUM, 1, sense=SENSE_MAXIMIZE),
            AggregatedValue(ValueKind.EXTREMUM, 1, sense=SENSE_MINIMIZE),
        )


def test_combine_prefers_feasible_over_infeasible():
    good = AggregatedValue(ValueKind.MAX, 1)
    bad = AggregatedValue(ValueKind.MAX, 100, feasible=False)
    assert combine(good, bad) == good
    assert combine(bad, good) == good
    small = AggregatedValue(ValueKind.MIN, 5)
    worse = AggregatedValue(ValueKind.MIN, 0, feasible=False)
    assert combine(small, worse) == small


def _random_value(rng: random.Random, kind: ValueKind) -> AggregatedValue:
    if kind in (ValueKind.OR, ValueKind.AND):
        return AggregatedValue(kind, rng.random() < 0.5)
    if kind is ValueKind.SUM:
        return AggregatedValue(kind, rng.randint(-5, 5))
    sense = SENSE_MAXIMIZE if kind is ValueKind.EXTREMUM else None
    if rng.random() < 0.15:
        return identity_value(kind, sense)
    return AggregatedValue(
        kind, rng.randint(-5, 5), feasible=rng.random() < 0.8, sense=sense
    )


def test_combine_laws_randomized():
    rng = random.Random(3)
    for kind in ValueKind:
        sense = SENSE_MAXIMIZE if kind is ValueKind.EXTREMUM else None
        ident = identity_value(kind, sense)
        for _ in range(200):
            a = _random_value(rng, kind)
            b = _random_value(rng, kind)
            c = _random_value(rng, kind)
            assert combine(combine(a, b), c) == combine(a, combine(b, c))
            assert combine(a, b) == combine(b, a)
            assert combine(a, ident) == a


def test_extremum_identity_needs_sense():
    with pytest.raises(KindError):
        identity_value(ValueKind.EXTREMUM)
    ident = identity_value(ValueKind.EXTREMUM, SENSE_MINIMIZE)
    assert ident.payload is None and not ident.feasible


def test_evaluate_validates_dimensions_and_domain():
    mis = IndependentSet(P4)
    with pytest.raises(DimensionMismatchError):
        evaluate(mis, (1, 0, 0))
    with pytest.raises(DomainError):
        evaluate(mis, (1, 0, 0, 2))
    with pytest.raises(DomainError):
        evaluate(mis, (1, 0, 0, -1))
    validate_config(mis, (1, 0, 0, 1))


def test_evaluate_reports_infeasible_payloads():
    mis = IndependentSet(P4)
    value = evaluate(mis, (1, 1, 0, 0))
    assert value == AggregatedValue(ValueKind.MAX, 2, feasible=False)


def test_fold_space_on_p4():
    result = fold_space(IndependentSet(P4))
    assert result.value == AggregatedValue(ValueKind.MAX, 2)
    assert result.witness is not None
    assert evaluate(IndependentSet(P4), result.witness) == result.value


def test_fold_space_witness_reevaluates_on_random_instances():
    rng = make_rng(101)
    for _ in range(30):
        mis, (n, edges, _) = random_mis(rng, max_vertices=6)
        result = fold_space(mis)
        expected, _ = oracles.best_independent_set(n, edges)
        assert result.value.payload == expected
        assert result.value.feasible
        assert evaluate(mis, result.witness) == result.value


def test_fold_space_budget():
    # the Max walk on 8 isolated vertices asks 56 prefixes
    big = IndependentSet(GraphData(8, ()))
    with pytest.raises(BudgetExceededError) as exc_info:
        fold_space(big, max_nodes=55)
    assert exc_info.value.limit == 55
    assert "55" in str(exc_info.value)
    assert fold_space(big, max_nodes=56).value.payload == 8


def _catalogue_instances(rng):
    """Seeded small instances of every catalogue type, decision wrappers included."""
    g = generators
    for _ in range(4):
        yield g.random_mis(rng)[0]
        yield g.random_mis(rng, weighted=True)[0]
        yield g.random_vc(rng)[0]
        yield g.random_clique(rng)[0]
        yield g.random_domset(rng)[0]
        yield g.random_maxcut(rng)[0]
        yield g.random_set_cover(rng)[0]
        yield g.random_qubo(rng)[0]
        yield g.random_ising(rng)[0]
        yield g.random_coloring(rng, max_vertices=4, colors=rng.choice((2, 3)))[0]
        yield g.random_sat(rng)[0]
        yield g.random_3sat(rng)[0]
        yield g.random_ilp(rng, max_vars=4)[0]
        yield g.random_cardinality_ilp(rng, max_vars=6)[0]
        for inner in (g.random_mis(rng)[0], g.random_vc(rng)[0]):
            best = fold_space(inner).value.payload
            for bound in (best - 1, best, best + 1):  # true and false answers
                yield decision_wrap(inner, bound)


def _special_instances():
    box = ((0, 1), (0, 1))
    yield Ilp(dense_ilp(2, box, (((1, 1), ">=", 1),), (2, 3), "min"))
    yield Ilp(dense_ilp(2, box, (((1, 1), ">=", 3),), (1, -1), "max"))  # all infeasible
    yield Ilp(IlpData(0, (), (), (), "min"))
    yield Ilp(dense_ilp(0, (), (((), ">=", 1),), (), "max"))  # one, infeasible, configuration
    yield IndependentSet(GraphData(0, ()))
    yield Satisfiability(CnfData(0, ()))
    yield decision_wrap(VertexCover(GraphData(0, ())), 0)


class _Table(Problem):
    """Test-only problem of any kind whose measures come from a lookup table."""

    type_name = "Table"

    def __init__(self, kind, dims, table):
        self.kind, self.dims, self.table = kind, dims, table
        self.calls = 0

    def config_dims(self):
        return self.dims

    def size_measures(self):
        return {}

    def _measure(self, config):
        self.calls += 1
        return self.table[config], True


def _random_table(rng, kind):
    dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
    space = itertools.product(*(range(d) for d in dims))
    if kind is ValueKind.SUM:
        return _Table(kind, dims, {c: rng.randint(-5, 5) for c in space})
    return _Table(kind, dims, {c: rng.random() < 0.9 for c in space})


def _lex_rank(config, dims):
    rank = 0
    for value, dim in zip(config, dims):
        rank = rank * dim + value
    return rank


def test_fold_space_matches_reference_fold():
    rng = make_rng(404)
    instances = [*_catalogue_instances(rng), *_special_instances()]
    for kind in (ValueKind.SUM, ValueKind.AND):
        instances += [_random_table(rng, kind) for _ in range(20)]
    seen = set()
    for instance in instances:
        value, witness = oracles.reference_fold(instance)
        result = fold_space(instance)
        assert result.value == value, instance
        assert type(result.value.payload) is type(value.payload), instance
        assert result.witness == witness, instance
        seen.add((instance.type_name, instance.kind, value.feasible, bool(value.payload)))
    catalogue = {d.key for d in register_catalogue().variants()}
    assert catalogue <= {i.variant_key() for i in instances if not isinstance(i, _Table)}
    assert ("DecisionMinimumVertexCover", ValueKind.OR, True, False) in seen
    assert ("DecisionMinimumVertexCover", ValueKind.OR, True, True) in seen
    assert ("IntegerLinearProgram", ValueKind.EXTREMUM, False, False) in seen


def test_or_and_folds_stop_at_their_absorbing_value(monkeypatch):
    """And stops at its first false configuration and Or at its first true
    one. With every prefix bound set back to ``Problem._optimistic_payload``,
    an Or walk measures exactly the plain fold's lex-rank + 1 configurations
    (all of them for a false answer); with each class's own bound, at most
    that many, the witness last, and the result is the plain fold's."""
    calls = []
    bounded = (IndependentSet, Satisfiability, GraphColoring)  # 3SAT inherits SAT's
    for cls in bounded:

        def counted(self, config, measure=cls._measure):
            calls.append(config)
            return measure(self, config)

        monkeypatch.setattr(cls, "_measure", counted)

    def walk(instance, exact):
        calls.clear()
        result = fold_space(instance)
        measured = len(calls)
        answer, dims = result.value.payload, instance.config_dims()
        plain = _lex_rank(result.witness, dims) + 1 if answer else math.prod(dims)
        assert measured == plain if exact else measured <= plain, instance
        assert not answer or calls[-1] == result.witness, instance
        if not exact:
            assert (result.value, result.witness) == oracles.reference_fold(instance), instance
        return instance.type_name, answer, measured

    rng = make_rng(405)
    instances = []
    for _ in range(20):
        inner, _ = random_mis(rng)
        instances += [decision_wrap(inner, b) for b in range(inner.graph.num_vertices + 2)]
    for _ in range(20):
        table = _random_table(rng, ValueKind.AND)
        result = fold_space(table)
        space = itertools.product(*(range(d) for d in table.dims))
        falses = [c for c in space if not table.table[c]]
        assert result.value.payload is (not falses)
        assert table.calls == (_lex_rank(falses[0], table.dims) + 1 if falses else len(table.table))
    instances += [generators.random_sat(rng, max_variables=6, max_clauses=12)[0] for _ in range(30)]
    instances += [
        generators.random_3sat(rng, max_variables=6, max_clauses=12)[0] for _ in range(30)
    ]
    instances += [
        generators.random_coloring(rng, max_vertices=6, colors=colors)[0]
        for colors in (1, 2, 3)
        for _ in range(10)
    ]
    own = [walk(instance, exact=False) for instance in instances]
    for cls in bounded:
        monkeypatch.setattr(cls, "_optimistic_payload", Problem._optimistic_payload)
    default = [walk(instance, exact=True) for instance in instances]
    assert [walked[:2] for walked in own] == [walked[:2] for walked in default]
    for name in (
        "DecisionMaximumIndependentSet", "Satisfiability", "ThreeSatisfiability", "GraphColoring"
    ):
        assert {(name, True), (name, False)} <= {(n, a) for n, a, _ in own}
        # each class's own bound measures fewer in total than the default
        assert sum(m for n, _, m in own if n == name) < sum(m for n, _, m in default if n == name)


def test_or_fold_budget_counts_the_walks_prefixes():
    empty = IndependentSet(GraphData(8, ()))
    wrapped = decision_wrap(empty, 0)  # the all-zero first configuration answers true
    with pytest.raises(BudgetExceededError):
        fold_space(wrapped, max_nodes=6)
    result = fold_space(wrapped, max_nodes=7)  # one prefix per variable but the last
    assert result.witness == (0,) * 8


def test_sum_and_and_folds_charge_each_configuration_they_measure():
    space = list(itertools.product(range(2), range(3)))
    counted = _Table(ValueKind.SUM, (2, 3), {c: i for i, c in enumerate(space)})
    with pytest.raises(BudgetExceededError) as exc_info:
        fold_space(counted, max_nodes=5)
    assert exc_info.value.limit == 5
    assert fold_space(counted, max_nodes=6).value.payload == 15
    # And stops at its first false configuration, the third
    stopped = _Table(ValueKind.AND, (2, 3), {c: i != 2 for i, c in enumerate(space)})
    with pytest.raises(BudgetExceededError):
        fold_space(stopped, max_nodes=2)
    assert fold_space(stopped, max_nodes=3).value.payload is False


def _decision_vc_cases(rng):
    """DecisionVC on seeded graphs at every bound from -1 to V+1, both ends included."""
    graphs = [generators.random_graph_data(rng)[0] for _ in range(40)]
    graphs += [GraphData(6, ()), GraphData(0, ())]
    for graph in graphs:
        for bound in range(-1, graph.num_vertices + 2):
            yield decision_wrap(VertexCover(graph), bound)


def _check_prefix_calls(monkeypatch):
    """Wrap ``DecisionProblem._optimistic_payload`` to assert that every call
    is on a nonempty prefix whose shorter prefixes all passed; returns the
    answers so far, for the caller to clear between instances."""
    answers = {}
    optimistic = DecisionProblem._optimistic_payload

    def recorded(self, prefix):
        assert prefix and all(answers[prefix[:k]] for k in range(1, len(prefix)))
        answers[prefix] = optimistic(self, prefix)
        return answers[prefix]

    monkeypatch.setattr(DecisionProblem, "_optimistic_payload", recorded)
    return answers


def _assert_walk_matches_reference(wrapped):
    value, witness = oracles.reference_fold(wrapped)
    result = fold_space(wrapped)
    assert (result.value, result.witness) == (value, witness), (wrapped.inner.graph, wrapped.bound)
    return value.payload


def test_decision_vc_walk_matches_reference_fold(monkeypatch):
    answers = _check_prefix_calls(monkeypatch)
    seen = set()
    for wrapped in _decision_vc_cases(make_rng(406)):
        answers.clear()
        seen.add(_assert_walk_matches_reference(wrapped))
    assert seen == {True, False}


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(data=st.data())
def test_drawn_decision_vc_walk_matches_reference_fold(data):
    n = data.draw(st.integers(0, 9), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    bound = data.draw(st.integers(-1, n + 1), label="bound")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_prefix_calls(monkeypatch)
        _assert_walk_matches_reference(decision_wrap(VertexCover(GraphData(n, tuple(edges))), bound))


def test_default_optimistic_payload_is_unbounded_in_the_better_direction():
    default = Problem._optimistic_payload
    assert default(IndependentSet(P4), (0,)) == float("inf")
    assert default(VertexCover(P4), (0,)) == float("-inf")
    assert default(Ilp(IlpData(1, ((0, 1),), (), (1,), "max")), (0,)) == float("inf")
    assert default(Ilp(IlpData(1, ((0, 1),), (), (1,), "min")), (0,)) == float("-inf")
    assert default(Satisfiability(CnfData(1, ((1,),))), (0,)) is True


def _graphs(rng, weighted=False):
    graphs = [generators.random_graph_data(rng, 9, weighted)[0] for _ in range(40)]
    graphs += [GraphData(3, ((0, 1), (1, 2), (0, 2)))]
    graphs += [GraphData(4, ((0, 1), (1, 2), (0, 2), (2, 3)))]
    return graphs + [GraphData(0, ()), GraphData(1, ()), GraphData(7, ())]


def _qubo_matrices(rng):
    """Seeded matrices of n = 0 to 9, half with entries from -6 to 6 and half
    all-negative, where every free variable's bound term clips to 0."""
    for size in range(40):
        n = size % 10
        low, high = (-6, 6) if size % 4 < 2 else (-6, -1)
        q = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                q[i][j] = q[j][i] = rng.randint(low, high)
        yield QuboData(n, tuple(map(tuple, q)))


def _ilp_programs(rng):
    """Seeded programs of up to 4 variables (boxes inside [-3, 6], rows of
    every relation, both senses, many infeasible), and programs on the box
    [-2, 3] with equality rows, an infeasible one among them."""
    programs = [generators.random_ilp(rng, max_vars=4)[0].data for _ in range(60)]
    box = ((-2, 3),) * 3
    rows = ((((0, 1), (1, 1), (2, 1)), "=", 2), (((0, 2), (2, -1)), "<=", 1))
    programs += [IlpData(3, box, rows, objective, sense) for objective in ((1, -2, 3), (-1, 0, 2))
                 for sense in ("max", "min")]
    programs += [IlpData(2, box[:2], ((((0, 1), (1, -1)), "=", 6),), (1, 1), "max")]  # infeasible
    programs += [IlpData(0, (), (), (), "min"), IlpData(0, (), (((), ">=", 1),), (), "max")]
    return [Ilp(data) for data in programs] + _covering_programs(rng)


def _covering_programs(rng):
    """Seeded 0-1 programs of covering rows only (coefficients +1, ``>= 1``),
    objective coefficients from -3 to 3, zeros included, both senses; then
    one whose shared member has the box [1, 3], which meets both its rows at
    no loss: they are no covering rows."""
    programs = []
    for i in range(60):
        n = rng.randint(2, 7)
        rows = tuple(
            (tuple((j, 1) for j in sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))),
             ">=", 1)
            for _ in range(rng.randint(1, 3))
        )
        objective = tuple(rng.randint(-3, 3) for _ in range(n))
        programs.append(IlpData(n, ((0, 1),) * n, rows, objective, ("max", "min")[i % 2]))
    rows = ((((0, 1), (1, 1)), ">=", 1), (((1, 1), (2, 1)), ">=", 1))
    programs.append(IlpData(3, ((0, 1), (1, 3), (0, 1)), rows, (-1, 1, -2), "max"))
    return [Ilp(data) for data in programs]


def test_covering_need_counts_only_rows_of_0_1_members():
    # one row over two free variables needs one of them, at a cost of 1, on a
    # 0-1 box; a member that may reach 2 makes it no covering row
    rows = ((((0, 1), (1, 1)), ">=", 1),)
    assert Ilp(IlpData(2, ((0, 1), (0, 1)), rows, (1, 1), "min"))._closing[1] == [1, 0, 0]
    assert Ilp(IlpData(2, ((0, 1), (0, 2)), rows, (1, 1), "min"))._closing[1] == [0, 0, 0]
    # a member that gains at 1 costs the row nothing, and the cheaper member
    # is what a Max program loses
    assert Ilp(IlpData(2, ((0, 1), (0, 1)), rows, (1, -2), "min"))._closing[1] == [-2, -2, 0]
    assert Ilp(IlpData(2, ((0, 1), (0, 1)), rows, (-1, -2), "max"))._closing[1] == [-1, 0, 0]
    # vertex cover's edge rows: the 15-cycle's matching has 7 edges
    cycle = VertexCover(GraphData(15, tuple((v, (v + 1) % 15) for v in range(15))))
    assert cycle._closing[1][0] == 7


def test_covering_need_breaks_ties_by_the_lowest_indices():
    # dominating set's closed neighbourhoods on seven vertices: from vertex 0
    # on, the lowest-index variable of fewest live rows, then its row whose
    # members lie in the fewest, give three disjoint rows; a later variable
    # or row on either tie leaves room for only two
    graph = GraphData(7, ((0, 3), (0, 5), (1, 4), (1, 6), (2, 6), (3, 6)))
    assert DominatingSet(graph)._closing[1] == [3, 1, 1, 0, 0, 0, 0, 0]


def _set_covers(rng):
    covers = [generators.random_set_cover(rng, max_sets=9, max_elements=8)[0] for _ in range(40)]
    covers.append(SetCover(SetCoverData(3, ((0, 0, 1), (1, 2, 1), (2,), ()))))
    return covers + [SetCover(SetCoverData(0, ())), SetCover(SetCoverData(0, ((), ())))]


def _spin_glasses(rng):
    glasses = [generators.random_ising(rng, max_n=9)[0] for _ in range(40)]
    return glasses + [SpinGlass(IsingData(0, (), ()))]


def _cnfs_with_repeats(rng, width):
    """CNFs whose clauses repeat a variable or hold a complementary pair, which
    ``generators.random_cnf`` never draws, and the empty CNF."""
    cnfs = [CnfData(0, ()), CnfData(3, ((1, 1), (1, -1), (-2, -2, 3)))]
    cnfs += [CnfData(2, ((1, -1),)), CnfData(3, ((-2, -2, 3), (2, 2), (-3, 1, -3)))]
    for _ in range(30):
        n = rng.randint(1, 5)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, width)))
            for _ in range(rng.randint(1, 6))
        )
        cnfs.append(CnfData(n, clauses))
    return cnfs


@pytest.mark.parametrize("name", ["SAT", "3SAT"])
def test_clause_rows_measure_what_the_clauses_say(name):
    """Each clause is one row, its repeated variables' terms added up: the
    measure is the clauses' truth on every configuration."""
    cases = _optimistic_cases(name)
    clauses = [c for case in cases for c in case.cnf.clauses]
    assert any(len(set(c)) < len(c) for c in clauses)  # a repeated literal
    assert any(-lit in c for c in clauses for lit in c)  # a complementary pair
    for instance in cases:
        for config in itertools.product((0, 1), repeat=instance.cnf.num_variables):
            assignment = {i + 1: bool(bit) for i, bit in enumerate(config)}
            truth = all(oracles.clause_satisfied(c, assignment) for c in instance.cnf.clauses)
            assert instance._measure(config) == (truth, True), (instance, config)


def _decisions(inners):
    cases = []
    for inner in inners:
        best = fold_space(inner).value.payload
        cases += [decision_wrap(inner, bound) for bound in range(best - 2, best + 2)]
    return cases


def _optimistic_cases(name):
    rng = make_rng(zlib.crc32(name.encode()))
    g = generators
    builders = {
        "MIS": lambda: [IndependentSet(graph) for graph in _graphs(rng)],
        "WeightedMIS": lambda: [IndependentSet(graph) for graph in _graphs(rng, weighted=True)],
        "VertexCover": lambda: [VertexCover(graph) for graph in _graphs(rng)],
        "Clique": lambda: [Clique(graph) for graph in _graphs(rng)],
        "DominatingSet": lambda: [DominatingSet(graph) for graph in _graphs(rng)],
        "MaxCut": lambda: [MaxCut(graph) for graph in _graphs(rng)],
        "SetCover": lambda: _set_covers(rng),
        "QUBO": lambda: [Qubo(data) for data in _qubo_matrices(rng)],
        "SpinGlass": lambda: _spin_glasses(rng),
        "ILP": lambda: _ilp_programs(rng),
        "SAT": lambda: [g.random_sat(rng, 8, 14)[0] for _ in range(60)]
        + [Satisfiability(cnf) for cnf in _cnfs_with_repeats(rng, 5)],
        "3SAT": lambda: [g.random_3sat(rng, 8, 20)[0] for _ in range(60)]
        + [ThreeSatisfiability(cnf) for cnf in _cnfs_with_repeats(rng, 3)],
        "GC": lambda: [g.random_coloring(rng, 6, k)[0] for k in (1, 2, 3) for _ in range(20)]
        + [GraphColoring(GraphData(0, ()), 2)],
        "DecisionMIS": lambda: _decisions(IndependentSet(graph) for graph in _graphs(rng)),
        "DecisionVertexCover": lambda: [
            decision_wrap(VertexCover(graph), bound)
            for graph in _graphs(rng)
            for bound in range(-1, graph.num_vertices + 2)
        ],
        "DecisionQUBO": lambda: _decisions(Qubo(data) for data in _qubo_matrices(rng)),
    }
    return builders[name]()


OPTIMISTIC_CASES = [
    "MIS", "WeightedMIS", "VertexCover", "Clique", "DominatingSet", "MaxCut", "SetCover", "QUBO",
    "SpinGlass", "ILP", "SAT", "3SAT", "GC", "DecisionMIS", "DecisionVertexCover", "DecisionQUBO",
]


@pytest.mark.parametrize("name", OPTIMISTIC_CASES)
def test_optimistic_payload_is_never_worse_than_the_best_completion(name):
    """Every ``_optimistic_payload`` override, on every nonempty prefix: when
    some completion is feasible (true, for an Or problem), the bound is not
    None and at least as good as the best such completion. A prefix with no
    feasible completion admits any answer, which is what lets a bound check
    only what the newest value decides: the walk asks about a prefix only
    after its parent passed."""
    cases = _optimistic_cases(name)
    assert any(not case.config_dims() for case in cases)
    if name == "ILP":  # the box [-2, 3], equality rows, and infeasible programs
        assert any(lo < 0 for case in cases for lo, _ in case.data.var_bounds)
        assert any(rel == "=" for case in cases for _, rel, _ in case.data.constraints)
        assert any(not fold_space(case).value.feasible for case in cases)
    for instance in cases:
        minimize = instance.kind is ValueKind.MIN or instance.sense == SENSE_MINIMIZE
        sign = -1 if minimize else 1
        dims = instance.config_dims()
        # the best signed payload over each prefix's feasible completions, None if none
        best = {}
        for config in itertools.product(*map(range, dims)):
            payload, feasible = instance._measure(config)
            best[config] = sign * payload if feasible else None
        for length in range(len(dims) - 1, -1, -1):
            for prefix in itertools.product(*map(range, dims[:length])):
                children = (best[prefix + (v,)] for v in range(dims[length]))
                best[prefix] = max((v for v in children if v is not None), default=None)
        for prefix, completion in best.items():
            if not prefix or completion is None:
                continue
            bound = instance._optimistic_payload(prefix)
            assert bound is not None and sign * bound >= completion, (instance, prefix)


BOUNDED_CLASSES = {
    "MIS": (IndependentSet, lambda rng: generators.random_mis(rng, 9)[0]),
    "WeightedMIS": (IndependentSet, lambda rng: generators.random_mis(rng, 9, weighted=True)[0]),
    "VertexCover": (VertexCover, lambda rng: generators.random_vc(rng, 9)[0]),
    "Clique": (Clique, lambda rng: generators.random_clique(rng, 9)[0]),
    "DominatingSet": (DominatingSet, lambda rng: generators.random_domset(rng, 9)[0]),
    "MaxCut": (MaxCut, lambda rng: generators.random_maxcut(rng, 9)[0]),
    "SetCover": (SetCover, lambda rng: generators.random_set_cover(rng, 9, 8)[0]),
    "QUBO": (Qubo, lambda rng: generators.random_qubo(rng, max_n=9, min_n=0)[0]),
    "SpinGlass": (SpinGlass, lambda rng: generators.random_ising(rng, 9)[0]),
    "ILP": (Ilp, lambda rng: generators.random_ilp(rng, max_vars=5)[0]),
}

# what the builders never draw: a zero-variable instance of each class,
# seven vertices with no edges for the graph classes, and programs of
# covering rows
BOUNDED_FIXED = {
    "MIS": [IndependentSet(GraphData(0, ())), IndependentSet(GraphData(7, ()))],
    "WeightedMIS": [
        IndependentSet(GraphData(0, (), ())), IndependentSet(GraphData(7, (), (3, 1, 4, 1, 5, 9, 2)))
    ],
    "VertexCover": [VertexCover(GraphData(0, ())), VertexCover(GraphData(7, ()))],
    "Clique": [Clique(GraphData(0, ())), Clique(GraphData(7, ()))],
    "DominatingSet": [DominatingSet(GraphData(0, ())), DominatingSet(GraphData(7, ()))],
    "MaxCut": [MaxCut(GraphData(0, ())), MaxCut(GraphData(7, ()))],
    "SetCover": [SetCover(SetCoverData(0, ()))],
    "QUBO": [Qubo(QuboData(0, ()))],
    "SpinGlass": [SpinGlass(IsingData(0, (), ()))],
    "ILP": [Ilp(IlpData(0, (), (), (), "min"))] + _covering_programs(make_rng(412)),
}


def test_every_max_min_and_extremum_class_is_bounded():
    rng = make_rng(411)
    built = {build(rng).type_name for _, build in BOUNDED_CLASSES.values()}
    scored = (ValueKind.MAX, ValueKind.MIN, ValueKind.EXTREMUM)
    assert built == {d.name for d in register_catalogue().variants() if d.kind in scored}
    for cls, _ in BOUNDED_CLASSES.values():
        assert cls._optimistic_payload is not Problem._optimistic_payload


@pytest.mark.parametrize("name", sorted(BOUNDED_CLASSES))
def test_bounded_fold_matches_reference_fold(monkeypatch, name):
    """Every Max, Min and Extremum class walks its prefixes, and the result is
    the plain law's. The walk asks only about nonempty prefixes shorter than a
    full configuration, each after its parent, whose bound was not None."""
    cls, build = BOUNDED_CLASSES[name]
    answers = {}
    bound = cls._optimistic_payload

    def recorded(self, prefix):
        assert 0 < len(prefix) < len(self.config_dims()), (self, prefix)
        assert len(prefix) == 1 or answers[prefix[:-1]] is not None, (self, prefix)
        answers[prefix] = bound(self, prefix)
        return answers[prefix]

    monkeypatch.setattr(cls, "_optimistic_payload", recorded)
    rng = make_rng(zlib.crc32(f"bounded:{name}".encode()))
    fixed = BOUNDED_FIXED[name]
    assert any(not instance.config_dims() for instance in fixed)
    asked = 0
    for instance in [build(rng) for _ in range(60)] + fixed:
        answers.clear()
        value, witness = oracles.reference_fold(instance)
        result = fold_space(instance)
        assert (result.value, result.witness) == (value, witness), instance
        asked += len(answers)
    assert asked


# The Or walk on DecisionVC, n=16, G(16, 0.15) from seed 408, each graph at
# bounds 5 and 8, then the 15-cycle, whose smallest cover has 8 vertices, at
# bounds 7 and 8: (answer, configurations the plain fold measures, _measure
# calls of the walk, prefixes it asks about). The plain fold measures
# lex-rank + 1 configurations for a true answer and all 2^n for a false one.
# A change to the pruning must update these on purpose.
WALK_MEASURES = [
    (False, 65536, 0, 2),
    (True, 15236, 4, 88),
    (False, 65536, 0, 2),
    (True, 3534, 2, 22),
    (False, 65536, 6, 416),
    (True, 254, 2, 21),
    (False, 65536, 0, 2),
    (True, 10362, 2, 21),
    (False, 32768, 2, 28),
    (True, 10924, 2, 21),
]


def test_or_walk_measures_fewer_configurations(monkeypatch):
    calls, prefixes = [], []
    measure, optimistic = VertexCover._measure, VertexCover._optimistic_payload

    def counted(self, config):
        calls.append(config)
        return measure(self, config)

    def visited(self, prefix):
        prefixes.append(prefix)
        return optimistic(self, prefix)

    monkeypatch.setattr(VertexCover, "_measure", counted)
    monkeypatch.setattr(VertexCover, "_optimistic_payload", visited)
    rng = make_rng(408)
    cases = []
    for _ in range(4):
        inner = VertexCover(GraphData(16, generators.gnp_edges(rng, 16, 0.15)))
        cases += [(inner, 5), (inner, 8)]
    cycle = VertexCover(GraphData(15, tuple((v, (v + 1) % 15) for v in range(15))))
    cases += [(cycle, 7), (cycle, 8)]
    counts = []
    for inner, bound in cases:
        calls.clear()
        prefixes.clear()
        result = fold_space(decision_wrap(inner, bound))
        answer = result.value.payload
        dims = inner.config_dims()
        plain = _lex_rank(result.witness, dims) + 1 if answer else 1 << len(dims)
        assert len(calls) < plain
        assert calls == sorted(calls) and (not answer or calls[-1] == result.witness)
        counts.append((answer, plain, len(calls), len(prefixes)))
    assert counts == WALK_MEASURES


# The Min walk on VertexCover G(20, 0.2), edges drawn by ``gnp_edges`` from
# seeds 1 and 2: (seed, configurations measured, smallest cover). The walk
# skips every prefix with no cover among its completions from the first one,
# before it holds a cover, so it measures a handful of the 2^20
# configurations; a walk that bounds nothing before its first cover measures
# 294,568 and 109,042. A change to the pruning must update these on purpose.
MIN_WALK_MEASURES = [(1, 2, 11), (2, 4, 10)]


def test_min_walk_bounds_prefixes_before_its_first_cover(monkeypatch):
    calls = []
    measure = VertexCover._measure

    def counted(self, config):
        calls.append(config)
        return measure(self, config)

    monkeypatch.setattr(VertexCover, "_measure", counted)
    counts = []
    for seed, _, _ in MIN_WALK_MEASURES:
        instance = VertexCover(GraphData(20, generators.gnp_edges(make_rng(seed), 20, 0.2)))
        calls.clear()
        result = fold_space(instance)
        assert calls == sorted(calls) and result.witness in calls
        counts.append((seed, len(calls), result.value.payload))
        assert evaluate(instance, result.witness) == result.value
    assert counts == MIN_WALK_MEASURES


def _cover_walk_instances():
    for seed in (1, 2):
        graph = GraphData(18, generators.gnp_edges(make_rng(seed), 18, 0.2))
        yield "DominatingSet", seed, DominatingSet(graph)
    for seed in (1, 2):
        yield "PartitionSetCover", seed, generators.partition_set_cover(make_rng(seed), 18)[0]
    for seed in (1, 2, 3):
        rng = make_rng(seed)
        sets = [sorted(rng.sample(range(30), rng.randint(1, 8))) for _ in range(18)]
        sets[-1] = sorted(set(sets[-1]).union(set(range(30)).difference(*sets)))
        yield "SetCover", seed, SetCover(SetCoverData(30, tuple(map(tuple, sets))))


# The Min walk on covering rows: DominatingSet G(18, 0.2) and SetCover of
# three random partitions of 18 elements into 3-sets, seeds 1 and 2, and
# SetCover of 18 random sets of 1 to 8 of 30 elements, the last set taking
# up what the others miss, seeds 1 to 3: (family, seed, configurations
# measured, prefixes asked, smallest cover). The row bound's covering need
# charges each prefix for disjoint covering rows that its free variables
# must still meet; bounded by the ones chosen so far alone, the walk asked
# 4,394, 2,668, 11,746, 11,536, 4,732, 4,346 and 1,462 prefixes and measured
# 14, 4, 2, 2, 22, 66 and 10 configurations. A change to the pruning must
# update these on purpose.
COVER_WALK_MEASURES = [
    ("DominatingSet", 1, 14, 2294, 5),
    ("DominatingSet", 2, 4, 1350, 5),
    ("PartitionSetCover", 1, 2, 7740, 6),
    ("PartitionSetCover", 2, 2, 7454, 6),
    ("SetCover", 1, 2, 146, 9),
    ("SetCover", 2, 4, 310, 10),
    ("SetCover", 3, 2, 116, 8),
]


def test_covering_need_prunes_covering_walks(monkeypatch):
    counts, calls, prefixes = [], [], []
    for cls in (DominatingSet, SetCover):
        measure, optimistic = cls._measure, cls._optimistic_payload

        def counted(self, config, measure=measure):
            calls.append(config)
            return measure(self, config)

        def visited(self, prefix, optimistic=optimistic):
            prefixes.append(prefix)
            return optimistic(self, prefix)

        monkeypatch.setattr(cls, "_measure", counted)
        monkeypatch.setattr(cls, "_optimistic_payload", visited)
    for family, seed, instance in _cover_walk_instances():
        calls.clear()
        prefixes.clear()
        result = fold_space(instance)
        assert calls == sorted(calls) and result.witness in calls
        counts.append((family, seed, len(calls), len(prefixes), result.value.payload))
        assert evaluate(instance, result.witness) == result.value
    assert counts == COVER_WALK_MEASURES


def _glass(seed, n=18, low=-3, density=1.0):
    """A spin glass of n spins, fields uniform in [-3, 3], and each pair, with
    probability ``density``, coupled uniformly in [low, 3]."""
    rng = make_rng(seed)
    j = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if density == 1.0 or rng.random() < density:
                j[a][b] = j[b][a] = rng.randint(low, 3)
    h = tuple(rng.randint(-3, 3) for _ in range(n))
    return SpinGlass(IsingData(n, tuple(map(tuple, j)), h))


def _quadratic_walk_instances():
    for p in (0.3, 0.1):
        for seed in (1, 2):
            edges = generators.gnp_edges(make_rng(seed), 20, p)
            yield f"MaxCut G(20, {p})", seed, MaxCut(GraphData(20, edges))
    yield "MaxCut path", 20, MaxCut(GraphData(20, tuple((v, v + 1) for v in range(19))))
    for name, low, density in (("", -3, 1.0), (" J>0", 1, 1.0), (" sparse", -3, 0.2)):
        for seed in (1, 2):
            yield "SpinGlass" + name, seed, _glass(seed, low=low, density=density)


# The Max walk on the quadratic families, each on its own matrix: MaxCut on
# G(20, p), edges drawn by ``gnp_edges`` from seeds 1 and 2, and on the path
# of 20 vertices; 18-spin glasses from ``_glass``, seeds 1 and 2, dense, with
# positive couplings only, and sparse: (instances, seed or path length,
# prefixes asked, best value). With max-cut's former bound, the edges the prefix cuts plus every
# edge with a free end, the MaxCut walks asked 65,472, 112,320, 6,070, 2,436
# and 344 prefixes; with the spin glass's, the terms the prefix fixes plus
# every term with a free spin at its best, the glasses asked 78,634, 75,384,
# 222,822, 184,020, 2,094 and 5,492. A change to the pruning must update
# these on purpose.
QUADRATIC_WALK_MEASURES = [
    ("MaxCut G(20, 0.3)", 1, 3216, 43),
    ("MaxCut G(20, 0.3)", 2, 5842, 44),
    ("MaxCut G(20, 0.1)", 1, 1238, 20),
    ("MaxCut G(20, 0.1)", 2, 464, 19),
    ("MaxCut path", 20, 344, 19),
    ("SpinGlass", 1, 2852, 99),
    ("SpinGlass", 2, 3200, 106),
    ("SpinGlass J>0", 1, 11546, 70),
    ("SpinGlass J>0", 2, 8354, 72),
    ("SpinGlass sparse", 1, 376, 63),
    ("SpinGlass sparse", 2, 490, 54),
]


def test_quadratic_walks_take_the_matrix_bound(monkeypatch):
    prefixes = []
    optimistic = QuadraticProblem._optimistic_payload

    def visited(self, prefix):
        prefixes.append(prefix)
        return optimistic(self, prefix)

    monkeypatch.setattr(QuadraticProblem, "_optimistic_payload", visited)
    counts = []
    for family, seed, instance in _quadratic_walk_instances():
        prefixes.clear()
        result = fold_space(instance)
        counts.append((family, seed, len(prefixes), result.value.payload))
        assert evaluate(instance, result.witness) == result.value
    assert counts == QUADRATIC_WALK_MEASURES


def _former_qubo_bound(instance, prefix):
    # each free x_j's gain given the prefix's ones, with its positive free couplings
    q, k = instance.data.q, len(prefix)
    bound = sum(q[i][l] * prefix[i] * prefix[l] for i in range(k) for l in range(k))
    for j in range(k, len(q)):
        gain = q[j][j] + sum(2 * q[j][i] * prefix[i] for i in range(k))
        bound += max(gain + sum(max(q[j][l], 0) for l in range(k, len(q)) if l != j), 0)
    return bound


def _former_maxcut_bound(instance, prefix):
    # the edges the prefix cuts, plus every edge with a free end
    k = len(prefix)
    return sum(prefix[u] != prefix[v] if v < k else 1 for u, v in instance.graph.edges)


def _former_spin_glass_bound(instance, prefix):
    # the terms the prefix fixes, plus every term with a free spin at its best
    j, h, k = instance.data.j, instance.data.h, len(prefix)
    s = [2 * x - 1 for x in prefix]
    fixed = sum(j[a][b] * s[a] * s[b] for b in range(k) for a in range(b))
    fixed += sum(c * spin for c, spin in zip(h, s))
    free = sum(abs(j[a][b]) for b in range(k, len(h)) for a in range(b)) + sum(map(abs, h[k:]))
    return free - fixed


def test_quadratic_bound_is_no_looser_than_the_former_family_bounds():
    """On every nonempty prefix shorter than a full configuration, the shared
    bound is at most the bound each family took before, so no walk asks about
    a prefix that the former bound would have skipped."""
    rng = make_rng(414)
    cases = [(_former_qubo_bound, Qubo(data)) for data in _qubo_matrices(rng)]
    cases += [(_former_maxcut_bound, MaxCut(graph)) for graph in _graphs(rng)]
    cases += [(_former_spin_glass_bound, glass) for glass in _spin_glasses(rng)]
    for former, instance in cases:
        for k in range(1, len(instance.config_dims())):
            for prefix in itertools.product((0, 1), repeat=k):
                bound = instance._optimistic_payload(prefix)
                assert bound <= former(instance, prefix), (instance, prefix)


def test_maxcut_counts_the_cut_its_statement_states():
    """``MaxCut._measure`` counts cut edges, which must be ``xᵀqx + offset`` of
    its own statement on every configuration."""
    for graph in _graphs(make_rng(413)):
        instance = MaxCut(graph)
        q, offset = instance.quadratic_statement()
        n = graph.num_vertices
        for x in itertools.product((0, 1), repeat=n):
            value = sum(q[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) + offset
            assert instance._measure(x) == (value, True), (graph, x)


def test_maxcut_evaluate_builds_no_matrix(monkeypatch):
    # the statement has V^2 entries: a large sparse graph is measured by its edges,
    # and a measure that asked for the statement fails here rather than build it
    def refused(self):
        raise AssertionError("evaluate asked for the V^2 statement")

    monkeypatch.setattr(MaxCut, "quadratic_statement", refused)
    instance = MaxCut(GraphData(100_000, ((0, 1), (1, 2), (5, 99_999))))
    config = [0] * 100_000
    config[1] = 1
    assert evaluate(instance, config).payload == 2
    assert "_statement" not in instance.__dict__


def test_or_walk_reaches_any_depth():
    assert fold_space(GraphColoring(GraphData(5000, ()), 1)).witness == (0,) * 5000


def test_decision_wrap_thresholds():
    mis = IndependentSet(P4)
    assert fold_space(decision_wrap(mis, 2)).value.payload is True
    assert fold_space(decision_wrap(mis, 3)).value.payload is False
    vc = VertexCover(P4)
    assert fold_space(decision_wrap(vc, 2)).value.payload is True
    assert fold_space(decision_wrap(vc, 1)).value.payload is False


def test_decision_wrap_rejects_or_kind():
    with pytest.raises(KindError):
        decision_wrap(decision_wrap(IndependentSet(P4), 2), 1)


def test_decision_problem_names_and_dims():
    wrapped = DecisionProblem(IndependentSet(P4), 2)
    assert wrapped.type_name == "DecisionMaximumIndependentSet"
    assert wrapped.kind is ValueKind.OR
    assert wrapped.config_dims() == (2, 2, 2, 2)
    # witness configs satisfying the bound evaluate to Or(true)
    assert evaluate(wrapped, (1, 0, 0, 1)).payload is True
    assert evaluate(wrapped, (0, 0, 0, 0)).payload is False
    assert evaluate(wrapped, (1, 1, 0, 0)).payload is False  # infeasible inner


def test_registry_lookup_and_aliases():
    registry = register_catalogue()
    mis = registry.lookup("MIS")
    assert mis.name == "MaximumIndependentSet"
    assert registry.lookup("MaximumIndependentSet") is mis
    # ILP's solver runs on it directly: its solver route is the empty path
    assert default_graph().solver_route(registry.lookup("ILP").key).steps == ()
    with pytest.raises(UnknownProblemError):
        registry.lookup("NoSuchProblem")


def test_registry_variant_lookup():
    registry = register_catalogue()
    weighted = registry.lookup(
        "MaximumIndependentSet", {"graph": "simple", "weight": "integer"}
    )
    assert dict(weighted.variant_tags)["weight"] == "integer"
    unit = registry.lookup("MaximumIndependentSet")
    assert dict(unit.variant_tags)["weight"] == "unit"
    assert weighted.key != unit.key


def test_registry_display_and_short_names():
    registry = register_catalogue()
    unit = registry.lookup("MIS").key
    weighted = make_key(
        "MaximumIndependentSet", {"graph": "simple", "weight": "integer"}
    )
    assert registry.display_name(unit) == "MaximumIndependentSet"
    assert registry.display_name(weighted) == "MaximumIndependentSet[weight=integer]"
    assert registry.short_name(unit) == "MIS"


def test_registry_rejects_duplicates():
    descriptor = register_catalogue().lookup("MIS")
    with pytest.raises(DuplicateRegistrationError, match="^variant already registered: "):
        Registry([descriptor, descriptor])
    # another variant under an alias that is already taken
    twin = ProblemTypeDescriptor("Other", (), ("V", "E"), "2^V", ValueKind.MAX, "MIS")
    with pytest.raises(DuplicateRegistrationError, match="^alias already registered: MIS$"):
        Registry([descriptor, twin])


def test_registry_count():
    registry = register_catalogue()
    assert len(registry.variants()) == 15


def test_instance_variant_key_matches_registry():
    registry = register_catalogue()
    mis = IndependentSet(P4)
    assert registry.lookup_key(mis.variant_key()).name == "MaximumIndependentSet"
    weighted = IndependentSet(GraphData(2, (), (3, 4)))
    assert "integer" in dict(weighted.variant_key()[1]).values()
