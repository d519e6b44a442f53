"""Value semantics of the library's immutable record classes.

Every record compares equal to another of the same class with equal fields,
hashes like the tuple of its fields, prints as ``Name(field=value, ...)``,
refuses assignment and deletion, fills its defaults, survives copy and
pickle, and runs its construction checks. Rules and reduction outcomes
compare by identity.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

import pred
from pred import (
    Add,
    AggregatedValue,
    Clique,
    CnfData,
    Const,
    DominatingSet,
    Exp,
    FoldResult,
    GraphColoring,
    GraphData,
    Ilp,
    IlpData,
    IndependentSet,
    InvalidInstanceError,
    IsingData,
    KindError,
    MaxCut,
    Mul,
    Pow,
    ProblemTypeDescriptor,
    Qubo,
    QuboData,
    ReductionEnvelope,
    ReductionOutcome,
    ReductionPath,
    ReductionRule,
    RoundTripReport,
    Satisfiability,
    SetCover,
    SetCoverData,
    SolveResult,
    SpinGlass,
    ThreeSatisfiability,
    ValueKind,
    Var,
    VertexCover,
    default_graph,
    reduce_along,
)
from pred.symbolic import Expr, _Growth

from generators import dense_ilp

GRAPH = default_graph()
P3 = GraphData(3, ((0, 1), (1, 2)))
TRIANGLE = GraphData(3, ((0, 1), (1, 2), (0, 2)))
CNF = CnfData(2, ((1, 2), (-1,)))
ILP = dense_ilp(2, ((0, 1), (0, 1)), (((1, 1), "<=", 1),), (1, 1), "max")
MAX2 = AggregatedValue(ValueKind.MAX, 2)
DESCRIPTOR = GRAPH.registry.lookup("MIS")
PATH = GRAPH.find_path(DESCRIPTOR.key, GRAPH.registry.lookup("ILP").key)
ENVELOPE = reduce_along(PATH, IndependentSet(P3))

# class -> (field names in constructor order, field values, other values);
# both value tuples build a valid instance, and the two instances differ
CASES = {
    Expr: ((), (), None),
    Const: (("value",), (Fraction(3),), (Fraction(1, 2),)),
    Var: (("name",), ("V",), ("E",)),
    Add: (("terms",), ((Var("a"), Var("b")),), ((Var("a"),),)),
    Mul: (("factors",), ((Var("a"), Var("b")),), ((Var("b"), Var("a")),)),
    Pow: (("base", "exponent"), (Var("n"), Fraction(2)), (Var("n"), Fraction(1, 2))),
    Exp: (("base", "exponent"), (Fraction(2), Var("n")), ("k", Var("V"))),
    _Growth: (("zero", "poly_deg", "exps"), (False, Fraction(1), {}), (True, Fraction(0), {})),
    AggregatedValue: (
        ("kind", "payload", "feasible", "sense"),
        (ValueKind.MAX, 2, True, None),
        (ValueKind.EXTREMUM, 2, False, "minimize"),
    ),
    FoldResult: (("value", "witness"), (MAX2, (1, 0)), (MAX2, None)),
    ProblemTypeDescriptor: (
        ("name", "variant_tags", "size_measure_names", "complexity", "kind", "alias"),
        ("X", (), ("n",), Var("n"), ValueKind.MAX, None),
        ("X", (), ("n",), Var("n"), ValueKind.MAX, "Y"),
    ),
    GraphData: (
        ("num_vertices", "edges", "vertex_weights"),
        (3, ((0, 1), (1, 2)), None),
        (3, ((0, 1), (1, 2)), (1, 2, 3)),
    ),
    CnfData: (("num_variables", "clauses"), (2, ((1, 2), (-1,))), (2, ((1, 2),))),
    IlpData: (
        ("num_vars", "var_bounds", "constraints", "objective", "sense"),
        (2, ((0, 1), (0, 1)), ((((0, 1), (1, 1)), "<=", 1),), (1, 1), "max"),
        (2, ((0, 1), (0, 1)), ((((0, 1), (1, 1)), "<=", 1),), (1, 1), "min"),
    ),
    QuboData: (("n", "q"), (2, ((1, -2), (-2, 1))), (2, ((1, 0), (0, 1)))),
    IsingData: (("n", "j", "h"), (2, ((0, 1), (1, 0)), (1, 0)), (2, ((0, 1), (1, 0)), (0, 0))),
    SetCoverData: (("num_elements", "sets"), (2, ((0,), (1,))), (2, ((0, 1),))),
    IndependentSet: (("graph",), (P3,), (TRIANGLE,)),
    VertexCover: (("graph",), (P3,), (TRIANGLE,)),
    Clique: (("graph",), (P3,), (TRIANGLE,)),
    DominatingSet: (("graph",), (P3,), (TRIANGLE,)),
    MaxCut: (("graph",), (P3,), (TRIANGLE,)),
    SetCover: (("data",), (SetCoverData(2, ((0,), (1,))),), (SetCoverData(1, ((0,),)),)),
    Qubo: (("data",), (QuboData(1, ((1,),)),), (QuboData(1, ((2,),)),)),
    SpinGlass: (("data",), (IsingData(1, ((0,),), (1,)),), (IsingData(1, ((0,),), (2,)),)),
    GraphColoring: (("graph", "colors"), (P3, 2), (P3, 3)),
    Satisfiability: (("cnf",), (CNF,), (CnfData(1, ((1,),)),)),
    ThreeSatisfiability: (("cnf",), (CNF,), (CnfData(1, ((1,),)),)),
    Ilp: (("data",), (ILP,), (IlpData(0, (), (), (), "min"),)),
    ReductionRule: (
        (
            "name", "source", "target", "overhead", "forward",
            "config_extractor", "value_extractor",
        ),
        ("r", DESCRIPTOR, DESCRIPTOR, {"V": Var("V"), "E": Var("E")}, None, None, None),
        None,
    ),
    ReductionOutcome: (
        ("rule", "target_instance", "extraction"),
        (PATH.steps[0], Qubo(QuboData(1, ((1,),))), {}),
        None,
    ),
    ReductionPath: (
        ("source_type", "target_type", "steps"),
        (PATH.source_type, PATH.target_type, PATH.steps),
        (PATH.source_type, PATH.source_type, ()),
    ),
    ReductionEnvelope: (
        ("source_instance", "path", "target_instance", "stack"),
        (ENVELOPE.source_instance, PATH, ENVELOPE.target_instance, ENVELOPE.stack),
        (ENVELOPE.source_instance, PATH, ENVELOPE.target_instance, ()),
    ),
    RoundTripReport: (
        ("rule_names", "passed", "source_optimum", "extracted_value", "detail"),
        (("a",), True, MAX2, None, "ok"),
        (("a",), False, MAX2, MAX2, "mismatch"),
    ),
    SolveResult: (
        ("value", "witness", "solver_name", "route"),
        (MAX2, (1, 0), "ilp", None),
        (MAX2, (1, 0), "ilp", PATH),
    ),
    pred.CanonicalExample: (
        ("id", "instance", "known_value", "known_witness", "narrative"),
        ("x", IndependentSet(P3), MAX2, (1, 0, 1), "n"),
        ("y", IndependentSet(P3), MAX2, (1, 0, 1), "n"),
    ),
    pred.ExampleReport: (("checked", "mismatches"), (1, ()), (1, ("bad",))),
}
IDENTITY_EQUAL = (ReductionRule, ReductionOutcome)
CUSTOM_REPR = {ReductionRule: lambda rule: f"<ReductionRule {rule.name}>"}


def _id(cls) -> str:
    return cls.__name__


def _hash_of(values: tuple):
    try:
        return hash(values)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", list(CASES), ids=_id)
def test_record_equality_hash_and_repr(cls):
    names, values, other = CASES[cls]
    a, b = cls(*values), cls(*values)
    assert tuple(getattr(a, name) for name in names) == values
    if cls in IDENTITY_EQUAL:
        assert a != b and a == a
        assert hash(a) == object.__hash__(a)
    else:
        assert a == b and not a != b
        if _hash_of(values) is TypeError:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(values)
        if other is not None:
            assert a != cls(*other)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    expected = CUSTOM_REPR.get(cls, lambda _: f"{cls.__qualname__}({fields})")(a)
    assert repr(a) == expected


@pytest.mark.parametrize("cls", list(CASES), ids=_id)
def test_record_keywords_give_the_same_record(cls):
    names, values, _ = CASES[cls]
    by_name = cls(**dict(zip(names, values)))
    assert tuple(getattr(by_name, name) for name in names) == values
    if cls not in IDENTITY_EQUAL:
        assert by_name == cls(*values)


@pytest.mark.parametrize("cls", [c for c in CASES if c is not _Growth and CASES[c][0]], ids=_id)
def test_record_fields_are_frozen(cls):
    names, values, _ = CASES[cls]
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == dict(zip(names, values))[name]


# a deep copy of a rule is a different rule, so records holding rules are left out
@pytest.mark.parametrize(
    "cls", [c for c in CASES if c not in (*IDENTITY_EQUAL, ReductionPath, ReductionEnvelope)],
    ids=_id,
)
def test_record_copy_and_pickle_round_trip(cls):
    names, values, _ = CASES[cls]
    record = cls(*values)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_record_defaults():
    assert AggregatedValue(ValueKind.MAX, 1) == AggregatedValue(ValueKind.MAX, 1, True, None)
    assert GraphData(2, ()).vertex_weights is None
    names, values, _ = CASES[ProblemTypeDescriptor]
    assert ProblemTypeDescriptor(*values[:-1]).alias is None
    rule = ReductionRule("r", DESCRIPTOR, DESCRIPTOR, {}, None)
    assert rule.config_extractor is None and rule.value_extractor is None
    assert SolveResult(MAX2, None, "ilp").route is None


def test_records_of_different_classes_differ():
    terms = (Var("a"), Var("b"))
    assert Add(terms) != Mul(terms)
    assert Satisfiability(CNF) != ThreeSatisfiability(CNF)
    assert IndependentSet(P3) != VertexCover(P3)
    assert isinstance(ThreeSatisfiability(CNF), Satisfiability)


def test_record_construction_checks_and_normalisation():
    with pytest.raises(ValueError):
        Const(-1)
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Pow(Var("n"), -1)
    with pytest.raises(ValueError):
        Exp(1, Var("n"))
    with pytest.raises(KindError):
        AggregatedValue(ValueKind.MAX, 1, True, "maximize")
    with pytest.raises(KindError):
        AggregatedValue(ValueKind.EXTREMUM, 1, True, "sideways")
    with pytest.raises(InvalidInstanceError):
        GraphData(2, ((0, 0),))
    with pytest.raises(InvalidInstanceError):
        GraphColoring(P3, 0)
    with pytest.raises(InvalidInstanceError):
        ThreeSatisfiability(CnfData(4, ((1, 2, 3, 4),)))
    assert Satisfiability(CnfData(4, ((1, 2, 3, 4),))).cnf.num_variables == 4
    assert type(Const(2).value) is Fraction and Const(2) == Const(Fraction(2))
    assert Exp(2, Var("n")).base == Fraction(2)
    graph = GraphData(3, [[1, 0], [2, 1]], [1, 2, 3])
    assert graph.edges == ((0, 1), (1, 2)) and graph.vertex_weights == (1, 2, 3)
    assert CnfData(1, [[1]]).clauses == ((1,),)
    assert IlpData(1, [[0, 1]], [[[[0, 1]], "<=", 1]], [1], "max") == IlpData(
        1, ((0, 1),), ((((0, 1),), "<=", 1),), (1,), "max"
    )


def test_graph_views_are_cached_and_leave_equality_alone():
    graph = GraphData(3, ((0, 1), (1, 2)), (2, 1, 2))
    assert graph.edge_set is graph.edge_set
    assert graph.weights == (2, 1, 2)
    assert graph.closed_neighborhoods == ((0, 1), (0, 1, 2), (1, 2))
    fresh = GraphData(3, ((0, 1), (1, 2)), (2, 1, 2))
    assert graph == fresh and hash(graph) == hash(fresh)
    assert repr(graph) == repr(fresh)
    assert GraphData(2, ()).weights == (1, 1)
