"""Problem catalogue: data container invariants, per-type evaluation
semantics checked against independent oracles, and document serialization."""

from __future__ import annotations

import zlib

import pytest

from pred import (
    UnknownProblemError,
    Clique,
    CnfData,
    DocumentError,
    DominatingSet,
    GraphColoring,
    GraphData,
    Ilp,
    IlpData,
    IndependentSet,
    InvalidInstanceError,
    IsingData,
    MaxCut,
    Qubo,
    QuboData,
    Satisfiability,
    SetCover,
    SetCoverData,
    SpinGlass,
    ThreeSatisfiability,
    ValueKind,
    VertexCover,
    evaluate,
    fold_space,
    instance_from_document,
    instance_to_document,
    register_catalogue,
)
from pred.problems import instance_from_data

import oracles
from generators import (
    make_rng,
    random_3sat,
    random_clique,
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

REGISTRY = register_catalogue()
TRIALS = 25


# --- data container invariants ------------------------------------------------

def test_graph_data_rejects_bad_edges():
    with pytest.raises(InvalidInstanceError):
        GraphData(2, ((0, 0),))
    with pytest.raises(InvalidInstanceError):
        GraphData(2, ((0, 2),))
    with pytest.raises(InvalidInstanceError):
        GraphData(3, ((0, 1), (1, 0)))  # duplicate after normalization


def test_graph_data_normalizes_orientation():
    assert GraphData(3, ((2, 0),)).edges == GraphData(3, ((0, 2),)).edges


def test_graph_data_weight_validation():
    with pytest.raises(InvalidInstanceError):
        GraphData(2, (), (1,))  # wrong length
    with pytest.raises(InvalidInstanceError):
        GraphData(2, (), (1, 0))  # weights must be positive


def test_cnf_data_rejects_bad_literals():
    with pytest.raises(InvalidInstanceError):
        CnfData(2, ((0,),))
    with pytest.raises(InvalidInstanceError):
        CnfData(2, ((3,),))
    with pytest.raises(InvalidInstanceError):
        CnfData(2, ((),))


def test_three_sat_rejects_wide_clauses():
    with pytest.raises(InvalidInstanceError):
        ThreeSatisfiability(CnfData(4, ((1, 2, 3, 4),)))


def test_ilp_data_rejects_inconsistencies():
    with pytest.raises(InvalidInstanceError):
        IlpData(1, ((1, 0),), (), (1,), "max")  # lo > hi
    with pytest.raises(InvalidInstanceError):
        IlpData(2, ((0, 1),), (), (1, 1), "max")  # bounds length
    with pytest.raises(InvalidInstanceError):
        IlpData(1, ((0, 1),), ((((0, 1),), "<", 1),), (1,), "max")  # bad relation
    with pytest.raises(InvalidInstanceError):
        IlpData(1, ((0, 1),), (), (1,), "biggest")  # bad sense


@pytest.mark.parametrize(
    "terms,bad",
    [
        (((2, 1),), (2, 1)),
        (((-1, 1),), (-1, 1)),
        (((0, 1), (0, 2)), (0, 2)),
        (((1, 1), (0, 1)), (0, 1)),
        (((0, 0),), (0, 0)),
        (((0, 1), (1, 0)), (1, 0)),
    ],
    ids=["past-the-end", "negative", "repeated", "decreasing", "zero", "zero-last"],
)
def test_ilp_data_rejects_terms_out_of_range_out_of_order_or_zero(terms, bad):
    with pytest.raises(InvalidInstanceError) as caught:
        IlpData(2, ((0, 1),) * 2, ((terms, "<=", 1),), (1, 1), "max")
    message = f"constraint term {bad} is out of range, out of index order or zero"
    assert str(caught.value) == message


def test_ilp_decoder_rejects_a_coefficient_row_of_the_wrong_length():
    # a document row is dense, one coefficient per variable
    data = {
        "num_vars": 1,
        "bounds": [[0, 1]],
        "constraints": [{"coeffs": [1, 2], "rel": "<=", "rhs": 1}],
        "objective": [1],
        "sense": "max",
    }
    with pytest.raises(InvalidInstanceError) as caught:
        instance_from_data("IntegerLinearProgram", data)
    assert str(caught.value) == "constraint coefficient length != variable count"


def test_qubo_data_requires_symmetry():
    with pytest.raises(InvalidInstanceError):
        QuboData(2, ((0, 1), (2, 0)))


def test_ising_data_requires_zero_diagonal():
    with pytest.raises(InvalidInstanceError):
        IsingData(1, ((1,),), (0,))
    with pytest.raises(InvalidInstanceError):
        IsingData(2, ((0, 1), (2, 0)), (0, 0))  # asymmetric


def test_set_cover_data_requires_coverage():
    with pytest.raises(InvalidInstanceError):
        SetCoverData(3, ((0, 1),))
    with pytest.raises(InvalidInstanceError):
        SetCoverData(2, ((0, 3),))  # element out of range


# --- evaluation semantics vs oracles -------------------------------------------

def test_mis_evaluation_hand_case():
    mis = IndependentSet(GraphData(4, ((0, 1), (1, 2), (2, 3))))
    assert evaluate(mis, (1, 0, 0, 1)).render() == "Max(2)"
    assert not evaluate(mis, (1, 1, 0, 0)).feasible


def test_vc_requires_every_edge_covered():
    vc = VertexCover(GraphData(3, ((0, 1), (1, 2))))
    assert evaluate(vc, (0, 1, 0)) .render() == "Min(1)"
    assert not evaluate(vc, (1, 0, 0)).feasible


def test_clique_requires_all_pairs():
    clique = Clique(GraphData(3, ((0, 1), (1, 2))))
    assert evaluate(clique, (1, 1, 0)).feasible
    assert not evaluate(clique, (1, 1, 1)).feasible


def test_maxcut_always_feasible():
    cut = MaxCut(GraphData(3, ((0, 1), (1, 2), (0, 2))))
    for config in ((0, 0, 0), (0, 0, 1), (1, 0, 1)):
        assert evaluate(cut, config).feasible


def test_coloring_checks_edges():
    gc = GraphColoring(GraphData(2, ((0, 1),)), 2)
    assert evaluate(gc, (0, 1)).payload is True
    assert evaluate(gc, (1, 1)).payload is False


def test_spin_glass_config_to_spin_convention():
    # config bit c maps to spin 2c-1; payload is the negated energy
    glass = SpinGlass(IsingData(2, ((0, -1), (-1, 0)), (1, 0)))
    assert evaluate(glass, (0, 0)).payload == oracles.ising_negated_energy(
        [[0, -1], [-1, 0]], [1, 0], (-1, -1)
    )


def test_ilp_point_offsets_from_lower_bounds():
    ilp = Ilp(IlpData(1, ((-3, 2),), (), (1,), "max"))
    assert ilp.point((0,)) == (-3,)
    assert ilp.point((5,)) == (2,)
    assert evaluate(ilp, (5,)).payload == 2
    assert evaluate(ilp, (5,)).kind is ValueKind.EXTREMUM


FAMILIES = [
    (random_mis, lambda p: oracles.best_independent_set(p[0], p[1])),
    (
        lambda rng: random_mis(rng, weighted=True),
        lambda p: oracles.best_independent_set(p[0], p[1], p[2]),
    ),
    (random_vc, lambda p: oracles.best_vertex_cover(p[0], p[1])),
    (random_clique, lambda p: oracles.best_clique(p[0], p[1])),
    (random_domset, lambda p: oracles.best_dominating_set(p[0], p[1])),
    (random_maxcut, lambda p: oracles.best_cut(p[0], p[1])),
    (random_set_cover, lambda p: oracles.best_set_cover(p[0], p[1])),
    (random_qubo, lambda q: oracles.best_qubo(q)),
    (random_ising, lambda p: oracles.best_ising(p[0], p[1])),
]


@pytest.mark.parametrize("builder,oracle", FAMILIES, ids=lambda f: getattr(f, "__name__", "case"))
def test_fold_matches_oracle(builder, oracle):
    rng = make_rng(zlib.crc32(getattr(builder, "__name__", "w").encode()) & 0xFFFF)
    optima = []
    for _ in range(TRIALS):
        instance, plain = builder(rng)
        result = fold_space(instance)
        expected, witnesses = oracle(plain)
        assert result.value.payload == expected
        assert result.value.feasible
        assert evaluate(instance, result.witness).payload == expected
        optima.append(expected)
    if builder is random_set_cover:  # the draws include covers of two or more sets
        assert max(optima) >= 2


def test_sat_fold_matches_oracle():
    rng = make_rng(77)
    for _ in range(TRIALS):
        sat, (n, clauses) = random_sat(rng)
        assert fold_space(sat).value.payload == oracles.satisfiable(n, clauses)
        three, (n3, c3) = random_3sat(rng)
        assert fold_space(three).value.payload == oracles.satisfiable(n3, c3)


def test_coloring_fold_matches_oracle():
    rng = make_rng(78)
    from generators import random_coloring

    for _ in range(TRIALS):
        gc, (n, edges, k) = random_coloring(rng, max_vertices=4, colors=2)
        assert fold_space(gc).value.payload == oracles.colorable(n, edges, k)


def test_ilp_fold_matches_oracle():
    rng = make_rng(79)
    for _ in range(TRIALS):
        ilp, (bounds, constraints, objective, sense) = random_ilp(rng, max_vars=4)
        result = fold_space(ilp)
        expected, _ = oracles.best_ilp(bounds, constraints, objective, sense)
        if expected is None:
            assert not result.value.feasible
        else:
            assert result.value.feasible
            assert result.value.payload == expected


# --- wire documents -------------------------------------------------------------

def test_document_round_trip_random():
    rng = make_rng(80)
    builders = [
        random_mis,
        random_vc,
        random_clique,
        random_domset,
        random_maxcut,
        random_sat,
        random_3sat,
        random_qubo,
        random_ising,
        random_set_cover,
        random_ilp,
    ]
    for builder in builders:
        for _ in range(10):
            instance, _ = builder(rng)
            document = instance_to_document(instance)
            rebuilt = instance_from_document(document, REGISTRY)
            assert instance_to_document(rebuilt) == document
            assert rebuilt.variant_key() == instance.variant_key()


def test_document_rejects_missing_and_unknown_fields():
    good = instance_to_document(IndependentSet(GraphData(2, ((0, 1),))))
    missing = {k: v for k, v in good.items() if k != "data"}
    with pytest.raises(DocumentError):
        instance_from_document(missing, REGISTRY)
    extra = dict(good)
    extra["surprise"] = 1
    with pytest.raises(DocumentError):
        instance_from_document(extra, REGISTRY)
    bad_data = dict(good, data=dict(good["data"], zzz=1))
    with pytest.raises(DocumentError):
        instance_from_document(bad_data, REGISTRY)


def test_document_rejects_unknown_problem_and_variant():
    good = instance_to_document(IndependentSet(GraphData(2, ((0, 1),))))
    with pytest.raises(UnknownProblemError):
        instance_from_document(dict(good, problem="Nope"), REGISTRY)
    with pytest.raises((DocumentError, UnknownProblemError)):
        instance_from_document(dict(good, variant={"weight": "golden"}), REGISTRY)


def test_document_rejects_invalid_embedded_data():
    good = instance_to_document(IndependentSet(GraphData(2, ((0, 1),))))
    bad = dict(good, data={"num_vertices": 2, "edges": [[0, 0]]})
    with pytest.raises((DocumentError, InvalidInstanceError)):
        instance_from_document(bad, REGISTRY)


def test_weighted_document_variant_cross_check():
    weighted = IndependentSet(GraphData(2, (), (3, 4)))
    document = instance_to_document(weighted)
    assert document["variant"]["weight"] == "integer"
    # stripping the weights contradicts the declared variant
    stripped = dict(document, data={"num_vertices": 2, "edges": []})
    with pytest.raises(DocumentError):
        instance_from_document(stripped, REGISTRY)
