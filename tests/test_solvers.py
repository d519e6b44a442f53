"""Solver dispatch and the branch-and-bound ILP backend."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pred import (
    DEFAULT_NODE_BUDGET,
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
    reduce_along,
    solve,
    solve_brute,
    solve_ilp,
    solver_label,
    shipped_rules,
)
from pred.solvers import SOLVERS, _BitSearch, _BoxSearch, _kernel, _stored_rows

from generators import (
    clause_row,
    dense_ilp,
    dense_rows,
    gnp_edges,
    make_rng,
    partition_set_cover,
    random_cardinality_ilp,
    random_clause_ilp,
    random_clique,
    random_coloring,
    random_conflict_ilp,
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
from oracles import best_ilp, ilp_feasible, lexicographic_ilp, propagate_bounds, reference_fold

REGISTRY = default_graph().registry
P4 = GraphData(4, ((0, 1), (1, 2), (2, 3)))


def _point(data: IlpData, witness):
    # solver witnesses live in offset coordinates starting at each lower bound
    return tuple(x + lo for x, (lo, _) in zip(witness, data.var_bounds))


def test_solve_ilp_simple_max():
    data = dense_ilp(2, ((0, 3), (0, 3)), (((1, 2), "<=", 4),), (2, 3), "max")
    result = solve_ilp(data)
    assert result.solver_name == "ilp"
    assert result.value.kind is ValueKind.EXTREMUM
    assert result.value.sense == SENSE_MAXIMIZE
    assert result.value.payload == 7
    assert _point(data, result.witness) == (2, 1)


def test_solve_ilp_negative_coefficients_and_equality():
    data = dense_ilp(
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
    data = dense_ilp(2, ((5, 8), (-4, -1)), (((1, 1), "<=", 5),), (1, 1), "max")
    result = solve_ilp(data)
    # evaluate() consumes the same offset coordinates the solver reports
    assert evaluate(Ilp(data), result.witness).payload == result.value.payload
    assert _point(data, result.witness) == (6, -1)
    assert result.value.payload == 5


def test_solve_ilp_infeasible_is_a_value_not_an_error():
    data = dense_ilp(1, ((0, 1),), (((1,), ">=", 2),), (1,), "max")
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
    data = dense_ilp(2, ((0, 1), (0, 1)), (((1, 1), "<=", 1),), (1, 1), "max")
    result = solve_ilp(data)
    assert result.value.payload == 1
    assert result.witness == (0, 1)


def test_solve_ilp_node_budget():
    data = dense_ilp(6, ((0, 1),) * 6, (((1,) * 6, "<=", 3),), (1,) * 6, "max")
    with pytest.raises(BudgetExceededError) as exc_info:
        solve_ilp(data, max_nodes=2)
    assert exc_info.value.limit == 2
    assert exc_info.value.nodes == 2
    assert exc_info.value.incumbent is None
    assert "branch-and-bound exceeded 2 nodes" in str(exc_info.value)


def _mis_g40_program(sense="max"):
    """The MIS program of G(40, 0.15), as a max program or a min one over
    negated gains."""
    n = 40
    rows = tuple(
        (tuple(1 if k in edge else 0 for k in range(n)), "<=", 1)
        for edge in gnp_edges(make_rng(4), n, 0.15)
    )
    return dense_ilp(n, ((0, 1),) * n, rows, (1 if sense == "max" else -1,) * n, sense)


def test_budget_exhaustion_reports_the_incumbent_so_far():
    # MIS rows over G(40, 0.15): the search holds an incumbent long before
    # its optimum is proved
    data = _mis_g40_program()
    optimum = solve_ilp(data).value.payload
    with pytest.raises(BudgetExceededError) as exc_info:
        solve_ilp(data, max_nodes=40)
    assert exc_info.value.limit == 40
    assert exc_info.value.nodes == 40
    assert 0 < exc_info.value.incumbent <= optimum


@pytest.mark.parametrize("sense", ["max", "min"])
def test_budget_exhausted_after_the_dive_reports_the_dive_value(sense):
    # the dive reaches a point of value v and the search then keeps only
    # points of at least v, holding the cutoff v - 1 before it meets one; a
    # budget that runs out in between must report v, which a point attains
    data = _mis_g40_program(sense)
    dives = []
    dive = _BitSearch._dive

    def recorded(self, state, bound):
        value = dive(self, state, bound)
        dives.append((value, self.nodes))
        return value

    with mock.patch.object(_BitSearch, "_dive", recorded):
        solve_ilp(data)
    [(value, nodes)] = dives
    search = _kernel(data, nodes + 1)
    with pytest.raises(BudgetExceededError) as exc_info:
        search.run()
    assert search.best_point is None and search.best_value == value - 1
    assert exc_info.value.incumbent == search.sign * value


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
    # the relaxation reads; pre-fixed variables and zero or negative gains
    # exercise its capacity and least-bad choices, cap-1 rows over dense
    # random graphs its conflict cliques, which span several rows, and clause
    # rows its rows of both signs
    rng = make_rng(2007)
    for generator, count in (
        (random_cardinality_ilp, 1000), (random_conflict_ilp, 300), (random_clause_ilp, 500)
    ):
        for _ in range(count):
            ilp, (bounds, constraints, objective, sense) = generator(rng)
            result = solve_ilp(ilp.data)
            expected, winners = best_ilp(bounds, constraints, objective, sense)
            if expected is None:
                assert not result.value.feasible
                assert result.witness is None
            else:
                assert result.value.payload == expected
                assert _point(ilp.data, result.witness) == winners[0]


# A 0-1 program of cardinality rows with tied optima: a packing row, a covering
# row as ``>=``, one as ``<=`` over -1, and an ``=`` row, which is both. Any
# +1/-1 row keeps it on the 0-1 kernel; a coefficient of 2 or a wider box
# sends it to the box kernel
CARDINAL_BOUNDS = ((0, 1),) * 5
CARDINAL_ROWS = (
    ((1, 1, 1, 0, 0), "<=", 2),
    ((0, 0, 1, 1, 0), ">=", 1),
    ((0, -1, 0, -1, -1), "<=", -1),
    ((1, 0, 0, 1, 1), "=", 2),
)
KERNEL_CASES = [
    ("zero-one", _BitSearch, CARDINAL_BOUNDS, CARDINAL_ROWS),
    ("general-row", _BoxSearch, CARDINAL_BOUNDS, CARDINAL_ROWS + (((2, 1, 0, 0, 0), "<=", 2),)),
    ("mixed-sign", _BitSearch, CARDINAL_BOUNDS, CARDINAL_ROWS + (((1, -1, 0, 0, 0), "<=", 0),)),
    ("wide-box", _BoxSearch, ((0, 1),) * 4 + ((0, 2),), CARDINAL_ROWS),
    ("zero-row", _BitSearch, CARDINAL_BOUNDS, CARDINAL_ROWS + (((0,) * 5, "<=", 0),)),
    ("zero-row-fails", _BitSearch, CARDINAL_BOUNDS, CARDINAL_ROWS + (((0,) * 5, ">=", 1),)),
    ("pre-fixed", _BitSearch, ((1, 1), (0, 1), (0, 0), (0, 1), (0, 1)), CARDINAL_ROWS),
    ("empty", _BitSearch, (), ()),
]


@pytest.mark.parametrize("sense", ["max", "min"])
@pytest.mark.parametrize("objective", [(1, 1, 1, 1, 1), (2, -1, 0, 3, -2)])
@pytest.mark.parametrize(
    "kernel,bounds,rows", [case[1:] for case in KERNEL_CASES], ids=[c[0] for c in KERNEL_CASES]
)
def test_kernel_is_selected_from_the_program_and_keeps_the_first_optimum(
    kernel, bounds, rows, objective, sense
):
    n = len(bounds)
    data = dense_ilp(n, bounds, rows, objective[:n], sense)
    assert type(_kernel(data, DEFAULT_NODE_BUDGET)) is kernel
    result = solve_ilp(data)
    expected, winners = best_ilp(bounds, rows, objective[:n], sense)
    if expected is None:
        assert not result.value.feasible and result.witness is None
    else:
        assert result.value.payload == expected
        assert _point(data, result.witness) == winners[0]


@pytest.mark.parametrize("n", [20, 30])
def test_both_kernels_search_a_zero_objective_clause_program_alike(n):
    # random 3-SAT at clause ratio 4.26 as clause rows, each of both signs but
    # the all-positive ones: with no gain no bound can close a node, so the
    # 0-1 kernel's popcount rows must charge the nodes and reach the point the
    # box kernel's bound lists do
    for seed in range(1, 6):
        rng = make_rng(seed)
        clauses = [
            [rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(round(4.26 * n))
        ]
        rows = tuple(clause_row(n, clause) for clause in clauses)
        data = dense_ilp(n, ((0, 1),) * n, rows, (0,) * n, "max")
        bits = _kernel(data, DEFAULT_NODE_BUDGET)
        box = _BoxSearch(data, _stored_rows(data), DEFAULT_NODE_BUDGET)
        assert isinstance(bits, _BitSearch)
        bits.run()
        box.run()
        assert bits.nodes == box.nodes
        assert (bits.best_point is None) == (box.best_point is None)
        if box.best_point is not None:
            assert bits.witness() == box.witness()
            assert ilp_feasible(bits.witness(), dense_rows(data))


# --- the kernel: propagation fixpoint, carried bound, pinned search -------------


def _box(search, state):
    """A node state of either kernel as (lo, hi) lists."""
    if isinstance(search, _BitSearch):
        ones, zeros = state
        n = search.num_vars
        return [ones >> j & 1 for j in range(n)], [1 - (zeros >> j & 1) for j in range(n)]
    lo, hi = state
    return list(lo), list(hi)


def _optimistic(search, lo, hi):
    return sum(c * (hi[j] if c > 0 else lo[j]) for j, c in enumerate(search.gain))


def _assert_propagates_like_the_reference(data, lo, hi):
    search = _kernel(data, DEFAULT_NODE_BUDGET)
    expected = propagate_bounds(lo, hi, dense_rows(data))
    out = search._propagate(search._state(list(lo), list(hi)), search._all_rows())
    if expected is None:
        assert out is None
    else:
        assert _box(search, out[0]) == expected
        assert out[1] == _optimistic(search, lo, hi) - _optimistic(search, *expected)


def _search_checked(data):
    """Run the search ``solve_ilp`` selects, checking every propagation against
    the reference from scratch, every node's carried bound against a full
    recompute, and the dive's value against the objective of the point it
    reached; returns the finished search."""
    search = _kernel(data, DEFAULT_NODE_BUDGET)
    kernel = type(search)
    propagate, enter, dive, attained = (
        kernel._propagate, kernel._enter, kernel._dive, kernel._attained
    )
    reached = []

    def checked_propagate(self, state, pending):
        before = _box(self, state)
        out = propagate(self, state, pending)
        expected = propagate_bounds(*before, dense_rows(data))
        if expected is None:
            assert out is None
        else:
            assert _box(self, out[0]) == expected
            assert out[1] == _optimistic(self, *before) - _optimistic(self, *expected)
        return out

    def checked_enter(self, state, start, bound):
        assert bound == _optimistic(self, *_box(self, state))
        return enter(self, state, start, bound)

    def recorded_attained(self, state, branch):
        point = attained(self, state, branch)
        reached.append(point)
        return point

    def checked_dive(self, state, bound):
        value = dive(self, state, bound)
        if value is not None:
            # the dive ends on the first attained point, the last one recorded
            point = reached[-1]
            if isinstance(self, _BitSearch):
                point = [point >> j & 1 for j in range(self.num_vars)]
            assert value == sum(c * x for c, x in zip(self.gain, point))
        return value

    with mock.patch.object(kernel, "_propagate", checked_propagate), mock.patch.object(
        kernel, "_enter", checked_enter
    ), mock.patch.object(kernel, "_dive", checked_dive), mock.patch.object(
        kernel, "_attained", recorded_attained
    ):
        search.run()
    return search


def test_propagation_reaches_the_reference_fixpoint():
    # negative coefficients, ``>=`` and ``=`` rows and boxes up to five wide,
    # propagated from random partial fixings and inside whole searches
    rng = make_rng(2007)
    for index in range(400):
        if index % 4 == 3:
            ilp, (bounds, _, _, _) = random_cardinality_ilp(rng)
        else:
            ilp, (bounds, _, _, _) = random_ilp(rng)
        lo, hi = [l for l, _ in bounds], [h for _, h in bounds]
        for j in range(len(bounds)):
            if rng.random() < 0.3:
                lo[j] = hi[j] = rng.randint(lo[j], hi[j])
        _assert_propagates_like_the_reference(ilp.data, lo, hi)
        _search_checked(ilp.data)


def test_zero_one_kernel_propagates_and_bounds_like_the_reference():
    # every program of +1/-1 rows runs on the 0-1 kernel, cardinality and
    # clause rows alike; its popcount rows must reach the reference fixpoint
    # and carry the recomputed bound at every node
    rng = make_rng(1313)
    for generator in [random_cardinality_ilp] * 300 + [random_clause_ilp] * 300:
        ilp, (bounds, constraints, objective, sense) = generator(rng)
        search = _search_checked(ilp.data)
        assert isinstance(search, _BitSearch)
        expected, winners = best_ilp(bounds, constraints, objective, sense)
        if expected is None:
            assert search.best_point is None
        else:
            assert search.sign * search.best_value == expected
            assert _point(ilp.data, search.witness()) == winners[0]


def _ilp_program(instance) -> IlpData:
    """The program ``instance`` reduces to along its path to the ILP node."""
    route = default_graph().find_path(instance.variant_key(), REGISTRY.lookup("ILP").key)
    return reduce_along(route, instance).target_instance.data


def _conflict_programs(rng, count):
    """``count`` each of four kinds of 0-1 program whose cap-1 rows form a
    conflict graph: random conflict ILPs (pre-fixed variables, gains -3 to
    5), weighted MIS (gains 1 to 5), 3SAT through MIS, whose clause
    triangles the cliques can take whole, and clause-row ILPs, whose rows of
    both signs the row pass reads beside their cap-1 pairs."""
    for _ in range(count):
        yield random_conflict_ilp(rng)[0].data
        yield _ilp_program(random_mis(rng, max_vertices=10, weighted=True)[0])
        yield _ilp_program(random_3sat(rng, max_variables=4, max_clauses=4)[0])
    for _ in range(count):
        yield random_clause_ilp(rng, max_vars=10)[0].data


def test_clique_relaxation_never_closes_a_node_that_reaches_the_cutoff():
    # from random partial fixings, propagated, the relaxation must leave open
    # every node whose subtree holds a point of value v when the cutoff is
    # v - 1: any clique cover bounds the node, so no growth rule may close it
    rng = make_rng(1717)
    checked = 0
    for data in _conflict_programs(rng, 100):
        search = _kernel(data, DEFAULT_NODE_BUDGET)
        assert isinstance(search, _BitSearch)
        rows = dense_rows(data)
        for _ in range(3):
            lo = [l for l, _ in data.var_bounds]
            hi = [h for _, h in data.var_bounds]
            for j in range(data.num_vars):
                if lo[j] < hi[j] and rng.random() < 0.25:
                    lo[j] = hi[j] = rng.randint(0, 1)
            out = search._propagate(search._state(lo, hi), search._all_rows())
            if out is None:
                continue
            state = out[0]
            box = list(zip(*_box(search, state)))
            expected, _ = best_ilp(box, rows, data.objective, data.sense)
            if expected is None:
                continue
            value = search.sign * expected
            bound = _optimistic(search, *_box(search, state))
            assert not search._closes(state, search._first_free(state, 0), bound, value - 1)
            checked += 1
    assert checked >= 600


def _covering_programs(rng, count):
    """``count`` each of seven kinds of 0-1 program with covering rows:
    SetCover, VC and DomSet->SetCover (unit costs, one 1 per row), weighted
    covers (costs 1 to 4), random cardinality ILPs (rows needing two or more
    ones), random conflict ILPs (gains -3 to 5, zero included) and
    clause-row ILPs, whose all-positive clauses are covering rows beside
    rows of both signs."""
    for _ in range(count):
        n = rng.randint(3, 9)
        rows = []
        for _ in range(rng.randint(1, 6)):
            members = rng.sample(range(n), rng.randint(1, 3))
            rows.append((tuple(int(j in members) for j in range(n)), ">=", 1))
        costs = tuple(rng.randint(1, 4) for _ in range(n))
        yield dense_ilp(n, ((0, 1),) * n, tuple(rows), costs, "min")
        yield _ilp_program(random_set_cover(rng, max_sets=9, max_elements=8)[0])
        yield _ilp_program(random_vc(rng, max_vertices=10)[0])
        yield _ilp_program(random_domset(rng, max_vertices=9)[0])
        yield random_cardinality_ilp(rng)[0].data
        yield random_conflict_ilp(rng, max_vars=10)[0].data
    for _ in range(count):
        yield random_clause_ilp(rng, max_vars=10)[0].data


def _assert_need_bound_is_valid(data, lo, hi) -> tuple[int, int]:
    """Check ``_need_closes`` on the propagated node of box ``lo``/``hi`` at
    every cutoff from a few below the subtree's optimum up to its bound: it
    may close only where no completion beats the cutoff. Returns how many
    cutoffs it closed at, and how many of those the optimum reaches."""
    search = _kernel(data, DEFAULT_NODE_BUDGET)
    assert isinstance(search, _BitSearch)
    out = search._propagate(search._state(lo, hi), search._all_rows())
    if out is None:
        return 0, 0
    state = out[0]
    bound = _optimistic(search, *_box(search, state))
    expected, _ = best_ilp(list(zip(*_box(search, state))), dense_rows(data), data.objective, data.sense)
    best = None if expected is None else search.sign * expected
    closed = sound = 0
    for cutoff in range(min(bound, best if best is not None else bound) - 3, bound):
        if search._need_closes(state, bound, cutoff):
            closed += 1
            assert best is None or best <= cutoff, (data, lo, hi, cutoff)
            sound += best is not None
    return closed, sound


def test_covering_need_never_closes_a_node_that_beats_the_cutoff():
    # from random partial fixings: whenever the aggregate covering bound
    # closes a node at cutoff b, brute force finds no completion above b
    rng = make_rng(1919)
    closed = sound = 0
    for data in _covering_programs(rng, 60):
        for _ in range(3):
            lo = [l for l, _ in data.var_bounds]
            hi = [h for _, h in data.var_bounds]
            for j in range(data.num_vars):
                if lo[j] < hi[j] and rng.random() < 0.25:
                    lo[j] = hi[j] = rng.randint(0, 1)
            counts = _assert_need_bound_is_valid(data, lo, hi)
            closed += counts[0]
            sound += counts[1]
    # it does close nodes, also feasible ones at cutoffs their optimum meets
    assert sound >= 300 and closed > sound


def test_covering_need_edge_cases():
    # no rows: nothing to pay for, at any cutoff
    free = IlpData(3, ((0, 1),) * 3, (), (1, 1, 1), "min")
    search = _kernel(free, DEFAULT_NODE_BUDGET)
    assert (search.needing, search.several) == (0, [])
    assert _assert_need_bound_is_valid(free, [0] * 3, [1] * 3) == (0, 0)
    # a zero-gain member covers its row at no cost, however tight the cutoff
    cheap = dense_ilp(3, ((0, 1),) * 3, (((1, 1, 1), ">=", 1),), (0, 2, 3), "min")
    search = _kernel(cheap, DEFAULT_NODE_BUDGET)
    state = search._propagate(search._state([0] * 3, [1] * 3), search._all_rows())[0]
    assert not search._need_closes(state, 0, -1)
    # with that member fixed at 0 the row needs a paid one: cost 2 at least
    assert _assert_need_bound_is_valid(cheap, [0, 0, 0], [0, 1, 1]) == (2, 2)
    # a node whose every row is covered needs nothing
    cover = _ilp_program(SetCover(SetCoverData(4, ((0, 1), (2, 3), (0, 2)))))
    search = _kernel(cover, DEFAULT_NODE_BUDGET)
    state = search._propagate(search._state([1, 1, 0], [1, 1, 1]), search._all_rows())[0]
    assert not search._need_closes(state, -2, -3)
    # four elements, and no set holds more than two: two sets at least, so the
    # root closes at cutoffs -1 and -2 and stays open at -3, the optimum
    pairs = _ilp_program(SetCover(SetCoverData(4, ((0, 1), (2, 3), (0, 2), (1, 3)))))
    assert _assert_need_bound_is_valid(pairs, [0] * 4, [1] * 4) == (2, 2)


def test_row_relaxation_counts_true_literals_of_both_signs():
    # x0 + x1 + x2 - x3 <= 1 allows two true literals; with x3 fixed at 0 one
    # is taken, so of the free x0..x2 (gain 1 each, bound 3) one may be 1
    data = dense_ilp(4, ((0, 1),) * 4, (((1, 1, 1, -1), "<=", 1),), (1, 1, 1, 0), "max")
    search = _kernel(data, DEFAULT_NODE_BUDGET)
    state, loss = search._propagate(search._state([0] * 4, [1, 1, 1, 0]), search._all_rows())
    assert (state, loss) == ((0, 0b1000), 0)
    assert search._closes(state, 0, 3, 1) and not search._closes(state, 0, 3, 0)
    # with x3 fixed at 1 instead, no literal is taken and two may be 1
    state = search._propagate(search._state([0, 0, 0, 1], [1] * 4), search._all_rows())[0]
    assert search._closes(state, 0, 3, 2) and not search._closes(state, 0, 3, 1)


def _five_cycles(count):
    """``count`` disjoint 5-cycles as an MIS, each cycle's edges in the order
    0-1, 1-2, 2-3, 3-4, 0-4."""
    edges = []
    for base in range(0, 5 * count, 5):
        edges += [(base + i, base + i + 1) for i in range(4)] + [(base, base + 4)]
    return IndependentSet(GraphData(5 * count, tuple(edges)))


def _best_completion(data, state):
    """The best objective, to maximise, over the 0-1 points that agree with
    ``state`` (a pair of ones and zeros masks) and satisfy every row of
    ``data``, by enumerating the free variables; None if there is none."""
    ones, zeros = state
    n = data.num_vars
    rows = []
    for terms, rel, rhs in data.constraints:
        plus = sum(1 << j for j, a in terms if a == 1)
        minus = sum(1 << j for j, a in terms if a == -1)
        assert len(terms) == (plus | minus).bit_count()
        rows.append((plus, minus, rel, rhs))
    points = [ones]
    for j in range(n):
        if not (ones | zeros) >> j & 1:
            points += [point | 1 << j for point in points]
    sign = 1 if data.sense == "max" else -1
    best = None
    for point in points:
        value = sign * sum(c for j, c in enumerate(data.objective) if point >> j & 1)
        if best is not None and value <= best:
            continue
        for plus, minus, rel, rhs in rows:
            activity = (point & plus).bit_count() - (point & minus).bit_count()
            if activity > rhs and rel != ">=" or activity < rhs and rel != "<=":
                break
        else:
            best = value
    return best


def _refuting_programs(rng):
    """0-1 programs whose conflict cliques leave singletons: unit and
    weighted MIS on G(n, p), the same with packing rows of cap 2 beside the
    edge rows, which the row pass reads, 3SAT through MIS, random
    cardinality ILPs and unions of 5-cycles."""
    for index in range(60):
        n = rng.randint(5, 14)
        edges = gnp_edges(rng, n, rng.choice((0.15, 0.25, 0.35)))
        weights = tuple(rng.randint(1, 4) for _ in range(n)) if index % 2 else None
        yield _ilp_program(IndependentSet(GraphData(n, edges, weights)))
        rows = [(tuple(int(k in edge) for k in range(n)), "<=", 1) for edge in edges]
        for _ in range(rng.randint(1, 3)):
            members = rng.sample(range(n), rng.randint(3, 5))
            rows.append((tuple(int(k in members) for k in range(n)), "<=", 2))
        yield dense_ilp(n, ((0, 1),) * n, tuple(rows), weights or (1,) * n, "max")
        yield _ilp_program(random_3sat(rng, max_variables=4, max_clauses=4)[0])
        yield random_cardinality_ilp(rng)[0].data
    for count in (1, 2):
        yield _ilp_program(_five_cycles(count))


def test_inconsistent_clique_sets_never_close_a_node_that_beats_the_cutoff():
    # at the root and from random partial fixings, propagated: no cutoff
    # below the subtree's exact optimum may close the node, while at the
    # cutoffs from the optimum up the propagation over the clique cover
    # finds sets that lower the bound
    rng = make_rng(2323)
    refute = _BitSearch._refute
    lowered = []

    def recorded(self, cliques, singles, bound, best):
        out = refute(self, cliques, singles, bound, best)
        lowered.append(out[0] < bound)
        return out

    checked = 0
    with mock.patch.object(_BitSearch, "_refute", recorded):
        for data in _refuting_programs(rng):
            search = _kernel(data, DEFAULT_NODE_BUDGET)
            assert isinstance(search, _BitSearch)
            for fixing in (0, 0.1, 0.2, 0.3, 0.4):
                lo = [l for l, _ in data.var_bounds]
                hi = [h for _, h in data.var_bounds]
                for j in range(data.num_vars):
                    if lo[j] < hi[j] and rng.random() < fixing:
                        lo[j] = hi[j] = rng.randint(0, 1)
                out = search._propagate(search._state(lo, hi), search._all_rows())
                if out is None:
                    continue
                state = out[0]
                best = _best_completion(data, state)
                if best is None:
                    continue
                bound = _optimistic(search, *_box(search, state))
                branch = search._first_free(state, 0)
                for cutoff in range(best - 4, bound):
                    closes = search._closes(state, branch, bound, cutoff)
                    assert cutoff >= best or not closes, (data, state, cutoff)
                checked += 1
    assert checked >= 400
    assert sum(lowered) >= 50 and not all(lowered)


def test_inconsistent_clique_set_closes_the_root_of_a_five_cycle():
    # the cover takes the edges 0-1 and 2-3 and leaves the singleton 4:
    # bound 3 against the optimum 2. Vertex 4 bans 0 and 3, so the first
    # edge forces 1, which bans 2 and leaves the second edge empty
    search = _kernel(_ilp_program(_five_cycles(1)), DEFAULT_NODE_BUDGET)
    assert isinstance(search, _BitSearch)
    state, loss = search._propagate(search._state([0] * 5, [1] * 5), search._all_rows())
    assert (state, loss) == ((0, 0), 0)
    assert search._closes(state, 0, 5, 2) and not search._closes(state, 0, 5, 1)


def test_an_inconsistent_set_leaves_the_row_pass_its_singletons():
    # the cover is the clique {1, 4, 5} (top 4) and the singletons 0, 2, 3
    # and 6 (gains 1, 2, 2, 4): bound 13. Singletons 2, 3 and 6 ban the
    # whole clique, so the set takes 2, its least top, and the bound is 11,
    # the optimum. Its singletons 2 and 3 must leave the row pass: the row
    # x0 + x2 + x3 + x5 <= 2 then has one free variable outside the set and
    # binds nothing, where counting x2 and x3 again would give up x0 and
    # close the node at the cutoff 10
    n = 7
    edges = ((1, 2), (1, 4), (1, 5), (3, 4), (4, 5), (5, 6))
    rows = [(tuple(int(k in edge) for k in range(n)), "<=", 1) for edge in edges]
    rows.append(((1, 0, 1, 1, 0, 1, 0), "<=", 2))
    data = dense_ilp(n, ((0, 1),) * n, tuple(rows), (1, 2, 2, 2, 4, 3, 4), "max")
    search = _kernel(data, DEFAULT_NODE_BUDGET)
    state, loss = search._propagate(search._state([0] * n, [1] * n), search._all_rows())
    assert (state, loss) == ((0, 0), 0) and _best_completion(data, state) == 11
    assert search._closes(state, 0, 18, 11) and not search._closes(state, 0, 18, 10)


def test_greedy_dive_reaches_the_point_it_reports():
    # weighted gains, which the dive's gain / (conflicts + 1) ratio compares,
    # and pre-fixed variables, through the recomputing checks of every node
    # and of the dive's value; the dive must leave index order on some
    rng = make_rng(4242)
    dive_branch = _BitSearch._dive_branch
    moved = []

    def recorded(self, state, first):
        branch = dive_branch(self, state, first)
        moved.append(branch != first)
        return branch

    with mock.patch.object(_BitSearch, "_dive_branch", recorded):
        for data in _conflict_programs(rng, 100):
            search = _search_checked(data)
            expected, winners = best_ilp(
                data.var_bounds, dense_rows(data), data.objective, data.sense
            )
            if expected is None:
                assert search.best_point is None
            else:
                assert search.sign * search.best_value == expected
                assert _point(data, search.witness()) == winners[0]
    assert any(moved) and not all(moved)


@st.composite
def _fixed_ilps(draw):
    """A bounded ILP and a box inside its bounds with some variables fixed."""
    n = draw(st.integers(1, 5))
    bounds = []
    for _ in range(n):
        low = draw(st.integers(-3, 2))
        bounds.append((low, low + draw(st.integers(0, 4))))
    coeffs = st.tuples(*[st.integers(-3, 3)] * n)
    rows = draw(st.lists(
        st.tuples(coeffs, st.sampled_from(("<=", ">=", "=")), st.integers(-8, 8)), max_size=5
    ))
    objective = draw(coeffs)
    sense = draw(st.sampled_from(("max", "min")))
    data = dense_ilp(n, tuple(bounds), tuple(rows), objective, sense)
    fixed = [draw(st.none() | st.integers(l, h)) for l, h in bounds]
    lo = [l if f is None else f for (l, _), f in zip(bounds, fixed)]
    hi = [h if f is None else f for (_, h), f in zip(bounds, fixed)]
    return data, lo, hi


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(case=_fixed_ilps())
def test_drawn_propagation_reaches_the_reference_fixpoint(case):
    data, lo, hi = case
    _assert_propagates_like_the_reference(data, lo, hi)
    _search_checked(data)


# (family, seed, B&B nodes, value, witness) of searches whose node counts are
# pinned: a change to propagation or pruning that visits other nodes must
# update them on purpose. Each search runs on the instance's ILP encoding, on
# the kernel ``solve_ilp`` selects for it; ``solve`` must give the same value
# and witness whatever node it solves at.
SEARCH_PINS = [
    ("mis", 1, 44, 13, "001101011100110010000000101110"),
    ("mis", 2, 45, 14, "110000110000110100001001011111"),
    ("setcover", 1, 34, 8, "000000000000000011111111"),
    ("setcover", 2, 39, 8, "000000000000000011111111"),
    ("qubo", 1, 221, 28, "11110100"),
    ("qubo", 2, 117, 33, "10110110"),
    ("gc", 5, 84, True, "2112"),
    ("gc", 10, 95, True, "2121"),
    # the MIS program of G(40, 0.15) as a hand-written ILP, then with one
    # general row beside its cardinality rows: that sends it to the box
    # kernel, which has no relaxation, so the same optimum costs 30,600
    # nodes against 104 (a change to that trade-off must update these on
    # purpose)
    ("ilp", 4, 104, 14, "0000000110001110101011000001100010010001"),
    ("ilp-mixed", 4, 30600, 14, "0000000110001110101011000001100010010001"),
    # three disjoint 5-cycles (the seed is the number of cycles): the clique
    # cover bounds each cycle at 3 against its optimum of 2, a unit of slack
    # per cycle that only an inconsistent clique set takes back
    ("cycles", 3, 55, 6, "001010010100101"),
]


def _pinned_instance(family, seed):
    rng = make_rng(seed)
    if family == "mis":
        return IndependentSet(GraphData(30, gnp_edges(rng, 30, 0.15)))
    if family == "setcover":
        return partition_set_cover(rng)[0]
    if family == "cycles":
        return _five_cycles(seed)
    if family == "qubo":
        return random_qubo(rng, 8, min_n=8)[0]
    if family.startswith("ilp"):
        n = 40
        rows = tuple(
            (tuple(1 if k in edge else 0 for k in range(n)), "<=", 1)
            for edge in gnp_edges(rng, n, 0.15)
        )
        if family == "ilp-mixed":
            rows += ((tuple([2, 1] + [0] * (n - 2)), "<=", 2),)
        return Ilp(dense_ilp(n, ((0, 1),) * n, rows, (1,) * n, "max"))
    return random_coloring(rng, max_vertices=4, colors=3)[0]


@pytest.mark.parametrize(
    "family,seed,nodes,value,witness", SEARCH_PINS, ids=[f"{p[0]}-{p[1]}" for p in SEARCH_PINS]
)
def test_search_nodes_and_witness_are_pinned(family, seed, nodes, value, witness):
    instance = _pinned_instance(family, seed)
    search = _kernel(_ilp_program(instance), DEFAULT_NODE_BUDGET)
    search.run()
    result = solve(instance)
    # QUBO's linearisation has a coefficient of 2, as does ilp-mixed's added
    # row; every other family is a 0-1 program of +1/-1 rows
    assert isinstance(search, _BoxSearch if family in ("qubo", "ilp-mixed") else _BitSearch)
    assert search.nodes == nodes
    assert result.value.payload == value
    assert "".join(map(str, result.witness)) == witness


# (seed, prefixes asked, value, witness) of the bounded QUBO search on seeded
# n=12 instances, each far below the 4,096 configurations of the space; the
# count includes the 11 prefixes of the walk's first descent. A change to the
# bound or the walk that asks about other prefixes must update them on purpose
QUBO_PINS = [
    (1, 630, 60, "111100011011"),
    (2, 328, 58, "101101111010"),
    (3, 238, 53, "011111001111"),
    (4, 260, 51, "011100111011"),
    (5, 276, 52, "101100110001"),
    (6, 332, 82, "111111111110"),
    (7, 248, 23, "001100011001"),
    (8, 266, 34, "011010101101"),
]


def test_qubo_search_prefixes_are_pinned(monkeypatch):
    asked = []
    bound = Qubo._optimistic_payload

    def counted(self, prefix):
        asked.append(prefix)
        return bound(self, prefix)

    monkeypatch.setattr(Qubo, "_optimistic_payload", counted)
    for seed, prefixes, value, witness in QUBO_PINS:
        instance = random_qubo(make_rng(seed), 12, min_n=12)[0]
        asked.clear()
        result = solve(instance)
        assert solver_label(result) == "qubo"
        assert len(asked) < 1 << 12
        assert (len(asked), result.value.payload) == (prefixes, value)
        assert "".join(map(str, result.witness)) == witness


def test_qubo_search_charges_each_prefix_against_the_node_budget():
    seed, prefixes, value, _ = QUBO_PINS[0]
    instance = random_qubo(make_rng(seed), 12, min_n=12)[0]
    assert solve(instance, max_nodes=prefixes).value.payload == value
    with pytest.raises(BudgetExceededError) as caught:
        solve(instance, max_nodes=prefixes - 1)
    error = caught.value
    assert (error.limit, error.nodes) == (prefixes - 1, prefixes - 1)
    assert error.incumbent is not None and error.incumbent <= value
    # the full-space budget is brute force's, not the solver's
    assert solve(instance, max_configs=1).value.payload == value
    with pytest.raises(BudgetExceededError):
        solve_brute(instance, max_configs=4095)


@pytest.mark.parametrize(
    "name,build",
    [
        ("qubo", lambda rng: random_qubo(rng, max_n=9, min_n=0)[0]),
        ("maxcut", lambda rng: random_maxcut(rng, max_vertices=9)[0]),
    ],
    ids=["qubo", "maxcut"],
)
def test_quadratic_solve_matches_reference_fold(name, build):
    """QUBO and MaxCut solve at the QUBO node: value and witness are the plain fold's."""
    rng = make_rng(zlib.crc32(name.encode()))
    for _ in range(60):
        instance = build(rng)
        result = solve(instance)
        assert result.solver_name == "qubo"
        assert (result.value, result.witness) == reference_fold(instance), instance


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
    (MaxCut(GraphData(3, ((0, 1), (1, 2)))), "qubo (via QUBO)"),
    (SetCover(SetCoverData(3, ((0, 1), (1, 2), (0, 2)))), "ilp (via ILP)"),
    (DominatingSet(P4), "ilp (via SetCover -> ILP)"),
    (Qubo(QuboData(2, ((1, -2), (-2, 1)))), "qubo"),
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
    assert solver_label(result, prefix_steps=(rule,)) == "qubo (via QUBO)"


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
    name_of_solver, via, _ = solver.partition(" (via ")
    assert name_of_solver in ("brute-force", "ilp", "qubo")
    if solver == "brute-force":
        tier = "brute_force_only"
    elif via:
        tier = f"via_{name_of_solver}"
    else:
        tier = "dedicated"
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
    # GC -> SAT -> 3SAT -> MIS -> ILP; the conflict-clique bound over the MIS
    # stage's edge rows, whose cliques grow to take the clause triangles
    # whole, and the greedy dive's cutoff keep this search within the budget
    instance = GraphColoring(GraphData(4, ((0, 1), (1, 2), (2, 3))), 3)
    result = solve(instance, max_nodes=50_000)
    assert result.value.render() == "Or(true)"
    assert evaluate(instance, result.witness).payload is True


def test_routed_coloring_keeps_clause_triangles_whole():
    # G(12, 0.3), k = 3 on the same route takes 1,714 nodes. Growing each
    # clique by its lowest-index candidate took 7,615, and by the candidate
    # with the fewest uncovered conflicts alone, which breaks the clause
    # triangles into pairs, 100,291
    n = 12
    instance = GraphColoring(GraphData(n, gnp_edges(make_rng(n), n, 0.3)), 3)
    result = solve(instance, max_nodes=5_000)
    assert result.value.render() == "Or(true)"
    assert evaluate(instance, result.witness).payload is True


def test_mis_g40_solves_within_a_node_budget():
    instance = IndependentSet(GraphData(40, gnp_edges(make_rng(40), 40, 0.15)))
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
        _assert_mis_matches_highs(30, gnp_edges(rng, 30, 0.15))
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
    _assert_mis_matches_highs(50, gnp_edges(rng, 50, 0.15))
    # 4,122 B&B nodes without inconsistent clique sets, 1,458 with
    _assert_mis_matches_highs(80, gnp_edges(rng, 80, 0.15))


def test_maxcut_through_qubo_matches_highs_beyond_brute_force():
    """MaxCut G(22, 0.3) solves at the QUBO node within the CLI's 300k-node
    budget, where the QUBO -> ILP route runs out of it."""
    pytest.importorskip("scipy")
    n = 22
    edges = gnp_edges(make_rng(2022), n, 0.3)
    # x_v per vertex and y_e per edge, y_e <= x_u + x_v and y_e <= 2 - x_u - x_v
    rows, upper = [], []
    for e, (u, v) in enumerate(edges):
        for sign, rhs in ((-1, 0), (1, 2)):
            row = [0] * (n + len(edges))
            row[u] = row[v] = sign
            row[n + e] = 1
            rows.append(row)
            upper.append(rhs)
    expected = _milp_optimum([0] * n + [1] * len(edges), rows, -INF, upper, "max")
    instance = MaxCut(GraphData(n, edges))
    result = solve(instance, max_nodes=300_000)
    assert solver_label(result) == "qubo (via QUBO)"
    assert result.value.payload == expected
    assert evaluate(instance, result.witness).payload == expected


# seeded programs past brute force: 30-60 binary variables in the 0-1 kernel's
# row forms, and general-integer boxes for the box kernel
LEXICOGRAPHIC_PROGRAMS = {
    "conflict": lambda rng: random_conflict_ilp(rng, 60, min_vars=30),
    "cardinality": lambda rng: random_cardinality_ilp(rng, 60, 8, min_vars=30),
    "clause": lambda rng: random_clause_ilp(rng, 60, 30, min_vars=30),
    "box": lambda rng: random_ilp(rng, 8, 3),
}


@pytest.mark.parametrize("family", sorted(LEXICOGRAPHIC_PROGRAMS))
def test_solve_ilp_matches_the_lexicographic_highs_optimum(family):
    pytest.importorskip("scipy")
    feasible = 0
    for seed in range(1, 6):
        instance, plain = LEXICOGRAPHIC_PROGRAMS[family](make_rng(seed))
        value, point = lexicographic_ilp(*plain)
        result = solve_ilp(instance.data)
        if value is None:
            assert (result.value.feasible, result.witness) == (False, None)
            continue
        feasible += 1
        assert result.value.payload == value
        assert _point(instance.data, result.witness) == point
    assert feasible


def test_solver_route_is_searched_once_per_variant(monkeypatch):
    registry = default_graph().registry
    graph = ReductionGraph(registry, shipped_rules(registry))
    monkeypatch.setattr("pred.solvers.default_graph", lambda: graph)
    searches = []
    route = graph._route

    def counting_route(source, targets, require_witness):
        searches.append(targets)
        return route(source, targets, require_witness)

    monkeypatch.setattr(graph, "_route", counting_route)
    first = solve(GraphColoring(GraphData(3, ((0, 1), (1, 2))), 2))
    # one search, towards all the solver nodes at once, made by the first solve
    assert searches == [{registry.lookup(name).key for name in SOLVERS}]
    second = solve(GraphColoring(GraphData(4, ((0, 1), (1, 2), (2, 3))), 2))
    assert len(searches) == 1
    assert first.route is second.route and first.route.steps
    assert first.value.payload is True and second.value.payload is True
