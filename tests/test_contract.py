"""The answer contract: ``solve`` gives what brute force gives.

For every registered variant, ``solve`` (which routes to a solver node when
the graph has a witness-capable route) must return the same value and the
same witness as ``solve_brute``, the lexicographically first optimal
configuration of the full space. Each family draws 60 small instances from
``generators``, seeded by ``zlib.crc32(f"{family}:{i}")`` so a family's draws
do not move when another family is added.

The families whose route gives another optimum, or another value, are marked
``xfail(strict=True)``: the day a route keeps the contract, the mark must go.

A route keeps the witness only if each of its rules preserves order: its
extractor maps the target's smallest optimum to the source's. The table
``ORDER_PRESERVING`` lists the witness-capable rules that do on every draw,
and the test decides membership both ways.
"""

from __future__ import annotations

import zlib

import pytest

from pred import (
    ReductionPath,
    decision_wrap,
    default_graph,
    extract_along,
    fold_space,
    reduce_along,
    solve,
    solve_brute,
)

from generators import (
    make_rng,
    random_3sat,
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
    random_vc,
)

DRAWS = 60


def _decision(builder):
    def build(rng):
        inner, (n, _, _) = builder(rng)
        return decision_wrap(inner, rng.randint(0, n))

    return build


# display name of each registered variant -> a builder of one small instance
BUILDERS = {
    "Satisfiability": lambda rng: random_sat(rng, 6, 8)[0],
    "ThreeSatisfiability": lambda rng: random_3sat(rng, 6, 8)[0],
    "MaximumIndependentSet": lambda rng: random_mis(rng)[0],
    "MaximumIndependentSet[weight=integer]": lambda rng: random_mis(rng, weighted=True)[0],
    "MinimumVertexCover": lambda rng: random_vc(rng)[0],
    "MaximumClique": lambda rng: random_clique(rng)[0],
    "MinimumDominatingSet": lambda rng: random_domset(rng)[0],
    "MinimumSetCover": lambda rng: random_set_cover(rng)[0],
    "MaxCut": lambda rng: random_maxcut(rng)[0],
    "QUBO": lambda rng: random_qubo(rng)[0],
    "SpinGlass": lambda rng: random_ising(rng)[0],
    "GraphColoring": lambda rng: random_coloring(rng, 5, 3)[0],
    "IntegerLinearProgram": lambda rng: random_ilp(rng)[0],
    "DecisionMaximumIndependentSet": _decision(random_mis),
    "DecisionMinimumVertexCover": _decision(random_vc),
}

ITEM_2 = "ROADMAP item 2: the route to the solver node returns another optimum"
DIVERGENT = {
    "GraphColoring": ITEM_2,
    "Satisfiability": ITEM_2,
    "ThreeSatisfiability": ITEM_2,
    "DecisionMaximumIndependentSet": ITEM_2,
}


def test_every_registered_variant_has_a_builder():
    registry = default_graph().registry
    assert {registry.display_name(d.key) for d in registry.variants()} == set(BUILDERS)


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=DIVERGENT[name]))
        if name in DIVERGENT
        else name
        for name in BUILDERS
    ],
)
def test_solve_gives_the_brute_force_value_and_witness(family):
    differ = []
    for i in range(DRAWS):
        instance = BUILDERS[family](make_rng(zlib.crc32(f"{family}:{i}".encode())))
        routed, brute = solve(instance), solve_brute(instance)
        if (routed.value, routed.witness) != (brute.value, brute.witness):
            differ.append(i)
    assert differ == []


# The witness-capable rules whose extracted smallest target optimum is the
# source's smallest optimum on every draw. The other five, GC->SAT,
# DecisionMIS->MIS, MIS->VC, VC->MIS and 3SAT->MIS, return another optimum
# on some draws (ROADMAP item 2).
ORDER_PRESERVING = {
    "MaxCut->QUBO",
    "MaximumIndependentSet->MaximumClique",
    "MaximumClique->MaximumIndependentSet",
    "MaximumIndependentSet->MaximumIndependentSet[weight=integer]",
    "MinimumDominatingSet->MinimumSetCover",
    "Satisfiability->ThreeSatisfiability",
    "MaximumIndependentSet->IntegerLinearProgram",
    "MaximumIndependentSet[weight=integer]->IntegerLinearProgram",
    "MinimumVertexCover->IntegerLinearProgram",
    "MinimumSetCover->IntegerLinearProgram",
    "QUBO->IntegerLinearProgram",
}
WITNESS_RULES = sorted(rule.name for rule in default_graph().rules if rule.witness_capable)
# Some targets exceed the default brute-force budget (QUBO->ILP reaches 2^30
# configurations); the pruned walk measures a small part of each.
TARGET_BUDGET = 1 << 30


def test_every_order_preserving_rule_is_witness_capable():
    assert ORDER_PRESERVING <= set(WITNESS_RULES)


@pytest.mark.parametrize("name", WITNESS_RULES)
def test_order_preserving_rules_map_the_smallest_optimum_to_the_smallest(name):
    graph = default_graph()
    rule = graph.rule_named(name)
    family = graph.registry.display_name(rule.source.key)
    path = ReductionPath(rule.source, rule.target, (rule,))
    kept = 0
    for i in range(DRAWS):
        instance = BUILDERS[family](make_rng(zlib.crc32(f"{family}:{i}".encode())))
        envelope = reduce_along(path, instance)
        target = fold_space(envelope.target_instance, TARGET_BUDGET).witness
        extracted = None if target is None else extract_along(envelope, target)
        kept += extracted == fold_space(instance).witness
    assert (kept == DRAWS) == (name in ORDER_PRESERVING), f"{kept} of {DRAWS} draws"
