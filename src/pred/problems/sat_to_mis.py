"""The forward maps of SAT into 3-SAT and of 3-SAT into independent set, and
the latter's witness extractor.

A clause of k > 3 literals becomes a chain of k - 2 clauses over k - 3
fresh variables. Then each literal occurrence is a vertex, a clause's
occurrences form a clique and complementary occurrences are joined, so an
independent set of one vertex per clause is a satisfying assignment. Every
route from SAT, 3-SAT or coloring to the ILP solver runs the second map,
and every route from SAT or coloring the first one too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .graph import GraphData, IndependentSet
from .sat import CnfData, ThreeSatisfiability

if TYPE_CHECKING:
    from ..model import Problem
    from .sat import Satisfiability


def forward_sat_to_3sat(instance: Satisfiability) -> tuple[Problem, dict]:
    cnf = instance.cnf
    next_fresh = cnf.num_variables + 1
    clauses: list[tuple[int, ...]] = []
    for clause in cnf.clauses:
        if len(clause) <= 3:
            clauses.append(clause)
            continue
        lits = list(clause)
        fresh_count = len(lits) - 3
        first = next_fresh
        next_fresh += fresh_count
        clauses.append((lits[0], lits[1], first))
        for i in range(1, fresh_count):
            clauses.append((-(first + i - 1), lits[i + 1], first + i))
        clauses.append((-(first + fresh_count - 1), lits[-2], lits[-1]))
    target = ThreeSatisfiability(CnfData(next_fresh - 1, tuple(clauses)))
    return target, {"num_vars": cnf.num_variables}


def forward_3sat_to_mis(instance: ThreeSatisfiability) -> tuple[Problem, dict]:
    cnf = instance.cnf
    literals = [lit for clause in cnf.clauses for lit in clause]
    edges: set[tuple[int, int]] = set()
    position = 0
    for clause in cnf.clauses:
        for a in range(len(clause)):
            for b in range(a + 1, len(clause)):
                edges.add((position + a, position + b))
        position += len(clause)
    # complementary occurrences, found through each literal's positions
    positions: dict[int, list[int]] = {}
    for i, lit in enumerate(literals):
        positions.setdefault(lit, []).append(i)
    for lit, mine in positions.items():
        if lit > 0:
            for i in mine:
                for j in positions.get(-lit, ()):
                    edges.add((i, j) if i < j else (j, i))
    graph = GraphData(len(literals), tuple(sorted(edges)))
    return IndependentSet(graph), {
        "num_variables": cnf.num_variables,
        "literals": literals,
    }


def extract_assignment_from_vertices(data: Mapping, config) -> tuple[int, ...]:
    # conflict edges keep complementary literal vertices apart, so no clashes
    assignment = [0] * data["num_variables"]
    for index, chosen in enumerate(config):
        if chosen:
            literal = data["literals"][index]
            if literal > 0:
                assignment[literal - 1] = 1
    return tuple(assignment)
