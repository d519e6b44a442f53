"""The forward map of graph coloring into SAT, and its witness extractor.

One variable per vertex and color: each vertex takes at least one color and
at most one, and the ends of an edge never share one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .sat import CnfData, Satisfiability

if TYPE_CHECKING:
    from ..model import Problem
    from .coloring import GraphColoring


def forward_coloring_to_sat(instance: GraphColoring) -> tuple[Problem, dict]:
    g = instance.graph
    k = instance.colors

    def var(v: int, c: int) -> int:
        return v * k + c + 1

    clauses: list[tuple[int, ...]] = []
    for v in range(g.num_vertices):
        clauses.append(tuple(var(v, c) for c in range(k)))
    for v in range(g.num_vertices):
        for c1 in range(k):
            for c2 in range(c1 + 1, k):
                clauses.append((-var(v, c1), -var(v, c2)))
    for u, v in g.edges:
        for c in range(k):
            clauses.append((-var(u, c), -var(v, c)))
    target = Satisfiability(CnfData(g.num_vertices * k, tuple(clauses)))
    return target, {"num_vertices": g.num_vertices, "colors": k}


def extract_coloring(data: Mapping, config) -> tuple[int, ...]:
    k = data["colors"]
    coloring = []
    for v in range(data["num_vertices"]):
        block = config[v * k : (v + 1) * k]
        color = next((c for c, bit in enumerate(block) if bit), 0)
        coloring.append(color)
    return tuple(coloring)
