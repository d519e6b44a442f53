"""Max-cut on a simple graph: its QUBO matrix (``QuadraticProblem``) but for
its edge-count measure, and its one forward map, into QUBO, which states
that matrix as a QUBO instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graph import _GraphProblem
from .qubo import QuadraticProblem, Qubo, QuboData

if TYPE_CHECKING:
    from ..model import Problem


class MaxCut(_GraphProblem, QuadraticProblem):
    type_name = "MaxCut"

    def quadratic_statement(self) -> tuple[tuple, int]:
        # an edge is cut when x_u + x_v - 2 x_u x_v is 1: a vertex's diagonal is its degree
        n = self.graph.num_vertices
        q = [[0] * n for _ in range(n)]
        for u, v in self.graph.edges:
            q[u][v] = q[v][u] = -1
        for v, row in enumerate(q):
            row[v] = -sum(row)
        return tuple(map(tuple, q)), 0

    def _measure(self, config) -> tuple[int, bool]:
        # the statement's value, in O(E) and without its V^2 matrix
        return sum(1 for u, v in self.graph.edges if config[u] != config[v]), True


def forward_maxcut_to_qubo(instance: MaxCut) -> tuple[Problem, dict]:
    q, _ = instance.quadratic_statement()
    return Qubo(QuboData(len(q), q)), {"num_vertices": len(q)}
