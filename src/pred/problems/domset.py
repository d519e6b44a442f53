"""Minimum dominating set on a simple graph: one covering row per closed
neighbourhood (``LinearProblem``).

Its one forward map, into set cover, is in ``setcover``.
"""

from __future__ import annotations

from ..model import LinearProblem, ValueKind
from .graph import _GraphProblem


class DominatingSet(_GraphProblem, LinearProblem):
    kind = ValueKind.MIN
    type_name = "MinimumDominatingSet"

    def linear_statement(self) -> tuple[tuple, tuple[int, ...]]:
        hoods = self.graph.closed_neighborhoods
        rows = tuple((tuple((u, 1) for u in hood), ">=", 1) for hood in hoods)
        return rows, (1,) * self.graph.num_vertices
