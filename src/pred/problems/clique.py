"""Maximum clique on a simple graph, a graph problem that bounds its own
prefixes, and its two forward maps, to and from independent set: an
independent set of a graph is a clique of its complement.
"""

from __future__ import annotations

from itertools import combinations, compress
from typing import TYPE_CHECKING

from ..model import ValueKind
from .graph import GraphData, IndependentSet, _GraphProblem

if TYPE_CHECKING:
    from ..model import Problem


class Clique(_GraphProblem):
    kind = ValueKind.MAX
    type_name = "MaximumClique"

    def _measure(self, config) -> tuple[int, bool]:
        chosen = tuple(compress(range(len(config)), config))
        # chosen is increasing, so each pair is already a normalized edge
        return len(chosen), self.graph.edge_set.issuperset(combinations(chosen, 2))

    def _optimistic_payload(self, prefix) -> int | None:
        # a chosen newest vertex fails against a chosen lower non-neighbour;
        # otherwise every free vertex may still join
        k = len(prefix)
        chosen = compress(range(k - 1), prefix)
        if prefix[k - 1] and not self.graph.edge_set.issuperset((u, k - 1) for u in chosen):
            return None
        return sum(prefix) + self.graph.num_vertices - k


def _complement_graph(graph: GraphData) -> GraphData:
    present = set(graph.edges)
    edges = tuple(
        (u, v)
        for u in range(graph.num_vertices)
        for v in range(u + 1, graph.num_vertices)
        if (u, v) not in present
    )
    return GraphData(graph.num_vertices, edges)


def forward_mis_to_clique(instance: IndependentSet) -> tuple[Problem, dict]:
    return Clique(_complement_graph(instance.graph)), {
        "num_vertices": instance.graph.num_vertices
    }


def forward_clique_to_mis(instance: Clique) -> tuple[Problem, dict]:
    return IndependentSet(_complement_graph(instance.graph)), {
        "num_vertices": instance.graph.num_vertices
    }
