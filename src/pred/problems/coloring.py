"""Graph coloring with a given number of colors, an Or problem that bounds
its own prefixes.

Its forward map, into SAT, is in ``coloring_to_sat``.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import InvalidInstanceError, Record
from ..model import Problem, ValueKind
from .graph import GraphData


class GraphColoring(Record, Problem):
    graph: GraphData
    colors: int
    kind = ValueKind.OR
    type_name = "GraphColoring"

    def __post_init__(self) -> None:
        if self.colors < 1:
            raise InvalidInstanceError("need at least one color")

    @classmethod
    def from_data(cls, data: Mapping) -> GraphColoring:
        return cls(GraphData.from_data(data), data["colors"])

    @property
    def variant_tags(self) -> dict[str, str]:
        return {"graph": "simple"}

    def config_dims(self) -> tuple[int, ...]:
        return (self.colors,) * self.graph.num_vertices

    def num_variables(self) -> int:
        return self.graph.num_vertices

    def size_measures(self) -> dict[str, int]:
        return {"V": self.graph.num_vertices, "E": len(self.graph.edges), "k": self.colors}

    def _measure(self, config) -> tuple[bool, bool]:
        return all(config[u] != config[v] for u, v in self.graph.edges), True

    def _optimistic_payload(self, prefix) -> bool:
        # earlier prefixes passed, so only the newest vertex's lower neighbours can clash
        color = prefix[-1]
        return all(prefix[u] != color for u in self.graph.lower_neighbors[len(prefix) - 1])

    def to_data(self) -> dict:
        data = self.graph.to_data()
        data["colors"] = self.colors
        return data
