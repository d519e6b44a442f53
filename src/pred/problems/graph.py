"""The graph family: ``GraphData``, independent set and vertex cover.

Every graph problem reads one ``GraphData``, and independent set and vertex
cover, whose instances most routes build, are their rows alone
(``LinearProblem``). The rarely built graph problems have a module each:
clique (``clique``), dominating set (``domset``) and max-cut (``maxcut``),
which build on ``_GraphProblem``, and coloring (``coloring``). The forward
maps into independent set and vertex cover live with the routes that run
them: MIS to VC and back in ``graph_maps``, 3-SAT to MIS in ``sat_to_mis``,
clique to MIS in ``clique`` and DecisionMIS to MIS in ``decision``, so a
stage that builds a graph compiles no map that its route does not run, and
no graph class that it does not build.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from ..errors import InvalidInstanceError, Record
from ..model import LinearProblem, Problem, ValueKind

if TYPE_CHECKING:
    from .decision import DecisionProblem

Edge = tuple[int, int]


class GraphData(Record):
    """Simple undirected graph; optional positive integer vertex weights."""

    num_vertices: int
    edges: tuple[Edge, ...]
    vertex_weights: tuple[int, ...] | None

    def __init__(
        self,
        num_vertices: int,
        edges: tuple[Edge, ...],
        vertex_weights: tuple[int, ...] | None = None,
    ) -> None:
        # every reduction between graph problems builds a graph: no generic init
        if num_vertices < 0:
            raise InvalidInstanceError("negative vertex count")
        seen: set[Edge] = set()
        normalized = []
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InvalidInstanceError(f"edge ({u},{v}) has an endpoint out of range")
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise InvalidInstanceError(f"duplicate edge ({u},{v})")
            seen.add(e)
            normalized.append(e)
        if vertex_weights is not None:
            if len(vertex_weights) != num_vertices:
                raise InvalidInstanceError("weight list length != vertex count")
            if any(w < 1 for w in vertex_weights):
                raise InvalidInstanceError("vertex weights must be positive integers")
            vertex_weights = tuple(vertex_weights)
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "vertex_weights", vertex_weights)

    @classmethod
    def from_data(cls, data: Mapping) -> GraphData:
        return cls(data["num_vertices"], data["edges"], data.get("weights"))

    def to_data(self) -> dict:
        data: dict = {
            "num_vertices": self.num_vertices,
            "edges": [list(e) for e in self.edges],
        }
        if self.vertex_weights is not None:
            data["weights"] = list(self.vertex_weights)
        return data

    # Derived views, computed once per graph: the brute-force fold reads
    # them for every configuration.

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Weight of each vertex; 1 for every vertex of an unweighted graph."""
        if self.vertex_weights is None:
            return (1,) * self.num_vertices
        return self.vertex_weights

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def closed_neighborhoods(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex with its neighbours, in increasing order."""
        hoods = [{v} for v in range(self.num_vertices)]
        for u, v in self.edges:
            hoods[u].add(v)
            hoods[v].add(u)
        return tuple(tuple(sorted(hood)) for hood in hoods)

    @cached_property
    def lower_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours of smaller index: the edges that a prefix
        of the vertex order closes when it reaches that vertex."""
        lower: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            lower[v].append(u)
        return tuple(map(tuple, lower))


# --- problem classes ----------------------------------------------------------

class _GraphProblem(Record, Problem):
    """A problem on a simple graph with one binary variable per vertex."""

    graph: GraphData

    @classmethod
    def from_data(cls, data: Mapping) -> _GraphProblem:
        return cls(GraphData.from_data(data))

    @classmethod
    def decision_from_data(cls, data: Mapping) -> DecisionProblem:
        from .decision import DecisionProblem

        return DecisionProblem(cls.from_data(data), data["bound"])

    @property
    def variant_tags(self) -> dict[str, str]:
        return {"graph": "simple"}

    def config_dims(self) -> tuple[int, ...]:
        return (2,) * self.graph.num_vertices

    def num_variables(self) -> int:
        return self.graph.num_vertices

    def size_measures(self) -> dict[str, int]:
        return {"V": self.graph.num_vertices, "E": len(self.graph.edges)}

    def to_data(self) -> dict:
        return self.graph.to_data()

    def _edge_rows(self, rel: str) -> tuple:
        return tuple((((u, 1), (v, 1)), rel, 1) for u, v in self.graph.edges)


class IndependentSet(_GraphProblem, LinearProblem):
    kind = ValueKind.MAX
    type_name = "MaximumIndependentSet"

    @property
    def variant_tags(self) -> dict[str, str]:
        weight = "unit" if self.graph.vertex_weights is None else "integer"
        return {"graph": "simple", "weight": weight}

    def linear_statement(self) -> tuple[tuple, tuple[int, ...]]:
        return self._edge_rows("<="), self.graph.weights


class VertexCover(_GraphProblem, LinearProblem):
    kind = ValueKind.MIN
    type_name = "MinimumVertexCover"

    def linear_statement(self) -> tuple[tuple, tuple[int, ...]]:
        return self._edge_rows(">="), (1,) * self.graph.num_vertices
