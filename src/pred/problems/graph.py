"""The graph family: ``GraphData`` and the problems posed on a simple graph.

Independent set, vertex cover, clique, dominating set, max-cut and graph
coloring, the decision wrappers of the first two, and the forward maps of
the rules whose target is one of them. Independent set, vertex cover and
dominating set state their rows once (``LinearProblem``); vertex cover keeps
a stronger bound and a faster measure of its own, and clique, max-cut and
coloring bound their prefixes directly. A forward map reads its source only through attributes,
so this module imports no other family at run time.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, compress
from typing import TYPE_CHECKING, Mapping

from ..errors import InvalidInstanceError, Record
from ..model import DecisionProblem, LinearProblem, Problem, ValueKind

if TYPE_CHECKING:
    from .sat import ThreeSatisfiability

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

    @cached_property
    def suffix_matchings(self) -> tuple[int, ...]:
        """Entry k is the size of a matching of the subgraph on vertices k
        to V-1, never smaller than entry k+1; entry V is 0.

        Each subgraph is matched greedily: the vertex with the fewest
        unmatched neighbours (at least one) is matched to its neighbour with
        the fewest, the lowest index on ties, until no edge is left. Every
        vertex cover holds one end of each matched edge, so a vertex cover
        of the subgraph has at least that many vertices.
        """
        n = self.num_vertices
        adjacent = [0] * n
        for u, v in self.edges:
            adjacent[u] |= 1 << v
            adjacent[v] |= 1 << u

        def fewest(candidates: int, alive: int) -> int:
            """The bit of the lowest candidate with the fewest neighbours in
            ``alive``, at least one; 0 if no candidate has one."""
            pick, least = 0, n
            while candidates:
                bit = candidates & -candidates
                candidates ^= bit
                degree = (adjacent[bit.bit_length() - 1] & alive).bit_count()
                if 0 < degree < least:
                    pick, least = bit, degree
            return pick

        sizes = [0] * (n + 1)
        for k in range(n - 1, -1, -1):
            alive = ((1 << n) - 1) >> k << k
            size = 0
            while pick := fewest(alive, alive):
                alive &= ~(pick | fewest(adjacent[pick.bit_length() - 1] & alive, alive))
                size += 1
            sizes[k] = max(size, sizes[k + 1])
        return tuple(sizes)


# --- problem classes ----------------------------------------------------------

class _GraphProblem(Record, Problem):
    """A problem on a simple graph with one binary variable per vertex."""

    graph: GraphData

    @classmethod
    def from_data(cls, data: Mapping) -> _GraphProblem:
        return cls(GraphData.from_data(data))

    @classmethod
    def decision_from_data(cls, data: Mapping) -> DecisionProblem:
        return DecisionProblem(cls.from_data(data), data["bound"])

    @property
    def variant_tags(self) -> dict[str, str]:
        return {"graph": "simple"}

    def config_dims(self) -> tuple[int, ...]:
        return (2,) * self.graph.num_vertices

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

    def _measure(self, config) -> tuple[int, bool]:
        # faster on brute force than the rows (BENCH_26.json)
        return sum(config), all(config[u] or config[v] for u, v in self.graph.edges)

    def _optimistic_payload(self, prefix) -> int | None:
        # earlier prefixes passed, so only edges closing at the newest vertex
        # can be uncovered; every completion keeps the ones chosen so far and
        # covers each edge of a matching of the unfixed vertices with a vertex
        # of its own
        k = len(prefix)
        if not prefix[k - 1] and not all(prefix[u] for u in self.graph.lower_neighbors[k - 1]):
            return None
        return sum(prefix) + self.graph.suffix_matchings[k]


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


class DominatingSet(_GraphProblem, LinearProblem):
    kind = ValueKind.MIN
    type_name = "MinimumDominatingSet"

    def linear_statement(self) -> tuple[tuple, tuple[int, ...]]:
        hoods = self.graph.closed_neighborhoods
        rows = tuple((tuple((u, 1) for u in hood), ">=", 1) for hood in hoods)
        return rows, (1,) * self.graph.num_vertices


class MaxCut(_GraphProblem):
    kind = ValueKind.MAX
    type_name = "MaxCut"

    def _measure(self, config) -> tuple[int, bool]:
        # every 2-partition is admissible
        return sum(1 for u, v in self.graph.edges if config[u] != config[v]), True

    def _optimistic_payload(self, prefix) -> int:
        # the edges the prefix cuts, plus every edge with an end still free
        # (an edge's larger end is its second)
        k = len(prefix)
        return sum(prefix[u] != prefix[v] if v < k else 1 for u, v in self.graph.edges)


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


# --- forward maps into this family, and the extractor only one of them uses ---

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


def forward_mis_to_vc(instance: IndependentSet) -> tuple[Problem, dict]:
    return VertexCover(instance.graph), {"num_vertices": instance.graph.num_vertices}


def forward_vc_to_mis(instance: VertexCover) -> tuple[Problem, dict]:
    return IndependentSet(instance.graph), {"num_vertices": instance.graph.num_vertices}


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


def forward_decision_mis(instance: DecisionProblem) -> tuple[Problem, dict]:
    return instance.inner, {"num_vertices": instance.inner.graph.num_vertices}


def forward_mis_unit_to_integer(instance: IndependentSet) -> tuple[Problem, dict]:
    g = instance.graph
    weighted = GraphData(g.num_vertices, g.edges, (1,) * g.num_vertices)
    return IndependentSet(weighted), {"scale": 1, "offset": 0}
