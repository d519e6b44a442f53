"""Concrete problem types and the shipped catalogue.

Instance data lives in small immutable records with eager validation;
each problem class implements the uniform interface from ``model``. The
catalogue registers every shipped variant with its size measures and the
best known (or naive enumeration) complexity bound.

Instance data is declared once, in the field table ``DATA_FIELDS``: for
each canonical problem name, its required and optional data fields, the
shape check each field's value must pass (integer, count up to
``sys.maxsize``, integer list, rows of integers, integer pairs or ILP
constraints), and a one-line constructor. ``instance_from_data`` is the one
decoder; JSON documents and ``pred create`` flags both go through it, so
both accept and reject the same data.
"""

from __future__ import annotations

import sys
from functools import cached_property, lru_cache
from itertools import combinations, compress
from typing import AbstractSet, Callable, Mapping

from .errors import DocumentError, InvalidInstanceError, Record
from .model import (
    DecisionProblem,
    Problem,
    ProblemTypeDescriptor,
    Registry,
    SENSE_MAXIMIZE,
    SENSE_MINIMIZE,
    ValueKind,
)

Edge = tuple[int, int]


# --- instance data ----------------------------------------------------------

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


class CnfData(Record):
    """CNF over 1-indexed variables; literals are signed, clauses non-empty."""

    num_variables: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_variables < 0:
            raise InvalidInstanceError("negative variable count")
        clauses = tuple(tuple(c) for c in self.clauses)
        for clause in clauses:
            if not clause:
                raise InvalidInstanceError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_variables:
                    raise InvalidInstanceError(f"literal {lit} out of range")
        object.__setattr__(self, "clauses", clauses)

    @property
    def literal_count(self) -> int:
        return sum(len(c) for c in self.clauses)

    def satisfied(self, assignment: tuple[int, ...]) -> bool:
        return all(
            any((lit > 0) == bool(assignment[abs(lit) - 1]) for lit in clause)
            for clause in self.clauses
        )


class IlpData(Record):
    """Integer linear program with finite box bounds on every variable. Each
    constraint is ``(terms, rel, rhs)``, ``terms`` being its nonzero
    ``(index, coeff)`` pairs by increasing index; documents keep dense rows."""

    num_vars: int
    var_bounds: tuple[tuple[int, int], ...]
    constraints: tuple[tuple[tuple[tuple[int, int], ...], str, int], ...]
    objective: tuple[int, ...]
    sense: str  # "max" | "min"

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise InvalidInstanceError("negative variable count")
        if len(self.var_bounds) != self.num_vars or len(self.objective) != self.num_vars:
            raise InvalidInstanceError("bounds/objective length != variable count")
        for lo, hi in self.var_bounds:
            if lo > hi:
                raise InvalidInstanceError(f"empty variable domain [{lo},{hi}]")
        constraints = []
        for terms, rel, rhs in self.constraints:
            terms = tuple((j, a) for j, a in terms)
            # each index is above the one before it (-1 for the first) and below num_vars
            for (i, _), (j, a) in zip(((-1, 1),) + terms, terms):
                if not i < j < self.num_vars or a == 0:
                    raise InvalidInstanceError(
                        f"constraint term {(j, a)} is out of range, out of index order or zero"
                    )
            if rel not in ("<=", ">=", "="):
                raise InvalidInstanceError(f"bad relation {rel!r}")
            constraints.append((terms, rel, rhs))
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "var_bounds", tuple((lo, hi) for lo, hi in self.var_bounds))
        object.__setattr__(self, "objective", tuple(self.objective))
        if self.sense not in ("max", "min"):
            raise InvalidInstanceError(f"bad sense {self.sense!r}")

    def holds(self, x: tuple[int, ...]) -> bool:
        for terms, rel, rhs in self.constraints:
            lhs = sum(a * x[j] for j, a in terms)
            if rel == "<=" and lhs > rhs:
                return False
            if rel == ">=" and lhs < rhs:
                return False
            if rel == "=" and lhs != rhs:
                return False
        return True


class QuboData(Record):
    """Symmetric integer matrix; objective is x^T Q x over binary x, maximized."""

    n: int
    q: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidInstanceError("negative size")
        q = tuple(tuple(row) for row in self.q)
        if len(q) != self.n or any(len(row) != self.n for row in q):
            raise InvalidInstanceError("Q is not n x n")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if q[i][j] != q[j][i]:
                    raise InvalidInstanceError(f"Q not symmetric at ({i},{j})")
        object.__setattr__(self, "q", q)

    def value(self, x: tuple[int, ...]) -> int:
        total = 0
        for i in range(self.n):
            if not x[i]:
                continue
            row = self.q[i]
            for j in range(self.n):
                if x[j]:
                    total += row[j]
        return total

    @cached_property
    def coupling_tails(self) -> tuple[int, ...]:
        """Entry k sums the positive couplings ``2*q[j][l]`` over k <= j < l: the
        most that pairs of variables from k on can add together."""
        tails = [0] * (self.n + 1)
        for j in range(self.n - 1, -1, -1):
            tails[j] = tails[j + 1] + 2 * sum(c for c in self.q[j][j + 1:] if c > 0)
        return tuple(tails)


class IsingData(Record):
    """Pair couplings (symmetric, zero diagonal) and local fields over spins."""

    n: int
    j: tuple[tuple[int, ...], ...]
    h: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidInstanceError("negative size")
        j = tuple(tuple(row) for row in self.j)
        if len(j) != self.n or any(len(row) != self.n for row in j):
            raise InvalidInstanceError("J is not n x n")
        for i in range(self.n):
            if j[i][i] != 0:
                raise InvalidInstanceError("J must have zero diagonal")
            for k in range(i + 1, self.n):
                if j[i][k] != j[k][i]:
                    raise InvalidInstanceError(f"J not symmetric at ({i},{k})")
        if len(self.h) != self.n:
            raise InvalidInstanceError("h length != n")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", tuple(self.h))

    def negated_energy(self, spins: tuple[int, ...]) -> int:
        energy = 0
        for i in range(self.n):
            for k in range(i + 1, self.n):
                energy += self.j[i][k] * spins[i] * spins[k]
            energy += self.h[i] * spins[i]
        return -energy


class SetCoverData(Record):
    """Family of subsets of range(num_elements) whose union covers everything."""

    num_elements: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_elements < 0:
            raise InvalidInstanceError("negative element count")
        sets = tuple(tuple(s) for s in self.sets)
        covered: set[int] = set()
        for s in sets:
            for e in s:
                if not 0 <= e < self.num_elements:
                    raise InvalidInstanceError(f"element {e} out of range")
            covered.update(s)
        if len(covered) < self.num_elements:
            raise InvalidInstanceError("union of sets does not cover all elements")
        object.__setattr__(self, "sets", sets)


# --- problem classes ----------------------------------------------------------

def _binary_dims(n: int) -> tuple[int, ...]:
    return (2,) * n


class _GraphProblem(Record, Problem):
    """A problem on a simple graph with one binary variable per vertex."""

    graph: GraphData

    @property
    def variant_tags(self) -> dict[str, str]:
        return {"graph": "simple"}

    def config_dims(self) -> tuple[int, ...]:
        return _binary_dims(self.graph.num_vertices)

    def size_measures(self) -> dict[str, int]:
        return {"V": self.graph.num_vertices, "E": len(self.graph.edges)}

    def to_data(self) -> dict:
        return _graph_to_data(self.graph)


class IndependentSet(_GraphProblem):
    kind = ValueKind.MAX
    type_name = "MaximumIndependentSet"

    @property
    def variant_tags(self) -> dict[str, str]:
        weight = "unit" if self.graph.vertex_weights is None else "integer"
        return {"graph": "simple", "weight": weight}

    def _measure(self, config) -> tuple[int, bool]:
        feasible = all(not (config[u] and config[v]) for u, v in self.graph.edges)
        return sum(compress(self.graph.weights, config)), feasible


class VertexCover(_GraphProblem):
    kind = ValueKind.MIN
    type_name = "MinimumVertexCover"

    def _measure(self, config) -> tuple[int, bool]:
        feasible = all(config[u] or config[v] for u, v in self.graph.edges)
        return sum(config), feasible

    def _optimistic_payload(self, prefix) -> int | None:
        # earlier prefixes passed, so only edges closing at the newest vertex
        # can be uncovered; every completion keeps the ones chosen so far
        last = len(prefix) - 1
        if not prefix[last] and not all(prefix[u] for u in self.graph.lower_neighbors[last]):
            return None
        return sum(prefix)


class Clique(_GraphProblem):
    kind = ValueKind.MAX
    type_name = "MaximumClique"

    def _measure(self, config) -> tuple[int, bool]:
        chosen = tuple(compress(range(len(config)), config))
        # chosen is increasing, so each pair is already a normalized edge
        return len(chosen), self.graph.edge_set.issuperset(combinations(chosen, 2))


class DominatingSet(_GraphProblem):
    kind = ValueKind.MIN
    type_name = "MinimumDominatingSet"

    def _measure(self, config) -> tuple[int, bool]:
        chosen = set(compress(range(len(config)), config))
        return sum(config), not any(map(chosen.isdisjoint, self.graph.closed_neighborhoods))


class SetCover(Record, Problem):
    data: SetCoverData
    kind = ValueKind.MIN
    type_name = "MinimumSetCover"

    def config_dims(self) -> tuple[int, ...]:
        return _binary_dims(len(self.data.sets))

    def size_measures(self) -> dict[str, int]:
        return {"S": len(self.data.sets), "U": self.data.num_elements}

    def _measure(self, config) -> tuple[int, bool]:
        covered: set[int] = set()
        for i, chosen in enumerate(config):
            if chosen:
                covered.update(self.data.sets[i])
        return sum(config), len(covered) == self.data.num_elements

    def to_data(self) -> dict:
        return {"num_elements": self.data.num_elements, "sets": [list(s) for s in self.data.sets]}


class MaxCut(_GraphProblem):
    kind = ValueKind.MAX
    type_name = "MaxCut"

    def _measure(self, config) -> tuple[int, bool]:
        # every 2-partition is admissible
        return sum(1 for u, v in self.graph.edges if config[u] != config[v]), True


class Qubo(Record, Problem):
    data: QuboData
    kind = ValueKind.MAX
    type_name = "QUBO"

    def config_dims(self) -> tuple[int, ...]:
        return _binary_dims(self.data.n)

    def size_measures(self) -> dict[str, int]:
        return {"n": self.data.n}

    def _measure(self, config) -> tuple[int, bool]:
        return self.data.value(config), True

    def _optimistic_payload(self, prefix) -> int:
        # x^T Q x over binary x is sum_j q_jj x_j + 2 sum_{j<l} q_jl x_j x_l:
        # the part the prefix fixes, plus each free variable's marginal gain
        # given the prefix's ones where positive, plus every positive coupling
        # between two free variables (Pardalos & Rodgers, 1990)
        q = self.data.q
        k = len(prefix)
        bound = self.data.coupling_tails[k]
        for i in compress(range(k), prefix):
            bound += sum(compress(q[i], prefix))
        for j in range(k, self.data.n):
            row = q[j]
            gain = row[j] + 2 * sum(compress(row, prefix))
            if gain > 0:
                bound += gain
        return bound

    def to_data(self) -> dict:
        return {"n": self.data.n, "q": [list(row) for row in self.data.q]}


class SpinGlass(Record, Problem):
    data: IsingData
    kind = ValueKind.MAX
    type_name = "SpinGlass"

    def config_dims(self) -> tuple[int, ...]:
        return _binary_dims(self.data.n)

    def size_measures(self) -> dict[str, int]:
        return {"n": self.data.n}

    def _measure(self, config) -> tuple[int, bool]:
        return self.data.negated_energy(tuple(2 * c - 1 for c in config)), True

    def to_data(self) -> dict:
        return {
            "n": self.data.n,
            "j": [list(row) for row in self.data.j],
            "h": list(self.data.h),
        }


class GraphColoring(Record, Problem):
    graph: GraphData
    colors: int
    kind = ValueKind.OR
    type_name = "GraphColoring"

    def __post_init__(self) -> None:
        if self.colors < 1:
            raise InvalidInstanceError("need at least one color")

    @property
    def variant_tags(self) -> dict[str, str]:
        return {"graph": "simple"}

    def config_dims(self) -> tuple[int, ...]:
        return (self.colors,) * self.graph.num_vertices

    def size_measures(self) -> dict[str, int]:
        return {"V": self.graph.num_vertices, "E": len(self.graph.edges), "k": self.colors}

    def _measure(self, config) -> tuple[bool, bool]:
        return all(config[u] != config[v] for u, v in self.graph.edges), True

    def to_data(self) -> dict:
        data = _graph_to_data(self.graph)
        data["colors"] = self.colors
        return data


class Satisfiability(Record, Problem):
    cnf: CnfData
    kind = ValueKind.OR
    type_name = "Satisfiability"

    def config_dims(self) -> tuple[int, ...]:
        return _binary_dims(self.cnf.num_variables)

    def size_measures(self) -> dict[str, int]:
        return {
            "n": self.cnf.num_variables,
            "m": len(self.cnf.clauses),
            "L": self.cnf.literal_count,
        }

    def _measure(self, config) -> tuple[bool, bool]:
        return self.cnf.satisfied(config), True

    def to_data(self) -> dict:
        return {
            "num_variables": self.cnf.num_variables,
            "clauses": [list(c) for c in self.cnf.clauses],
        }


class ThreeSatisfiability(Satisfiability):
    type_name = "ThreeSatisfiability"

    def __post_init__(self) -> None:
        for clause in self.cnf.clauses:
            if len(clause) > 3:
                raise InvalidInstanceError(f"clause of length {len(clause)} in a 3-SAT instance")


class Ilp(Record, Problem):
    data: IlpData
    kind = ValueKind.EXTREMUM
    type_name = "IntegerLinearProgram"

    @property
    def sense(self) -> str:
        return SENSE_MAXIMIZE if self.data.sense == "max" else SENSE_MINIMIZE

    def config_dims(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.data.var_bounds)

    def size_measures(self) -> dict[str, int]:
        return {"n": self.data.num_vars, "c": len(self.data.constraints)}

    def point(self, config) -> tuple[int, ...]:
        return tuple(lo + c for (lo, _), c in zip(self.data.var_bounds, config))

    def _measure(self, config) -> tuple[int, bool]:
        x = self.point(config)
        return sum(c * xi for c, xi in zip(self.data.objective, x)), self.data.holds(x)

    def to_data(self) -> dict:
        return {
            "num_vars": self.data.num_vars,
            "bounds": [list(b) for b in self.data.var_bounds],
            "constraints": [
                {"coeffs": _dense(terms, self.data.num_vars), "rel": rel, "rhs": rhs}
                for terms, rel, rhs in self.data.constraints
            ],
            "objective": list(self.data.objective),
            "sense": self.data.sense,
        }


# --- catalogue ----------------------------------------------------------------

MIS_BRANCHING = "1.1996"  # best known MIS branching-factor bound


def _descriptor(
    name: str,
    tags: Mapping[str, str],
    measures: tuple[str, ...],
    complexity: str,
    kind: ValueKind,
    alias: str | None = None,
) -> ProblemTypeDescriptor:
    return ProblemTypeDescriptor(
        name=name,
        variant_tags=tuple(sorted(tags.items())),
        size_measure_names=measures,
        complexity=complexity,
        kind=kind,
        alias=alias,
    )


SIMPLE = {"graph": "simple"}


def register_catalogue(registry: Registry | None = None) -> Registry:
    """Register every shipped problem variant; idempotent per fresh registry."""
    registry = registry or Registry()
    mis_complexity = f"{MIS_BRANCHING}^V"
    entries = [
        _descriptor("Satisfiability", {}, ("n", "m", "L"), "2^n", ValueKind.OR, alias="SAT"),
        _descriptor(
            "ThreeSatisfiability", {}, ("n", "m", "L"), "2^n", ValueKind.OR, alias="3SAT"
        ),
        _descriptor(
            "MaximumIndependentSet",
            {**SIMPLE, "weight": "unit"},
            ("V", "E"),
            mis_complexity,
            ValueKind.MAX,
            alias="MIS",
        ),
        _descriptor(
            "MaximumIndependentSet",
            {**SIMPLE, "weight": "integer"},
            ("V", "E"),
            mis_complexity,
            ValueKind.MAX,
        ),
        _descriptor(
            "MinimumVertexCover", SIMPLE, ("V", "E"), mis_complexity, ValueKind.MIN, alias="VC"
        ),
        _descriptor("MaximumClique", SIMPLE, ("V", "E"), "2^V", ValueKind.MAX, alias="Clique"),
        _descriptor(
            "MinimumDominatingSet",
            SIMPLE,
            ("V", "E"),
            "2^V",
            ValueKind.MIN,
            alias="DominatingSet",
        ),
        _descriptor(
            "MinimumSetCover", {}, ("S", "U"), "2^S", ValueKind.MIN, alias="SetCover"
        ),
        _descriptor("MaxCut", SIMPLE, ("V", "E"), "2^V", ValueKind.MAX),
        _descriptor("QUBO", {}, ("n",), "2^n", ValueKind.MAX),
        _descriptor("SpinGlass", {}, ("n",), "2^n", ValueKind.MAX, alias="Ising"),
        _descriptor("GraphColoring", SIMPLE, ("V", "E", "k"), "k^V", ValueKind.OR, alias="GC"),
        _descriptor(
            "IntegerLinearProgram", {}, ("n", "c"), "2^n", ValueKind.EXTREMUM, alias="ILP"
        ),
        _descriptor(
            "DecisionMaximumIndependentSet",
            {**SIMPLE, "weight": "unit"},
            ("V", "E"),
            mis_complexity,
            ValueKind.OR,
            alias="DecisionMIS",
        ),
        _descriptor(
            "DecisionMinimumVertexCover",
            SIMPLE,
            ("V", "E"),
            mis_complexity,
            ValueKind.OR,
            alias="DecisionVC",
        ),
    ]
    for descriptor in entries:
        registry.register(descriptor)
    registry.freeze()
    return registry


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    """The shipped catalogue, registered once per process."""
    return register_catalogue()


# --- wire format ----------------------------------------------------------------

def _graph_to_data(graph: GraphData) -> dict:
    data: dict = {
        "num_vertices": graph.num_vertices,
        "edges": [list(e) for e in graph.edges],
    }
    if graph.vertex_weights is not None:
        data["weights"] = list(graph.vertex_weights)
    return data


def _require_fields(
    data: Mapping, required: AbstractSet[str], optional: AbstractSet[str] = frozenset()
) -> None:
    if not isinstance(data, Mapping):
        raise DocumentError("instance data must be an object")
    keys = set(data)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise DocumentError(f"missing data field(s): {sorted(missing)}")
    if unknown:
        raise DocumentError(f"unknown data field(s): {sorted(unknown)}")


def _int(value, what: str) -> int:
    # bool is an int subclass, but true is not a count
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{what} must be an integer")
    return value


def _count(value, what: str) -> int:
    # a count sizes ranges and sequences, which hold at most sys.maxsize items
    if _int(value, what) > sys.maxsize:
        raise DocumentError(f"{what} must be at most {sys.maxsize}")
    return value


def _list(values, what: str) -> list | tuple:
    if not isinstance(values, (list, tuple)):
        raise DocumentError(f"{what} must be a list")
    return values


def _int_list(values, what: str) -> tuple[int, ...]:
    out = []
    for v in _list(values, what):
        if not isinstance(v, int) or isinstance(v, bool):
            raise DocumentError(f"{what} must contain integers")
        out.append(v)
    return tuple(out)


def _int_rows(values, what: str) -> tuple[tuple[int, ...], ...]:
    entry = f"each entry of {what}"
    return tuple(_int_list(row, entry) for row in _list(values, what))


def _int_pairs(values, what: str) -> tuple[tuple[int, ...], ...]:
    rows = _int_rows(values, what)
    for row in rows:
        if len(row) != 2:
            raise DocumentError(f"each entry of {what} must be a pair, not {list(row)}")
    return rows


def _ilp_constraints(values, what: str) -> tuple[tuple[tuple[int, ...], object, int], ...]:
    rows = []
    for c in _list(values, what):
        _require_fields(c, {"coeffs", "rel", "rhs"})
        rows.append((_int_list(c["coeffs"], "coeffs"), c["rel"], _int(c["rhs"], "rhs")))
    return tuple(rows)


# An ILP document row is dense, one coefficient per variable: only these two know it.
def _dense(terms: tuple[tuple[int, int], ...], num_vars: int) -> list[int]:
    coeffs = [0] * num_vars
    for j, a in terms:
        coeffs[j] = a
    return coeffs


def _ilp(d: Mapping) -> Ilp:
    if any(len(coeffs) != d["num_vars"] for coeffs, _, _ in d["constraints"]):
        raise InvalidInstanceError("constraint coefficient length != variable count")
    rows = [(tuple((j, a) for j, a in enumerate(c) if a), r, b) for c, r, b in d["constraints"]]
    return Ilp(IlpData(d["num_vars"], d["bounds"], rows, d["objective"], d["sense"]))


def _graph(data: Mapping) -> GraphData:
    return GraphData(data["num_vertices"], data["edges"], data.get("weights"))


def _cnf(data: Mapping) -> CnfData:
    return CnfData(data["num_variables"], data["clauses"])


_GRAPH = {"num_vertices": _count, "edges": _int_pairs}
_CNF = {"num_variables": _count, "clauses": _int_rows}

# Canonical problem name -> (required fields, optional fields, constructor).
# Each field maps to the shape check its value must pass; the constructor
# receives the checked values and its data class validates the rest.
DATA_FIELDS: dict[str, tuple[dict, dict, Callable[[Mapping], Problem]]] = {
    "Satisfiability": (_CNF, {}, lambda d: Satisfiability(_cnf(d))),
    "ThreeSatisfiability": (_CNF, {}, lambda d: ThreeSatisfiability(_cnf(d))),
    "MaximumIndependentSet": (
        _GRAPH, {"weights": _int_list}, lambda d: IndependentSet(_graph(d))
    ),
    "MinimumVertexCover": (_GRAPH, {}, lambda d: VertexCover(_graph(d))),
    "MaximumClique": (_GRAPH, {}, lambda d: Clique(_graph(d))),
    "MinimumDominatingSet": (_GRAPH, {}, lambda d: DominatingSet(_graph(d))),
    "MaxCut": (_GRAPH, {}, lambda d: MaxCut(_graph(d))),
    "GraphColoring": (
        {**_GRAPH, "colors": _count}, {}, lambda d: GraphColoring(_graph(d), d["colors"])
    ),
    "MinimumSetCover": (
        {"num_elements": _count, "sets": _int_rows},
        {},
        lambda d: SetCover(SetCoverData(d["num_elements"], d["sets"])),
    ),
    "QUBO": ({"n": _count, "q": _int_rows}, {}, lambda d: Qubo(QuboData(d["n"], d["q"]))),
    "SpinGlass": (
        {"n": _count, "j": _int_rows, "h": _int_list},
        {},
        lambda d: SpinGlass(IsingData(d["n"], d["j"], d["h"])),
    ),
    "IntegerLinearProgram": (
        {
            "num_vars": _count,
            "bounds": _int_pairs,
            "constraints": _ilp_constraints,
            "objective": _int_list,
            "sense": lambda value, what: value,  # IlpData checks it is "max" or "min"
        },
        {},
        _ilp,
    ),
    "DecisionMaximumIndependentSet": (
        {**_GRAPH, "bound": _int},
        {},
        lambda d: DecisionProblem(IndependentSet(_graph(d)), d["bound"]),
    ),
    "DecisionMinimumVertexCover": (
        {**_GRAPH, "bound": _int},
        {},
        lambda d: DecisionProblem(VertexCover(_graph(d)), d["bound"]),
    ),
}


def instance_from_data(name: str, data: Mapping) -> Problem:
    """Check ``data`` against the field table of canonical type ``name``; build it."""
    entry = DATA_FIELDS.get(name)
    if entry is None:
        raise DocumentError(f"no field table for problem {name!r}")
    required, optional, build = entry
    _require_fields(data, required.keys(), optional.keys())
    shapes = {**required, **optional}
    return build({field: shapes[field](value, field) for field, value in data.items()})


def instance_to_document(instance: Problem) -> dict:
    return {
        "problem": instance.type_name,
        "variant": dict(instance.variant_tags),
        "data": instance.to_data(),
    }


def instance_from_document(document: Mapping, registry: Registry) -> Problem:
    _require_fields(document, {"problem", "data"}, {"variant"})
    name = document["problem"]
    if not isinstance(name, str):
        raise DocumentError("problem name must be a string")
    descriptor = registry.lookup(name)  # resolves aliases, errors on unknowns
    instance = instance_from_data(descriptor.name, document["data"])
    variant = document.get("variant")
    if variant is not None and not isinstance(variant, Mapping):
        raise DocumentError("variant must be an object of tags")
    if variant is not None and dict(variant) != instance.variant_tags:
        raise DocumentError(
            f"variant tags {dict(variant)} do not match instance data "
            f"(expected {instance.variant_tags})"
        )
    registry.lookup_key(instance.variant_key())  # must be a registered variant
    return instance
