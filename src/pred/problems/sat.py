"""The satisfiability family: ``CnfData``, SAT and 3-SAT.

SAT and 3-SAT are one row per clause (``LinearProblem``). Also the forward
maps of the rules whose target is SAT or 3-SAT, and the coloring extractor
that only the coloring rule uses. A forward map reads its source only
through attributes, so this module imports no other family at run time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..errors import InvalidInstanceError, Record
from ..model import LinearProblem, Problem, ValueKind

if TYPE_CHECKING:
    from .graph import GraphColoring


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


class Satisfiability(Record, LinearProblem):
    cnf: CnfData
    kind = ValueKind.OR
    type_name = "Satisfiability"

    @classmethod
    def from_data(cls, data: Mapping) -> Satisfiability:
        return cls(CnfData(data["num_variables"], data["clauses"]))

    def config_dims(self) -> tuple[int, ...]:
        return (2,) * self.cnf.num_variables

    def num_variables(self) -> int:
        return self.cnf.num_variables

    def size_measures(self) -> dict[str, int]:
        return {
            "n": self.cnf.num_variables,
            "m": len(self.cnf.clauses),
            "L": self.cnf.literal_count,
        }

    def linear_statement(self) -> tuple[tuple, tuple[int, ...]]:
        # the literals sum to at least 1, -v read as 1 - x_v: repeats add up, v and -v cancel
        rows = []
        for clause in self.cnf.clauses:
            held = sorted(set(map(abs, clause)))
            terms = tuple((v - 1, a) for v in held if (a := clause.count(v) - clause.count(-v)))
            rows.append((terms, ">=", 1 - sum(lit < 0 for lit in clause)))
        return tuple(rows), (0,) * self.cnf.num_variables

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


# --- forward maps into this family, and the extractor only one of them uses ---

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
