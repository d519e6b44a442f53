"""The satisfiability family: ``CnfData``, SAT and 3-SAT.

SAT and 3-SAT are one row per clause (``LinearProblem``). The forward maps
into them are in ``sat_to_mis`` (SAT to 3-SAT) and ``coloring_to_sat``.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import InvalidInstanceError, Record
from ..model import LinearProblem, ValueKind


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
