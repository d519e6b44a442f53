"""The set-cover family: ``SetCoverData`` and ``SetCover``.

A ``SetCover`` is a ``LinearProblem``, one row per element. Also the
forward map of the one rule into set cover, from dominating set. It reads
its source only through attributes, so this module imports no other family
at run time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..errors import InvalidInstanceError, Record
from ..model import LinearProblem, Problem, ValueKind

if TYPE_CHECKING:
    from .domset import DominatingSet


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


class SetCover(Record, LinearProblem):
    data: SetCoverData
    kind = ValueKind.MIN
    type_name = "MinimumSetCover"

    @classmethod
    def from_data(cls, data: Mapping) -> SetCover:
        return cls(SetCoverData(data["num_elements"], data["sets"]))

    def config_dims(self) -> tuple[int, ...]:
        return (2,) * len(self.data.sets)

    def size_measures(self) -> dict[str, int]:
        return {"S": len(self.data.sets), "U": self.data.num_elements}

    def linear_statement(self) -> tuple[tuple, tuple[int, ...]]:
        # an element listed twice in a set is held once
        holders: list[list[tuple[int, int]]] = [[] for _ in range(self.data.num_elements)]
        for i, s in enumerate(self.data.sets):
            for element in set(s):
                holders[element].append((i, 1))
        return tuple((tuple(row), ">=", 1) for row in holders), (1,) * len(self.data.sets)

    def to_data(self) -> dict:
        return {"num_elements": self.data.num_elements, "sets": [list(s) for s in self.data.sets]}


def forward_domset_to_setcover(instance: DominatingSet) -> tuple[Problem, dict]:
    g = instance.graph
    sets = g.closed_neighborhoods
    return SetCover(SetCoverData(g.num_vertices, sets)), {"num_vars": g.num_vertices}
