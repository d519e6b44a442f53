"""The integer-programming family: ``IlpData`` and ``Ilp``.

An ``Ilp`` is a ``LinearProblem`` whose rows are read over each variable's
box. Also the forward map that carries the rows of every linear 0-1
family into ILP as they are, which most routes to the ILP solver run; the
one that linearises QUBO is in ``qubo_to_ilp``. Both emit sparse rows, so a
program's size in memory follows its nonzeros. A forward map reads its
source only through attributes, so this module imports no other family at
run time.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import InvalidInstanceError, Record
from ..model import SENSE_MAXIMIZE, SENSE_MINIMIZE, LinearProblem, Problem, ValueKind


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


class Ilp(Record, LinearProblem):
    data: IlpData
    kind = ValueKind.EXTREMUM
    type_name = "IntegerLinearProgram"

    # An ILP document row is dense, one coefficient per variable: only
    # from_data and to_data know it.
    @classmethod
    def from_data(cls, d: Mapping) -> Ilp:
        if any(len(coeffs) != d["num_vars"] for coeffs, _, _ in d["constraints"]):
            raise InvalidInstanceError("constraint coefficient length != variable count")
        rows = [
            (tuple((j, a) for j, a in enumerate(c) if a), r, b) for c, r, b in d["constraints"]
        ]
        return cls(IlpData(d["num_vars"], d["bounds"], rows, d["objective"], d["sense"]))

    def to_data(self) -> dict:
        n = self.data.num_vars
        return {
            "num_vars": n,
            "bounds": [list(b) for b in self.data.var_bounds],
            "constraints": [
                {"coeffs": _dense(terms, n), "rel": rel, "rhs": rhs}
                for terms, rel, rhs in self.data.constraints
            ],
            "objective": list(self.data.objective),
            "sense": self.data.sense,
        }

    @property
    def sense(self) -> str:
        return SENSE_MAXIMIZE if self.data.sense == "max" else SENSE_MINIMIZE

    def config_dims(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.data.var_bounds)

    def size_measures(self) -> dict[str, int]:
        return {"n": self.data.num_vars, "c": len(self.data.constraints)}

    def linear_statement(self) -> tuple[tuple, tuple[int, ...]]:
        return self.data.constraints, self.data.objective

    def point(self, config) -> tuple[int, ...]:
        return tuple(lo + c for (lo, _), c in zip(self.data.var_bounds, config))


def _dense(terms: tuple[tuple[int, int], ...], num_vars: int) -> list[int]:
    coeffs = [0] * num_vars
    for j, a in terms:
        coeffs[j] = a
    return coeffs


# --- the forward map of the linear families -------------------------------------

def forward_linear_to_ilp(instance: LinearProblem) -> tuple[Problem, dict]:
    """The 0-1 program of a linear family's own rows and objective."""
    rows, objective = instance.linear_statement()
    n = len(objective)
    sense = "max" if instance.kind is ValueKind.MAX else "min"
    return Ilp(IlpData(n, ((0, 1),) * n, rows, objective, sense)), {"num_vars": n}
