"""The integer-programming family: ``IlpData`` and ``Ilp``.

Also the forward maps of the rules into ILP, which emit sparse rows, so a
program's size in memory follows its nonzeros. A forward map reads its
source only through attributes, so this module imports no other family at
run time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..errors import InvalidInstanceError, Record
from ..model import SENSE_MAXIMIZE, SENSE_MINIMIZE, Problem, ValueKind

if TYPE_CHECKING:
    from .graph import IndependentSet, VertexCover
    from .qubo import Qubo
    from .setcover import SetCover


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


class Ilp(Record, Problem):
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

    def point(self, config) -> tuple[int, ...]:
        return tuple(lo + c for (lo, _), c in zip(self.data.var_bounds, config))

    def _measure(self, config) -> tuple[int, bool]:
        x = self.point(config)
        return sum(c * xi for c, xi in zip(self.data.objective, x)), self.data.holds(x)


def _dense(terms: tuple[tuple[int, int], ...], num_vars: int) -> list[int]:
    coeffs = [0] * num_vars
    for j, a in terms:
        coeffs[j] = a
    return coeffs


# --- forward maps into this family --------------------------------------------

def forward_mis_to_ilp(instance: IndependentSet) -> tuple[Problem, dict]:
    g = instance.graph
    n = g.num_vertices
    constraints = tuple((((u, 1), (v, 1)), "<=", 1) for u, v in g.edges)
    data = IlpData(n, ((0, 1),) * n, constraints, g.weights, "max")
    return Ilp(data), {"num_vars": n}


def forward_vc_to_ilp(instance: VertexCover) -> tuple[Problem, dict]:
    g = instance.graph
    n = g.num_vertices
    constraints = tuple((((u, 1), (v, 1)), ">=", 1) for u, v in g.edges)
    data = IlpData(n, ((0, 1),) * n, constraints, (1,) * n, "min")
    return Ilp(data), {"num_vars": n}


def forward_setcover_to_ilp(instance: SetCover) -> tuple[Problem, dict]:
    sc = instance.data
    n = len(sc.sets)
    holders: list[list[tuple[int, int]]] = [[] for _ in range(sc.num_elements)]
    for i, s in enumerate(sc.sets):
        for element in set(s):
            holders[element].append((i, 1))
    constraints = tuple((tuple(row), ">=", 1) for row in holders)
    data = IlpData(n, ((0, 1),) * n, constraints, (1,) * n, "min")
    return Ilp(data), {"num_vars": n}


def forward_qubo_to_ilp(instance: Qubo) -> tuple[Problem, dict]:
    qd = instance.data
    n = qd.n
    total = n + n * n
    constraints = []
    objective = [0] * total
    for i in range(n):
        for k in range(n):
            y = n + i * n + k
            objective[y] = qd.q[i][k]
            constraints.append((((i, -1), (y, 1)), "<=", 0))  # y <= x_i
            constraints.append((((k, -1), (y, 1)), "<=", 0))  # y <= x_k
            pair = ((i, 2),) if i == k else ((min(i, k), 1), (max(i, k), 1))
            constraints.append(((*pair, (y, -1)), "<=", 1))  # y >= x_i + x_k - 1
    data = IlpData(total, ((0, 1),) * total, tuple(constraints), tuple(objective), "max")
    return Ilp(data), {"num_vars": n}
