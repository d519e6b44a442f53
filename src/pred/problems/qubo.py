"""The quadratic family: ``QuboData`` and ``IsingData``, QUBO and the spin glass.

Both are their matrix alone (``QuadraticProblem``): QUBO states its own,
and the spin glass the matrix and offset of its negated energy over 0-1
variables, spin s = 2x - 1. Also the forward maps of the rules whose target
is QUBO or the spin glass; max-cut and the spin glass reach QUBO by their
own statements. A forward map reads its source only through attributes, so
this module imports no other family at run time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..errors import InvalidInstanceError, Record
from ..model import Problem, QuadraticProblem

if TYPE_CHECKING:
    from .graph import IndependentSet, MaxCut


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


class Qubo(Record, QuadraticProblem):
    data: QuboData
    type_name = "QUBO"

    @classmethod
    def from_data(cls, data: Mapping) -> Qubo:
        return cls(QuboData(data["n"], data["q"]))

    def config_dims(self) -> tuple[int, ...]:
        return (2,) * self.data.n

    def size_measures(self) -> dict[str, int]:
        return {"n": self.data.n}

    def quadratic_statement(self) -> tuple[tuple, int]:
        return self.data.q, 0

    def to_data(self) -> dict:
        return {"n": self.data.n, "q": [list(row) for row in self.data.q]}


class SpinGlass(Record, QuadraticProblem):
    data: IsingData
    type_name = "SpinGlass"

    @classmethod
    def from_data(cls, data: Mapping) -> SpinGlass:
        return cls(IsingData(data["n"], data["j"], data["h"]))

    def config_dims(self) -> tuple[int, ...]:
        return (2,) * self.data.n

    def size_measures(self) -> dict[str, int]:
        return {"n": self.data.n}

    def quadratic_statement(self) -> tuple[tuple, int]:
        # minus the energy sum_{i<k} J_ik s_i s_k + sum_i h_i s_i at s = 2x - 1;
        # J's diagonal is zero, so a row's sum is its couplings'
        j, h = self.data.j, self.data.h
        q = [[-2 * c for c in row] for row in j]
        for i, row in enumerate(j):
            q[i][i] = 2 * sum(row) - 2 * h[i]
        return tuple(map(tuple, q)), sum(h) - sum(map(sum, j)) // 2

    def to_data(self) -> dict:
        return {
            "n": self.data.n,
            "j": [list(row) for row in self.data.j],
            "h": list(self.data.h),
        }


# --- forward maps into this family --------------------------------------------

def forward_maxcut_to_qubo(instance: MaxCut) -> tuple[Problem, dict]:
    q, _ = instance.quadratic_statement()
    return Qubo(QuboData(len(q), q)), {"num_vertices": len(q)}


def forward_mis_to_qubo(instance: IndependentSet) -> tuple[Problem, dict]:
    # unit weights: penalty 2 per edge strictly beats the 1-per-vertex gain
    g = instance.graph
    n = g.num_vertices
    q = [[0] * n for _ in range(n)]
    for v in range(n):
        q[v][v] = 1
    for u, v in g.edges:
        q[u][v] = -1
        q[v][u] = -1
    return Qubo(QuboData(n, tuple(tuple(row) for row in q))), {"scale": 1, "offset": 0}


def forward_qubo_to_ising(instance: Qubo) -> tuple[Problem, dict]:
    qd = instance.data
    n = qd.n
    j = [[0] * n for _ in range(n)]
    h = [0] * n
    for i in range(n):
        h[i] = -2 * sum(qd.q[i])
        for k in range(n):
            if k != i:
                j[i][k] = -2 * qd.q[i][k]
    offset = sum(sum(row) for row in qd.q) + sum(qd.q[i][i] for i in range(n))
    ising = IsingData(n, tuple(tuple(row) for row in j), tuple(h))
    return SpinGlass(ising), {"scale": 4, "offset": offset}


def forward_ising_to_qubo(instance: SpinGlass) -> tuple[Problem, dict]:
    q, offset = instance.quadratic_statement()
    return Qubo(QuboData(len(q), q)), {"scale": 1, "offset": offset}
