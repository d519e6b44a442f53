"""The quadratic family: ``QuboData`` and ``IsingData``, QUBO and the spin glass.

Also the forward maps of the rules whose target is QUBO or the spin glass.
A forward map reads its source only through attributes, so this module
imports no other family at run time.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Mapping

from ..errors import InvalidInstanceError, Record
from ..model import Problem, ValueKind

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


class Qubo(Record, Problem):
    data: QuboData
    kind = ValueKind.MAX
    type_name = "QUBO"

    @classmethod
    def from_data(cls, data: Mapping) -> Qubo:
        return cls(QuboData(data["n"], data["q"]))

    def config_dims(self) -> tuple[int, ...]:
        return (2,) * self.data.n

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

    @classmethod
    def from_data(cls, data: Mapping) -> SpinGlass:
        return cls(IsingData(data["n"], data["j"], data["h"]))

    def config_dims(self) -> tuple[int, ...]:
        return (2,) * self.data.n

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


# --- forward maps into this family --------------------------------------------

def forward_maxcut_to_qubo(instance: MaxCut) -> tuple[Problem, dict]:
    g = instance.graph
    n = g.num_vertices
    q = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        q[u][u] += 1
        q[v][v] += 1
        q[u][v] -= 1
        q[v][u] -= 1
    return Qubo(QuboData(n, tuple(tuple(row) for row in q))), {"num_vertices": n}


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
    sd = instance.data
    n = sd.n
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        row_coupling = sum(sd.j[i][k] for k in range(n) if k != i)
        q[i][i] = 2 * row_coupling - 2 * sd.h[i]
        for k in range(n):
            if k != i:
                q[i][k] = -2 * sd.j[i][k]
    offset = sum(sd.h) - sum(sd.j[i][k] for i in range(n) for k in range(i + 1, n))
    return Qubo(QuboData(n, tuple(tuple(row) for row in q))), {"scale": 1, "offset": offset}
