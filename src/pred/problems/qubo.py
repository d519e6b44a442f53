"""The quadratic family: ``QuadraticProblem``, and QUBO and the spin glass.

A ``QuadraticProblem`` is its matrix alone: each 0-1 x is worth xᵀqx +
offset, and the walk bounds a prefix off the matrix. QUBO states its own
(``QuboData``), the spin glass the matrix and offset of its negated energy
over 0-1 variables, spin s = 2x - 1 (``IsingData``), and max-cut
(``maxcut``) its cut matrix. The forward maps into QUBO and the spin glass
are in ``qubo_maps``, but for max-cut's, and QUBO's into ILP is in
``qubo_to_ilp``.
"""

from __future__ import annotations

from abc import abstractmethod
from functools import cached_property
from itertools import compress
from typing import Mapping

from ..errors import InvalidInstanceError, Record
from ..model import Problem, ValueKind


class QuadraticProblem(Problem):
    """A Max problem stated once, by ``quadratic_statement``: each 0-1 x is worth xᵀqx + offset."""

    kind = ValueKind.MAX

    @abstractmethod
    def quadratic_statement(self) -> tuple[tuple, int]:
        """A symmetric integer matrix ``q`` and the offset; every x is feasible."""

    @cached_property
    def _statement(self) -> tuple[tuple, int]:
        return self.quadratic_statement()

    @cached_property
    def _shares(self) -> list:
        from ..fold import coupling_shares  # only a walk reads them
        return coupling_shares(self._statement[0])

    def _measure(self, config) -> tuple[int, bool]:
        q, total = self._statement
        for row in compress(q, config):
            total += sum(compress(row, config))
        return total, True

    def _optimistic_payload(self, prefix) -> int:
        # the prefix's value plus each free x_j's gain where positive, the lower of two roofs
        apart, free = self._shares[len(prefix)]
        loose = tight = QuadraticProblem._measure(self, prefix)[0]  # max-cut's needs all of x
        for row, up, down in free:
            gain = up + 2 * sum(compress(row, prefix))
            if gain > 0:  # else the second roof's gain, gain + down, is not positive either
                loose += gain
                if gain + down > 0:
                    tight += gain + down
        return min(loose, tight + apart)


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
