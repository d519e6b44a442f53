"""The forward map of QUBO into ILP, the standard linearisation: one 0-1
variable per product x_i x_k, held to it by three rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .ilp import Ilp, IlpData

if TYPE_CHECKING:
    from ..model import Problem
    from .qubo import Qubo


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
