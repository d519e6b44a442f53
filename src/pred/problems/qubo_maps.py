"""The value-only forward maps into QUBO and the spin glass, and their
affine value extractor.

Independent set reaches QUBO by a penalty of 2 per edge, the spin glass
reaches it by its own statement, and QUBO the spin glass by x = (s + 1) / 2.
Each keeps only the optimum: the value extractor, shared with the
unit-to-integer weight rule, reads the source's optimum off the target's as
``(payload + offset) / scale``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..errors import ExtractionError
from ..model import AggregatedValue, ValueKind
from .qubo import IsingData, Qubo, QuboData, SpinGlass

if TYPE_CHECKING:
    from ..model import Problem
    from .graph import IndependentSet


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


def extract_affine_value(data: Mapping, value: AggregatedValue) -> AggregatedValue:
    # source payload = (target payload + offset) / scale, exactly
    if value.payload is None:
        return AggregatedValue(ValueKind.MAX, None, value.feasible)
    corrected = value.payload + data["offset"]
    scale = data["scale"]
    if corrected % scale:
        raise ExtractionError(
            f"corrected value {corrected} is not divisible by scale {scale}"
        )
    return AggregatedValue(ValueKind.MAX, corrected // scale, value.feasible)
