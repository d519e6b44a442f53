"""Reference optima for solve-mix from HiGHS (scipy.optimize.milp).

Runs in its own process, after the timed workload, and shares no code with
pred: each family has its own textbook MILP written here.  Prints one JSON
object mapping instance id to its optimum (decision families: truth value).

    python3 perfbench/oracle.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

import gen


def _solve(c, rows, lo, hi, n):
    """Minimise c.x over binary x subject to lo <= A x <= hi; None if infeasible."""
    constraints = []
    if rows:
        a = np.zeros((len(rows), n))
        for r, row in enumerate(rows):
            for j, v in row.items():
                a[r, j] += v
        constraints = [LinearConstraint(a, lo, hi)]
    res = milp(
        np.asarray(c, dtype=float), constraints=constraints,
        integrality=np.ones(n), bounds=Bounds(0, 1),
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return round(res.fun)


def _edge_rows(edges):
    return [{u: 1, v: 1} for u, v in edges]


def max_independent_set(d):
    n = d["num_vertices"]
    rows = _edge_rows(d["edges"])
    return -_solve([-1] * n, rows, [-np.inf] * len(rows), [1] * len(rows), n)


def min_vertex_cover(d):
    n = d["num_vertices"]
    rows = _edge_rows(d["edges"])
    return _solve([1] * n, rows, [1] * len(rows), [np.inf] * len(rows), n)


def min_set_cover(d):
    n = len(d["sets"])
    rows = [
        {j: 1 for j, s in enumerate(d["sets"]) if e in s} for e in range(d["num_elements"])
    ]
    return _solve([1] * n, rows, [1] * len(rows), [np.inf] * len(rows), n)


def qubo_max(d):
    # y_ij = x_i x_j for i < j only, linearised with the three McCormick rows
    n, q = d["n"], d["q"]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = n + len(pairs)
    c = [-q[i][i] for i in range(n)] + [-2 * q[i][j] for i, j in pairs]
    rows, lo, hi = [], [], []
    for k, (i, j) in enumerate(pairs):
        y = n + k
        rows += [{y: 1, i: -1}, {y: 1, j: -1}, {y: 1, i: -1, j: -1}]
        lo += [-np.inf, -np.inf, -1]
        hi += [0, 0, np.inf]
    return -_solve(c, rows, lo, hi, total)


def colorable(d):
    n, k = d["num_vertices"], d["colors"]
    rows, lo, hi = [], [], []
    for v in range(n):
        rows.append({v * k + c: 1 for c in range(k)})
        lo.append(1)
        hi.append(1)
    for u, v in d["edges"]:
        for c in range(k):
            rows.append({u * k + c: 1, v * k + c: 1})
            lo.append(-np.inf)
            hi.append(1)
    return _solve([0] * (n * k), rows, lo, hi, n * k) is not None


def decision_vertex_cover(d):
    return min_vertex_cover(d) <= d["bound"]


ORACLES = {
    "MaximumIndependentSet": max_independent_set,
    "MinimumSetCover": min_set_cover,
    "QUBO": qubo_max,
    "GraphColoring": colorable,
    "DecisionMinimumVertexCover": decision_vertex_cover,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    answers = {case["id"]: ORACLES[case["problem"]](case["data"]) for case in gen.solve_mix(args.seed)}
    print(json.dumps(answers, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
