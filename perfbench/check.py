"""The benchmark's own answer checker: plain instance data, no pred code.

``score`` evaluates a configuration against an instance document and returns
``(feasible, value)``; ``brute_optimum`` enumerates small instances; ``verdict``
compares one solve result with a reference optimum; ``ilp_size`` counts an ILP
document's variables, rows and nonzeros.
"""

from __future__ import annotations

import itertools

MAXIMIZE = {"MaximumIndependentSet", "QUBO"}
DECIDE = {"GraphColoring", "DecisionMinimumVertexCover", "Satisfiability", "ThreeSatisfiability"}


def _independent(edges, x) -> bool:
    return all(not (x[u] and x[v]) for u, v in edges)


def _covers(edges, x) -> bool:
    return all(x[u] or x[v] for u, v in edges)


def satisfied(clauses, x) -> bool:
    return all(any((lit > 0) == bool(x[abs(lit) - 1]) for lit in clause) for clause in clauses)


def score(doc: dict, x) -> tuple[bool, int | bool]:
    """Feasibility and objective (or truth value) of configuration ``x``."""
    problem, d = doc["problem"], doc["data"]
    x = list(x)
    if problem == "MaximumIndependentSet":
        weights = d.get("weights") or [1] * d["num_vertices"]
        return _independent(d["edges"], x), sum(w for w, xi in zip(weights, x) if xi)
    if problem == "MinimumVertexCover":
        return _covers(d["edges"], x), sum(x)
    if problem == "MinimumSetCover":
        covered = {e for s, xi in zip(d["sets"], x) if xi for e in s}
        return len(covered) == d["num_elements"], sum(x)
    if problem == "QUBO":
        q = d["q"]
        n = d["n"]
        return True, sum(q[i][j] for i in range(n) if x[i] for j in range(n) if x[j])
    if problem == "GraphColoring":
        ok = all(0 <= c < d["colors"] for c in x) and all(x[u] != x[v] for u, v in d["edges"])
        return True, ok
    if problem == "DecisionMinimumVertexCover":
        return True, _covers(d["edges"], x) and sum(x) <= d["bound"]
    if problem in ("Satisfiability", "ThreeSatisfiability"):
        return True, satisfied(d["clauses"], x)
    if problem == "IntegerLinearProgram":
        point = [lo + xi for (lo, _), xi in zip(d["bounds"], x)]
        nonzero = [(j, p) for j, p in enumerate(point) if p]
        ok = all(_row_holds(row, nonzero) for row in d["constraints"])
        return ok, sum(c * p for c, p in zip(d["objective"], point))
    raise ValueError(f"checker has no rule for {problem}")


def ilp_row(row: dict):
    """``(coeff, nonzeros)`` of one ILP document row; ``coeff(j)`` reads variable j's coefficient.

    This is the one place the benchmark reads the row format (pred writes a
    dense ``coeffs`` list today).  A document in another format raises here,
    which fails the operation instead of stopping the run.
    """
    coeffs = row["coeffs"]
    return coeffs.__getitem__, len(coeffs) - coeffs.count(0)


def ilp_size(data: dict) -> dict:
    """Variables, rows and nonzero coefficients of an ILP document's data."""
    rows = data["constraints"]
    return {
        "ilp_vars": data["num_vars"],
        "ilp_rows": len(rows),
        "ilp_nonzeros": sum(ilp_row(row)[1] for row in rows),
    }


def _row_holds(row: dict, nonzero) -> bool:
    coeff, _ = ilp_row(row)
    lhs, rel, rhs = sum(coeff(j) * p for j, p in nonzero), row["rel"], row["rhs"]
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def dims(doc: dict) -> list[int]:
    d = doc["data"]
    if doc["problem"] == "GraphColoring":
        return [d["colors"]] * d["num_vertices"]
    if doc["problem"] in ("Satisfiability", "ThreeSatisfiability"):
        return [2] * d["num_variables"]
    if doc["problem"] == "MinimumSetCover":
        return [2] * len(d["sets"])
    if doc["problem"] == "QUBO":
        return [2] * d["n"]
    return [2] * d["num_vertices"]


def brute_optimum(doc: dict):
    """Optimum value (or truth for decision problems) by enumeration."""
    problem = doc["problem"]
    best = None
    for x in itertools.product(*(range(k) for k in dims(doc))):
        feasible, value = score(doc, x)
        if problem in DECIDE:
            if value:
                return True
            best = False
        elif feasible and (
            best is None or (value > best if problem in MAXIMIZE else value < best)
        ):
            best = value
    return best


def verdict(doc: dict, reference, payload, witness) -> str | None:
    """None when the result agrees with ``reference``, else a reason."""
    problem = doc["problem"]
    if payload != reference:
        return f"value {payload!r} != reference {reference!r}"
    if problem in DECIDE:
        if not reference:
            return None if witness is None else "witness returned for a false instance"
        if witness is None:
            return "no witness for a true instance"
        ok = score(doc, witness)[1]
        return None if ok else "witness does not satisfy the instance"
    if witness is None:
        return "no witness"
    feasible, value = score(doc, witness)
    if not feasible:
        return "witness is infeasible"
    if value != reference:
        return f"witness scores {value}, reference {reference}"
    return None
