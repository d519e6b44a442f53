"""Independent brute-force oracles for every problem family.

Everything here works on plain Python data (edge lists, clause lists, nested
lists of ints) and enumerates with itertools. Nothing imports the package
under test, except ``reference_fold``, which restates the brute-force fold
through the package's public ``combine`` law; these are the reference answers
the test suite compares against.
"""

from __future__ import annotations

from itertools import product


def best_independent_set(num_vertices, edges, weights=None):
    """(max total weight, chosen subsets) over all independent sets."""
    weights = weights or [1] * num_vertices
    best = None
    winners = []
    for bits in product((0, 1), repeat=num_vertices):
        if any(bits[u] and bits[v] for u, v in edges):
            continue
        total = sum(w for w, b in zip(weights, bits) if b)
        if best is None or total > best:
            best, winners = total, [bits]
        elif total == best:
            winners.append(bits)
    return best, winners


def best_vertex_cover(num_vertices, edges):
    best = None
    winners = []
    for bits in product((0, 1), repeat=num_vertices):
        if any(not bits[u] and not bits[v] for u, v in edges):
            continue
        total = sum(bits)
        if best is None or total < best:
            best, winners = total, [bits]
        elif total == best:
            winners.append(bits)
    return best, winners


def best_clique(num_vertices, edges):
    adjacent = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    best = None
    winners = []
    for bits in product((0, 1), repeat=num_vertices):
        chosen = [v for v in range(num_vertices) if bits[v]]
        ok = all(
            (a, b) in adjacent for i, a in enumerate(chosen) for b in chosen[i + 1:]
        )
        if not ok:
            continue
        if best is None or len(chosen) > best:
            best, winners = len(chosen), [bits]
        elif len(chosen) == best:
            winners.append(bits)
    return best, winners


def best_dominating_set(num_vertices, edges):
    closed = [{v} for v in range(num_vertices)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    best = None
    winners = []
    for bits in product((0, 1), repeat=num_vertices):
        chosen = {v for v in range(num_vertices) if bits[v]}
        if any(not (closed[v] & chosen) for v in range(num_vertices)):
            continue
        total = sum(bits)
        if best is None or total < best:
            best, winners = total, [bits]
        elif total == best:
            winners.append(bits)
    return best, winners


def best_set_cover(num_elements, sets):
    universe = set(range(num_elements))
    best = None
    winners = []
    for bits in product((0, 1), repeat=len(sets)):
        covered = set()
        for chosen, members in zip(bits, sets):
            if chosen:
                covered.update(members)
        if covered != universe:
            continue
        total = sum(bits)
        if best is None or total < best:
            best, winners = total, [bits]
        elif total == best:
            winners.append(bits)
    return best, winners


def best_cut(num_vertices, edges):
    best = None
    winners = []
    for bits in product((0, 1), repeat=num_vertices):
        total = sum(1 for u, v in edges if bits[u] != bits[v])
        if best is None or total > best:
            best, winners = total, [bits]
        elif total == best:
            winners.append(bits)
    return best, winners


def qubo_value(q, bits):
    n = len(q)
    return sum(q[i][j] * bits[i] * bits[j] for i in range(n) for j in range(n))


def best_qubo(q):
    best = None
    winners = []
    for bits in product((0, 1), repeat=len(q)):
        total = qubo_value(q, bits)
        if best is None or total > best:
            best, winners = total, [bits]
        elif total == best:
            winners.append(bits)
    return best, winners


def ising_negated_energy(j, h, spins):
    n = len(h)
    pair = sum(j[a][b] * spins[a] * spins[b] for a in range(n) for b in range(a + 1, n))
    field = sum(h[a] * spins[a] for a in range(n))
    return -(pair + field)


def best_ising(j, h):
    """Maximize the negated energy over spin vectors in {-1,+1}^n."""
    best = None
    winners = []
    for spins in product((-1, 1), repeat=len(h)):
        total = ising_negated_energy(j, h, spins)
        if best is None or total > best:
            best, winners = total, [spins]
        elif total == best:
            winners.append(spins)
    return best, winners


def colorable(num_vertices, edges, colors):
    return any(
        all(paint[u] != paint[v] for u, v in edges)
        for paint in product(range(colors), repeat=num_vertices)
    )


def clause_satisfied(clause, assignment):
    # assignment maps 1-indexed variable -> bool
    return any(
        assignment[abs(lit)] == (lit > 0) for lit in clause
    )


def satisfiable(num_variables, clauses):
    for bits in product((False, True), repeat=num_variables):
        assignment = {i + 1: bits[i] for i in range(num_variables)}
        if all(clause_satisfied(c, assignment) for c in clauses):
            return True
    return False


def ilp_feasible(point, constraints):
    for coeffs, rel, rhs in constraints:
        lhs = sum(a * x for a, x in zip(coeffs, point))
        if rel == "<=" and not lhs <= rhs:
            return False
        if rel == ">=" and not lhs >= rhs:
            return False
        if rel == "=" and lhs != rhs:
            return False
    return True


def best_ilp(bounds, constraints, objective, sense):
    """(optimal value or None, optimal points) by full box enumeration."""
    axes = [range(lo, hi + 1) for lo, hi in bounds]
    best = None
    winners = []
    for point in product(*axes):
        if not ilp_feasible(point, constraints):
            continue
        value = sum(c * x for c, x in zip(objective, point))
        if best is None:
            best, winners = value, [point]
        elif (value > best) if sense == "max" else (value < best):
            best, winners = value, [point]
        elif value == best:
            winners.append(point)
    return best, winners


def propagate_bounds(lo, hi, constraints):
    """(lo, hi) after single-row bound propagation settles, or None if a row cannot hold.

    The naive form: sweep every row, read as ``<=`` rows (a ``>=`` row
    negated, an ``=`` row both ways), and bound each variable by what the row
    leaves it once every other term is at its least, until a whole sweep
    moves nothing.
    """
    lo, hi = list(lo), list(hi)
    rows = []
    for coeffs, rel, rhs in constraints:
        if rel in ("<=", "="):
            rows.append((list(coeffs), rhs))
        if rel in (">=", "="):
            rows.append(([-a for a in coeffs], -rhs))

    def least(a, j):
        return a * lo[j] if a > 0 else a * hi[j]

    moved = True
    while moved:
        moved = False
        for coeffs, rhs in rows:
            if sum(least(a, j) for j, a in enumerate(coeffs)) > rhs:
                return None
            for j, a in enumerate(coeffs):
                if a == 0:
                    continue
                room = rhs - sum(least(b, k) for k, b in enumerate(coeffs) if k != j)
                if a > 0 and room // a < hi[j]:
                    hi[j] = room // a
                    moved = True
                elif a < 0 and -(room // -a) > lo[j]:
                    lo[j] = -(room // -a)
                    moved = True
                if lo[j] > hi[j]:
                    return None
    return lo, hi


def reference_fold(instance):
    """(value, witness) of folding ``combine`` over ``evaluate`` across the space.

    The literal definition of the brute-force fold: start at the kind's
    identity and combine the value of every feasible configuration in
    lexicographic order, so that a Max, Min or Extremum instance with nothing
    feasible folds to its identity. The witness is taken on strict
    improvements only, of the ``_score`` order for Max, Min and Extremum, and
    on the first true value for Or; Sum and And have none.
    """
    from pred.fold import _score, combine
    from pred.model import ValueKind, evaluate, identity_value

    scored = instance.kind in (ValueKind.MAX, ValueKind.MIN, ValueKind.EXTREMUM)
    acc = identity_value(instance.kind, instance.sense)
    witness = None
    for config in product(*(range(d) for d in instance.config_dims())):
        value = evaluate(instance, config)
        if not value.feasible:
            continue
        if scored and _score(value) > _score(acc):
            witness = config
        elif instance.kind is ValueKind.OR and value.payload and not acc.payload:
            witness = config
        acc = combine(acc, value)
    return acc, witness


def lexicographic_ilp(bounds, constraints, objective, sense):
    """(optimal value, the lexicographically smallest optimal point) of an
    integer program by HiGHS (``scipy.optimize.milp``), or (None, None) when
    it is infeasible.

    The first solve finds the optimum v. With the row "objective = v" added,
    x_0, x_1, ... are then minimised and fixed in turn; a point an earlier
    solve returned that already sits at x_j's lower bound shows the minimum,
    so that solve is skipped. Every solve asks for a zero gap and has its
    status checked. The point is checked exactly against every row before
    it is returned.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(bounds)
    rows = [list(coeffs) for coeffs, _, _ in constraints]
    low = [-np.inf if rel == "<=" else rhs for _, rel, rhs in constraints]
    high = [np.inf if rel == ">=" else rhs for _, rel, rhs in constraints]
    lower = [lo for lo, _ in bounds]
    upper = [hi for _, hi in bounds]

    def run(c):
        outcome = milp(
            np.asarray(c, dtype=float),
            constraints=[LinearConstraint(np.asarray(rows, dtype=float), low, high)]
            if rows else [],
            integrality=np.ones(n),
            bounds=Bounds(lower, upper),
            options={"mip_rel_gap": 0},
        )
        if outcome.status == 2:
            return None
        if outcome.status != 0:
            raise RuntimeError(f"HiGHS status {outcome.status}: {outcome.message}")
        return [round(x) for x in outcome.x]

    sign = -1 if sense == "max" else 1
    point = run([sign * c for c in objective])
    if point is None:
        return None, None
    value = sum(c * x for c, x in zip(objective, point))
    rows.append(list(objective))
    low.append(value)
    high.append(value)
    for j in range(n):
        if point[j] != lower[j]:
            point = run([int(k == j) for k in range(n)])
            if point is None:
                raise RuntimeError("HiGHS lost the optimum face")
        lower[j] = upper[j] = point[j]
    assert all(lo <= x <= hi for x, (lo, hi) in zip(point, bounds))
    assert ilp_feasible(point, constraints)
    assert sum(c * x for c, x in zip(objective, point)) == value
    return value, tuple(point)
