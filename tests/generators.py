"""Seeded random instance builders shared by the test modules.

Each builder returns both the package-level instance and the plain data the
oracles in oracles.py consume, so tests never trust the package's own
accessors for the reference computation.
"""

from __future__ import annotations

import random

from pred import (
    CnfData,
    Clique,
    DominatingSet,
    GraphColoring,
    GraphData,
    Ilp,
    IlpData,
    IndependentSet,
    IsingData,
    MaxCut,
    Qubo,
    QuboData,
    Satisfiability,
    SetCover,
    SetCoverData,
    SpinGlass,
    ThreeSatisfiability,
    VertexCover,
)


def random_graph(rng, max_vertices=8, min_vertices=2, weighted=False):
    n = rng.randint(min_vertices, max_vertices)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.45
    ]
    weights = tuple(rng.randint(1, 5) for _ in range(n)) if weighted else None
    return n, edges, weights


def gnp_edges(rng, n, p):
    """Edges of G(n, p): each pair of the n vertices joined with probability p."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)


def random_graph_data(rng, max_vertices=8, weighted=False):
    n, edges, weights = random_graph(rng, max_vertices, weighted=weighted)
    return GraphData(n, tuple(edges), weights), (n, edges, weights)


def random_mis(rng, max_vertices=8, weighted=False):
    data, plain = random_graph_data(rng, max_vertices, weighted)
    return IndependentSet(data), plain


def random_vc(rng, max_vertices=8):
    data, plain = random_graph_data(rng, max_vertices)
    return VertexCover(data), plain


def random_clique(rng, max_vertices=8):
    data, plain = random_graph_data(rng, max_vertices)
    return Clique(data), plain


def random_domset(rng, max_vertices=8):
    data, plain = random_graph_data(rng, max_vertices)
    return DominatingSet(data), plain


def random_maxcut(rng, max_vertices=5):
    # solve walks MaxCut at the QUBO node, on its matrix; kept small for the oracles' full space
    data, plain = random_graph_data(rng, max_vertices)
    return MaxCut(data), plain


def random_coloring(rng, max_vertices=3, colors=2):
    # kept tiny: the ILP route goes through a SAT encoding with V*k variables
    data, plain = random_graph_data(rng, max_vertices)
    return GraphColoring(data, colors), (*plain[:2], colors)


def random_cnf(rng, max_variables=4, max_clauses=4, max_width=None):
    n = rng.randint(1, max_variables)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, max_width or n)
        chosen = rng.sample(range(1, n + 1), min(width, n))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfData(n, tuple(clauses)), (n, clauses)


def random_sat(rng, max_variables=4, max_clauses=4):
    data, plain = random_cnf(rng, max_variables, max_clauses)
    return Satisfiability(data), plain


def random_3sat(rng, max_variables=4, max_clauses=4):
    data, plain = random_cnf(rng, max_variables, max_clauses, max_width=3)
    return ThreeSatisfiability(data), plain


def random_qubo(rng, max_n=5, min_n=1):
    n = rng.randint(min_n, max_n)
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = rng.randint(-3, 3)
        for j in range(i + 1, n):
            q[i][j] = q[j][i] = rng.randint(-3, 3)
    rows = tuple(tuple(row) for row in q)
    return Qubo(QuboData(n, rows)), [list(row) for row in rows]


def random_ising(rng, max_n=4):
    n = rng.randint(1, max_n)
    j = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            j[a][b] = j[b][a] = rng.randint(-3, 3)
    h = tuple(rng.randint(-3, 3) for _ in range(n))
    rows = tuple(tuple(row) for row in j)
    return SpinGlass(IsingData(n, rows, h)), ([list(r) for r in rows], list(h))


def random_set_cover(rng, max_sets=5, max_elements=6):
    num_elements = rng.randint(1, max_elements)
    sets = []
    for _ in range(rng.randint(1, max_sets - 1)):
        size = rng.randint(1, num_elements)
        sets.append(tuple(sorted(rng.sample(range(num_elements), size))))
    uncovered = set(range(num_elements)).difference(*sets)
    if uncovered:  # guarantee coverability without handing out a one-set cover
        sets.append(tuple(sorted(uncovered)))
    rng.shuffle(sets)
    sets = tuple(sets)
    return SetCover(SetCoverData(num_elements, sets)), (num_elements, [list(s) for s in sets])


def partition_set_cover(rng, num_elements=24, size=3, rounds=3):
    """SetCover of ``rounds`` random partitions of the universe into ``size``-sets.

    Each element lies in exactly ``rounds`` sets, and any one round is a cover.
    """
    sets = []
    for _ in range(rounds):
        order = rng.sample(range(num_elements), num_elements)
        sets.extend(tuple(sorted(order[i:i + size])) for i in range(0, num_elements, size))
    plain = (num_elements, [list(s) for s in sets])
    return SetCover(SetCoverData(num_elements, tuple(sets))), plain


def regular_set_cover(rng, num_elements=24, size=3):
    """SetCover of ``num_elements`` ``size``-sets over as many elements, each
    element in ``size`` sets: the element stubs are shuffled and cut into
    sets, again until no set repeats an element. Unlike
    ``partition_set_cover``, its sets need not fall into disjoint covers.
    """
    stubs = [e for e in range(num_elements) for _ in range(size)]
    while True:
        rng.shuffle(stubs)
        sets = [tuple(sorted(stubs[i:i + size])) for i in range(0, len(stubs), size)]
        if all(len(set(s)) == size for s in sets):
            plain = (num_elements, [list(s) for s in sets])
            return SetCover(SetCoverData(num_elements, tuple(sets))), plain


def dense_ilp(num_vars, bounds, rows, objective, sense) -> IlpData:
    """``IlpData`` from rows written densely as ``(coeffs, rel, rhs)``, one
    coefficient per variable, the form the oracles read."""
    sparse = tuple(
        (tuple((j, a) for j, a in enumerate(coeffs) if a), rel, rhs) for coeffs, rel, rhs in rows
    )
    return IlpData(num_vars, bounds, sparse, objective, sense)


def dense_rows(data: IlpData) -> list:
    """The constraints of ``data`` as dense ``(coeffs, rel, rhs)`` rows, read
    from its document."""
    return [(row["coeffs"], row["rel"], row["rhs"]) for row in Ilp(data).to_data()["constraints"]]


def random_ilp(rng, max_vars=6, max_constraints=5):
    n = rng.randint(1, max_vars)
    bounds = []
    for _ in range(n):
        lo = rng.randint(-3, 2)
        bounds.append((lo, lo + rng.randint(0, 4)))
    constraints = []
    for _ in range(rng.randint(0, max_constraints)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        rel = rng.choice(("<=", ">=", "="))
        rhs = rng.randint(-6, 6)
        constraints.append((coeffs, rel, rhs))
    objective = tuple(rng.randint(-4, 4) for _ in range(n))
    sense = rng.choice(("max", "min"))
    data = dense_ilp(n, tuple(bounds), constraints, objective, sense)
    plain = ([list(b) for b in bounds], [(list(c), r, b) for c, r, b in constraints],
             list(objective), sense)
    return Ilp(data), plain


def random_cardinality_ilp(rng, max_vars=10, max_constraints=6, min_vars=2):
    """A binary ILP of cardinality rows: every coefficient of a row is +1 or -1.

    Rows are packings with rhs 1 to 3, coverings needing two or more ones
    (as ``>=`` over +1 or ``<=`` over -1) and ``=`` rows; some variables are
    pre-fixed through ``(l, l)`` bounds and objective gains may be zero or
    negative.
    """
    n = rng.randint(min_vars, max_vars)
    bounds = []
    for _ in range(n):
        if rng.random() < 0.15:
            value = rng.randint(0, 1)
            bounds.append((value, value))
        else:
            bounds.append((0, 1))
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        members = rng.sample(range(n), rng.randint(2, n))
        coeffs = tuple(1 if j in members else 0 for j in range(n))
        kind = rng.choice(("pack", "cover", "="))
        if kind == "pack":
            constraints.append((coeffs, "<=", rng.randint(1, 3)))
        elif kind == "cover":
            need = rng.randint(2, len(members))
            if rng.random() < 0.5:
                constraints.append((coeffs, ">=", need))
            else:
                constraints.append((tuple(-a for a in coeffs), "<=", -need))
        else:
            constraints.append((coeffs, "=", rng.randint(1, len(members))))
    objective = tuple(rng.randint(-3, 3) for _ in range(n))
    sense = rng.choice(("max", "min"))
    data = dense_ilp(n, tuple(bounds), constraints, objective, sense)
    plain = ([list(b) for b in bounds], [(list(c), r, b) for c, r, b in constraints],
             list(objective), sense)
    return Ilp(data), plain


def random_conflict_ilp(rng, max_vars=12, min_vars=3):
    """A binary ILP whose cap-1 packing rows overlap in cliques.

    A cap-1 pair row joins each edge of G(n, 0.5), and a few cap-1 rows have
    three or four members; some covering rows need one or two ones, some
    variables are pre-fixed through ``(l, l)`` bounds, and the gains the
    search maximises (the objective, negated for ``min``) run from -3 to 5.
    """
    n = rng.randint(min_vars, max_vars)
    bounds = []
    for _ in range(n):
        if rng.random() < 0.1:
            value = rng.randint(0, 1)
            bounds.append((value, value))
        else:
            bounds.append((0, 1))

    def row(members):
        return tuple(1 if j in members else 0 for j in range(n))

    constraints = [(row(edge), "<=", 1) for edge in gnp_edges(rng, n, 0.5)]
    for _ in range(rng.randint(0, 3)):
        constraints.append((row(rng.sample(range(n), rng.randint(3, min(4, n)))), "<=", 1))
    for _ in range(rng.randint(0, 2)):
        members = rng.sample(range(n), rng.randint(2, n))
        constraints.append((row(members), ">=", rng.randint(1, 2)))
    sense = rng.choice(("max", "min"))
    sign = 1 if sense == "max" else -1
    objective = tuple(sign * rng.randint(-3, 5) for _ in range(n))
    data = dense_ilp(n, tuple(bounds), constraints, objective, sense)
    plain = ([list(b) for b in bounds], [(list(c), r, b) for c, r, b in constraints],
             list(objective), sense)
    return Ilp(data), plain


def clause_row(n, clause):
    """A clause of signed 1-based literals over distinct variables as its
    0-1 row: the positive literals' variables less the negative ones' sum to
    at least 1 less the number of negative literals."""
    coeffs = [0] * n
    for literal in clause:
        coeffs[abs(literal) - 1] = 1 if literal > 0 else -1
    return tuple(coeffs), ">=", 1 - sum(literal < 0 for literal in clause)


def random_clause_ilp(rng, max_vars=8, max_clauses=8, min_vars=2):
    """A binary ILP whose rows mix +1 and -1 coefficients.

    Rows are SAT clauses of one to three literals (``clause_row``), up to two
    rows of random +1/-1 terms as ``<=``, ``>=`` or ``=``, and up to two cap-1
    pairs, each a packing (at most one 1) or a covering (at least one 1).
    Some variables are pre-fixed through ``(l, l)`` bounds, and a third of
    the objectives are zero.
    """
    n = rng.randint(min_vars, max_vars)
    bounds = []
    for _ in range(n):
        if rng.random() < 0.15:
            value = rng.randint(0, 1)
            bounds.append((value, value))
        else:
            bounds.append((0, 1))
    constraints = []
    for _ in range(rng.randint(1, max_clauses)):
        members = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        constraints.append(clause_row(n, [rng.choice((1, -1)) * v for v in members]))
    for _ in range(rng.randint(0, 2)):
        members = rng.sample(range(n), rng.randint(2, n))
        coeffs = tuple(rng.choice((1, -1)) if j in members else 0 for j in range(n))
        low, high = -coeffs.count(-1), coeffs.count(1)
        constraints.append((coeffs, rng.choice(("<=", ">=", "=")), rng.randint(low, high)))
    for _ in range(rng.randint(0, 2)):
        pair = rng.sample(range(n), 2)
        coeffs = tuple(int(j in pair) for j in range(n))
        constraints.append((coeffs, rng.choice(("<=", ">=")), 1))
    if rng.random() < 1 / 3:
        objective = (0,) * n
    else:
        objective = tuple(rng.randint(-3, 3) for _ in range(n))
    sense = rng.choice(("max", "min"))
    data = dense_ilp(n, tuple(bounds), constraints, objective, sense)
    plain = ([list(b) for b in bounds], [(list(c), r, b) for c, r, b in constraints],
             list(objective), sense)
    return Ilp(data), plain


def make_rng(seed):
    return random.Random(seed)
