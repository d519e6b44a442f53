"""Seeded, stdlib-only input generators for the three benchmark workloads.

Every instance is a pred instance document (``{"problem", "data"}``) built
from plain lists, so the oracle and the checker read the same data the
program receives without importing pred.  The same seed gives the same
documents; each family draws from its own ``random.Random`` so changing one
family's size does not reshuffle the others.
"""

from __future__ import annotations

import random

WHY = {
    "cli-pipeline": (
        "Real pred processes piped create | reduce | solve, one stage at a time: "
        "interpreter start, import and graph build dominate, B&B and fold do almost nothing."
    ),
    "solve-mix": (
        "In-process pred.solve() over five seeded families that stress the exact ILP "
        "gateway and the brute-force fold in different ways, so tradeoffs between them show."
    ),
    "reduce-large": (
        "Large 3SAT and QUBO instances reduced to ILP and round-tripped through the JSON "
        "envelope: forward maps, envelope size and replay dominate, B&B is never called."
    ),
}

# solve-mix families.  Sizes keep one pass near seven seconds on a 2-core box,
# so five passes fit a 35-second run, while each family still spends almost
# all of its time in B&B or the fold.  MIS graphs are random 4-regular (edge
# density 4/27, close to G(n, 0.15)) and set systems are regular (every set
# has three elements, every element lies in three sets): on G(n, p) inputs the
# B&B time of one instance varied about twice as much from seed to seed.  The
# B&B time of one MIS instance still varies by about 30% (coefficient of
# variation) from seed to seed at n=28 to 32, so MIS uses many small graphs:
# sixteen at n=28 vary as a family about two thirds as much as eight at n=32.
SOLVE_MIX = {
    "mis": {"count": 16, "n": 28, "degree": 4},
    "setcover": {"count": 4, "sets": 24, "set_size": 3},
    "qubo": {"count": 8, "n": 9, "coeff": 5},
    # n=3, k=2 solves in about 700 B&B nodes; n=4, k=3 exhausts the budget
    # today on the GC -> SAT -> 3SAT -> MIS -> ILP route and counts as failed.
    # The budget instance always has 3 of its 6 possible edges: the time to
    # exhaust the budget grows with the edge count (0.9 s at 1 edge, 1.5 s at 6).
    "gc": {"count": 4, "n": 3, "colors": 2, "budget_n": 4, "budget_colors": 3},
    "decvc": {"count": 2, "n": 16, "density": 0.15},
}
GC_MAX_NODES = 50_000

# reduce-large: 3SAT clause counts (variables = clauses // 4) and QUBO sizes.
REDUCE_LARGE = {"3sat_clauses": (300, 1000), "qubo_n": (40,), "coeff": 5}

# cli-pipeline: canonical examples with a witness-capable route to ILP, the two
# without one, and small seeded instances entered through create's flags.
CLI_VIA_ILP = (
    "MIS",
    "MaximumIndependentSet[weight=integer]",
    "VC",
    "Clique",
    "DominatingSet",
    "SetCover",
    "MaxCut",
    "QUBO",
    "SAT",
    "3SAT",
    "GC",
    "ILP",
    "DecisionMIS",
)
CLI_DIRECT = ("Ising", "DecisionVC")
CLI_SEEDED = {"mis": 8, "vc": 8, "sat_vars": 4, "sat_clauses": 4, "gc": 3, "gc_colors": 2}
CLI_MIN_PIPELINES = 100


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def gnm_edges(rng: random.Random, n: int, density: float) -> list[list[int]]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [list(e) for e in sorted(rng.sample(pairs, round(density * len(pairs))))]


def regular_edges(rng: random.Random, n: int, degree: int) -> list[list[int]]:
    """Random simple degree-regular graph, paired one edge at a time (Steger and Wormald).

    Each step joins two random free stubs that give a new edge; a restart is
    needed only when the last stubs admit none.  The plain configuration
    model restarts on any loop or double edge, about forty times per graph at
    n=28, degree 4, which made the set-up time swing with the seed.
    """
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        edges: set[tuple[int, int]] = set()
        while stubs:
            for _ in range(100):
                a, b = rng.sample(stubs, 2)
                edge = (min(a, b), max(a, b))
                if a != b and edge not in edges:
                    break
            else:
                break
            edges.add(edge)
            stubs.remove(a)
            stubs.remove(b)
        if not stubs:
            return [list(e) for e in sorted(edges)]


def regular_sets(rng: random.Random, n: int, size: int) -> list[list[int]]:
    """n sets of ``size`` elements over n elements, every element in ``size`` sets.

    Sets are drawn one at a time from the free element stubs, as in
    ``regular_edges``.
    """
    while True:
        stubs = [e for e in range(n) for _ in range(size)]
        sets = []
        while stubs and len(set(stubs)) >= size:
            chosen: set[int] = set()
            while len(chosen) < size:
                chosen.add(rng.choice(stubs))
            for e in chosen:
                stubs.remove(e)
            sets.append(sorted(chosen))
        if not stubs:
            return sets


def gnp_edges(rng: random.Random, n: int, p: float) -> list[list[int]]:
    return [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def random_qubo(rng: random.Random, n: int, coeff: int) -> list[list[int]]:
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = rng.randint(-coeff, coeff)
        for j in range(i + 1, n):
            q[i][j] = q[j][i] = rng.randint(-coeff, coeff)
    return q


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> list[list[int]]:
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


def solve_mix(seed: int) -> list[dict]:
    """The fixed solve-mix list for this seed, as tagged instance documents."""
    cases = []

    def add(family, index, problem, data, **extra):
        cases.append(
            {"id": f"{family}-{index}", "family": family, "problem": problem, "data": data, **extra}
        )

    spec = SOLVE_MIX["mis"]
    rng = _rng(seed, "mis")
    for i in range(spec["count"]):
        edges = regular_edges(rng, spec["n"], spec["degree"])
        add("mis", i, "MaximumIndependentSet", {"num_vertices": spec["n"], "edges": edges})

    spec = SOLVE_MIX["setcover"]
    rng = _rng(seed, "setcover")
    for i in range(spec["count"]):
        sets = regular_sets(rng, spec["sets"], spec["set_size"])
        add("setcover", i, "MinimumSetCover", {"num_elements": spec["sets"], "sets": sets})

    spec = SOLVE_MIX["qubo"]
    rng = _rng(seed, "qubo")
    for i in range(spec["count"]):
        add("qubo", i, "QUBO", {"n": spec["n"], "q": random_qubo(rng, spec["n"], spec["coeff"])})

    spec = SOLVE_MIX["gc"]
    rng = _rng(seed, "gc")
    for i in range(spec["count"]):
        edges = gnp_edges(rng, spec["n"], 0.5)
        add(
            "gc", i, "GraphColoring",
            {"num_vertices": spec["n"], "edges": edges, "colors": spec["colors"]},
            max_nodes=GC_MAX_NODES,
        )
    edges = gnm_edges(rng, spec["budget_n"], 0.5)
    add(
        "gc", "budget", "GraphColoring",
        {"num_vertices": spec["budget_n"], "edges": edges, "colors": spec["budget_colors"]},
        max_nodes=GC_MAX_NODES,
        budget_may_exhaust=True,
    )

    spec = SOLVE_MIX["decvc"]
    rng = _rng(seed, "decvc")
    for i in range(spec["count"]):
        n = spec["n"]
        edges = gnm_edges(rng, n, spec["density"])
        bound = rng.randint(n // 2 - 3, n // 2)
        add(
            "decvc", i, "DecisionMinimumVertexCover",
            {"num_vertices": n, "edges": edges, "bound": bound},
        )
    return cases


def reduce_large(seed: int) -> list[dict]:
    """The reduce-large list for this seed, smallest first."""
    cases = []
    rng = _rng(seed, "3sat")
    for m in REDUCE_LARGE["3sat_clauses"]:
        n = m // 4
        cases.append({
            "id": f"3sat-{m}", "family": "3sat", "problem": "ThreeSatisfiability",
            "data": {"num_variables": n, "clauses": random_3cnf(rng, n, m)},
        })
    rng = _rng(seed, "qubo-large")
    for n in REDUCE_LARGE["qubo_n"]:
        cases.append({
            "id": f"qubo-{n}", "family": "qubo", "problem": "QUBO",
            "data": {"n": n, "q": random_qubo(rng, n, REDUCE_LARGE["coeff"])},
        })
    return cases


def _edge_flag(edges) -> str:
    return ",".join(f"{u}-{v}" for u, v in edges)


def cli_pipelines(seed: int) -> list[dict]:
    """One pass of the cli-pipeline mix: a list of stage argument lists.

    Fixed pipelines carry an ``expect`` key naming their entry in
    ``expected_cli.json``; seeded ones carry the plain instance for the checker.
    """
    pipes = [{
        "id": "readme",
        "stages": [
            ["create", "MIS", "--graph", "0-1,1-2,2-3"],
            ["reduce", "-", "--to", "ILP"],
            ["solve", "-", "--pretty"],
        ],
        "expect": "readme",
    }]
    for name in CLI_VIA_ILP:
        pipes.append({
            "id": f"example:{name}",
            "stages": [["create", name, "--example"], ["reduce", "-", "--to", "ILP"], ["solve", "-"]],
            "expect": name,
        })
    for name in CLI_DIRECT:
        pipes.append({
            "id": f"example:{name}",
            "stages": [["create", name, "--example"], ["solve", "-"]],
            "expect": name,
        })
    rng = _rng(seed, "cli")
    to_ilp = [["reduce", "-", "--to", "ILP"], ["solve", "-"]]
    n = CLI_SEEDED["mis"]
    edges = gnp_edges(rng, n, 0.3)
    pipes.append({
        "id": "seeded:MIS",
        "stages": [["create", "MIS", "--graph", _edge_flag(edges), "--vertices", str(n)], *to_ilp],
        "check": {"problem": "MaximumIndependentSet", "data": {"num_vertices": n, "edges": edges}},
    })
    n = CLI_SEEDED["vc"]
    edges = gnp_edges(rng, n, 0.3)
    pipes.append({
        "id": "seeded:VC",
        "stages": [["create", "VC", "--graph", _edge_flag(edges), "--vertices", str(n)], *to_ilp],
        "check": {"problem": "MinimumVertexCover", "data": {"num_vertices": n, "edges": edges}},
    })
    nv, nc = CLI_SEEDED["sat_vars"], CLI_SEEDED["sat_clauses"]
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nv + 1), rng.randint(1, 3))]
        for _ in range(nc)
    ]
    pipes.append({
        "id": "seeded:SAT",
        "stages": [
            # one token with '=', since a clause list may start with '-'
            ["create", "SAT", "--clauses=" + ";".join(",".join(map(str, c)) for c in clauses),
             "--variables", str(nv)],
            *to_ilp,
        ],
        "check": {"problem": "Satisfiability", "data": {"num_variables": nv, "clauses": clauses}},
    })
    n, k = CLI_SEEDED["gc"], CLI_SEEDED["gc_colors"]
    edges = gnp_edges(rng, n, 0.5)
    pipes.append({
        "id": "seeded:GC",
        "stages": [
            ["create", "GC", "--graph", _edge_flag(edges), "--vertices", str(n), "--colors", str(k)],
            *to_ilp,
        ],
        "check": {"problem": "GraphColoring",
                  "data": {"num_vertices": n, "edges": edges, "colors": k}},
    })
    return pipes


def sizes() -> dict:
    """Family sizes and budgets, recorded with every result."""
    return {
        "solve-mix": SOLVE_MIX,
        "gc_max_nodes": GC_MAX_NODES,
        "reduce-large": REDUCE_LARGE,
        "cli-pipeline": {
            "via_ilp": list(CLI_VIA_ILP),
            "direct": list(CLI_DIRECT),
            "seeded": CLI_SEEDED,
            "min_pipelines": CLI_MIN_PIPELINES,
        },
    }
