"""Reduction rules: forward instance transforms plus inverse extraction.

Each rule carries a forward map (source instance to target instance plus a
self-contained, JSON-able extraction record) and declares one of two inverse
capabilities: a configuration extractor (target witness back to a source
witness) or a value extractor (target optimum back to a source optimum via an
affine correction). Overheads are non-constant polynomials with non-negative
coefficients bounding every target size measure by the source measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from .errors import (
    CapabilityError,
    ExtractionError,
    KindError,
    Record,
    RegistrationError,
    TypeMismatchError,
)
from .model import (
    AggregatedValue,
    Configuration,
    Problem,
    ProblemTypeDescriptor,
    Registry,
    ValueKind,
    validate_config,
)
from .problems import (
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
from .model import DecisionProblem

if TYPE_CHECKING:
    from .symbolic import OverheadMap

ForwardFn = Callable[[Problem], tuple[Problem, dict]]
ConfigExtractor = Callable[[Mapping, Configuration], Configuration]
ValueExtractor = Callable[[Mapping, AggregatedValue], AggregatedValue]


class ReductionRule(Record, eq=False):
    """One directed edge of the reduction graph.

    ``overhead`` maps each target size measure to an expression, declared as
    text (or as an ``Expr``), and stays as declared until it is first read;
    that read parses it and checks it against the rule's endpoints
    (``_parsed_overhead``), once. Only routing and the printing commands read
    it, so building the catalogue never loads ``pred.symbolic``.
    """

    name: str
    source: ProblemTypeDescriptor
    target: ProblemTypeDescriptor
    overhead: OverheadMap
    forward: ForwardFn
    config_extractor: ConfigExtractor | None = None
    value_extractor: ValueExtractor | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_declared_overhead", self.__dict__.pop("overhead"))

    def __getattr__(self, name: str):
        if name != "overhead" or "_declared_overhead" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        overhead = _parsed_overhead(self, self._declared_overhead)
        object.__setattr__(self, "overhead", overhead)
        return overhead

    @property
    def witness_capable(self) -> bool:
        return self.config_extractor is not None

    @property
    def value_capable(self) -> bool:
        return self.value_extractor is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReductionRule {self.name}>"


class ReductionOutcome(Record, eq=False):
    """Forward result: target instance plus replayable extraction data."""

    rule: ReductionRule
    target_instance: Problem
    extraction: dict


def apply(rule: ReductionRule, instance: Problem) -> ReductionOutcome:
    if instance.variant_key() != rule.source.key:
        raise TypeMismatchError(
            f"rule {rule.name} expects {rule.source.key}, got {instance.variant_key()}"
        )
    target, extraction = rule.forward(instance)
    if target.variant_key() != rule.target.key:
        raise TypeMismatchError(
            f"rule {rule.name} produced {target.variant_key()}, declared {rule.target.key}"
        )
    return ReductionOutcome(rule, target, extraction)


def extract_solution(outcome: ReductionOutcome, target_config: Configuration) -> Configuration:
    rule = outcome.rule
    if rule.config_extractor is None:
        raise CapabilityError(f"rule {rule.name} carries no configuration extractor")
    validate_config(outcome.target_instance, target_config)
    return rule.config_extractor(outcome.extraction, tuple(target_config))


def extract_value(outcome: ReductionOutcome, target_value: AggregatedValue) -> AggregatedValue:
    rule = outcome.rule
    if rule.value_extractor is None:
        raise CapabilityError(f"rule {rule.name} carries no value extractor")
    if target_value.kind is not rule.target.kind:
        raise KindError(
            f"rule {rule.name} maps {rule.target.kind.value} values, got {target_value.kind.value}"
        )
    return rule.value_extractor(outcome.extraction, target_value)


# --- inverse maps (pure functions of extraction data) -------------------------

def _extract_identity(data: Mapping, config: Configuration) -> Configuration:
    return tuple(config)


def _extract_complement(data: Mapping, config: Configuration) -> Configuration:
    return tuple(1 - c for c in config)


def _extract_prefix(data: Mapping, config: Configuration) -> Configuration:
    return tuple(config[: data["num_vars"]])


def _extract_assignment_from_vertices(data: Mapping, config: Configuration) -> Configuration:
    # conflict edges keep complementary literal vertices apart, so no clashes
    assignment = [0] * data["num_variables"]
    for index, chosen in enumerate(config):
        if chosen:
            literal = data["literals"][index]
            if literal > 0:
                assignment[literal - 1] = 1
    return tuple(assignment)


def _extract_coloring(data: Mapping, config: Configuration) -> Configuration:
    k = data["colors"]
    coloring = []
    for v in range(data["num_vertices"]):
        block = config[v * k : (v + 1) * k]
        color = next((c for c, bit in enumerate(block) if bit), 0)
        coloring.append(color)
    return tuple(coloring)


def _extract_affine_value(data: Mapping, value: AggregatedValue) -> AggregatedValue:
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


# --- forward maps ----------------------------------------------------------------

def _forward_sat_to_3sat(instance: Satisfiability) -> tuple[Problem, dict]:
    cnf = instance.cnf
    next_fresh = cnf.num_variables + 1
    clauses: list[tuple[int, ...]] = []
    for clause in cnf.clauses:
        if len(clause) <= 3:
            clauses.append(clause)
            continue
        lits = list(clause)
        fresh_count = len(lits) - 3
        first = next_fresh
        next_fresh += fresh_count
        clauses.append((lits[0], lits[1], first))
        for i in range(1, fresh_count):
            clauses.append((-(first + i - 1), lits[i + 1], first + i))
        clauses.append((-(first + fresh_count - 1), lits[-2], lits[-1]))
    target = ThreeSatisfiability(CnfData(next_fresh - 1, tuple(clauses)))
    return target, {"num_vars": cnf.num_variables}


def _forward_3sat_to_mis(instance: ThreeSatisfiability) -> tuple[Problem, dict]:
    cnf = instance.cnf
    literals = [lit for clause in cnf.clauses for lit in clause]
    edges: set[tuple[int, int]] = set()
    position = 0
    for clause in cnf.clauses:
        for a in range(len(clause)):
            for b in range(a + 1, len(clause)):
                edges.add((position + a, position + b))
        position += len(clause)
    for i in range(len(literals)):
        for j in range(i + 1, len(literals)):
            if literals[i] == -literals[j]:
                edges.add((i, j))
    graph = GraphData(len(literals), tuple(sorted(edges)))
    return IndependentSet(graph), {
        "num_variables": cnf.num_variables,
        "literals": literals,
    }


def _forward_mis_to_vc(instance: IndependentSet) -> tuple[Problem, dict]:
    return VertexCover(instance.graph), {"num_vertices": instance.graph.num_vertices}


def _forward_vc_to_mis(instance: VertexCover) -> tuple[Problem, dict]:
    return IndependentSet(instance.graph), {"num_vertices": instance.graph.num_vertices}


def _complement_graph(graph: GraphData) -> GraphData:
    present = set(graph.edges)
    edges = tuple(
        (u, v)
        for u in range(graph.num_vertices)
        for v in range(u + 1, graph.num_vertices)
        if (u, v) not in present
    )
    return GraphData(graph.num_vertices, edges)


def _forward_mis_to_clique(instance: IndependentSet) -> tuple[Problem, dict]:
    return Clique(_complement_graph(instance.graph)), {
        "num_vertices": instance.graph.num_vertices
    }


def _forward_clique_to_mis(instance: Clique) -> tuple[Problem, dict]:
    return IndependentSet(_complement_graph(instance.graph)), {
        "num_vertices": instance.graph.num_vertices
    }


def _edge_indicator(n: int, u: int, v: int) -> tuple[int, ...]:
    row = [0] * n
    row[u] = 1
    row[v] = 1
    return tuple(row)


def _forward_mis_to_ilp(instance: IndependentSet) -> tuple[Problem, dict]:
    g = instance.graph
    n = g.num_vertices
    constraints = tuple((_edge_indicator(n, u, v), "<=", 1) for u, v in g.edges)
    data = IlpData(n, ((0, 1),) * n, constraints, g.weights, "max")
    return Ilp(data), {"num_vars": n}


def _forward_vc_to_ilp(instance: VertexCover) -> tuple[Problem, dict]:
    g = instance.graph
    n = g.num_vertices
    constraints = tuple((_edge_indicator(n, u, v), ">=", 1) for u, v in g.edges)
    data = IlpData(n, ((0, 1),) * n, constraints, (1,) * n, "min")
    return Ilp(data), {"num_vars": n}


def _forward_setcover_to_ilp(instance: SetCover) -> tuple[Problem, dict]:
    sc = instance.data
    n = len(sc.sets)
    constraints = []
    for element in range(sc.num_elements):
        row = tuple(1 if element in s else 0 for s in sc.sets)
        constraints.append((row, ">=", 1))
    data = IlpData(n, ((0, 1),) * n, tuple(constraints), (1,) * n, "min")
    return Ilp(data), {"num_vars": n}


def _forward_domset_to_setcover(instance: DominatingSet) -> tuple[Problem, dict]:
    g = instance.graph
    sets = g.closed_neighborhoods
    return SetCover(SetCoverData(g.num_vertices, sets)), {"num_vars": g.num_vertices}


def _forward_maxcut_to_qubo(instance: MaxCut) -> tuple[Problem, dict]:
    g = instance.graph
    n = g.num_vertices
    q = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        q[u][u] += 1
        q[v][v] += 1
        q[u][v] -= 1
        q[v][u] -= 1
    return Qubo(QuboData(n, tuple(tuple(row) for row in q))), {"num_vertices": n}


def _forward_mis_to_qubo(instance: IndependentSet) -> tuple[Problem, dict]:
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


def _forward_qubo_to_ising(instance: Qubo) -> tuple[Problem, dict]:
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


def _forward_ising_to_qubo(instance: SpinGlass) -> tuple[Problem, dict]:
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


def _forward_coloring_to_sat(instance: GraphColoring) -> tuple[Problem, dict]:
    g = instance.graph
    k = instance.colors

    def var(v: int, c: int) -> int:
        return v * k + c + 1

    clauses: list[tuple[int, ...]] = []
    for v in range(g.num_vertices):
        clauses.append(tuple(var(v, c) for c in range(k)))
    for v in range(g.num_vertices):
        for c1 in range(k):
            for c2 in range(c1 + 1, k):
                clauses.append((-var(v, c1), -var(v, c2)))
    for u, v in g.edges:
        for c in range(k):
            clauses.append((-var(u, c), -var(v, c)))
    target = Satisfiability(CnfData(g.num_vertices * k, tuple(clauses)))
    return target, {"num_vertices": g.num_vertices, "colors": k}


def _forward_qubo_to_ilp(instance: Qubo) -> tuple[Problem, dict]:
    qd = instance.data
    n = qd.n
    total = n + n * n

    def y_index(i: int, k: int) -> int:
        return n + i * n + k

    constraints: list[tuple[tuple[int, ...], str, int]] = []
    objective = [0] * total
    for i in range(n):
        for k in range(n):
            y = y_index(i, k)
            objective[y] = qd.q[i][k]
            row = [0] * total
            row[y] = 1
            row[i] -= 1
            constraints.append((tuple(row), "<=", 0))  # y <= x_i
            row = [0] * total
            row[y] = 1
            row[k] -= 1
            constraints.append((tuple(row), "<=", 0))  # y <= x_k
            row = [0] * total
            row[i] += 1
            row[k] += 1
            row[y] = -1
            constraints.append((tuple(row), "<=", 1))  # y >= x_i + x_k - 1
    data = IlpData(total, ((0, 1),) * total, tuple(constraints), tuple(objective), "max")
    return Ilp(data), {"num_vars": n}


def _forward_decision_mis(instance: DecisionProblem) -> tuple[Problem, dict]:
    return instance.inner, {"num_vertices": instance.inner.graph.num_vertices}


def _forward_mis_unit_to_integer(instance: IndependentSet) -> tuple[Problem, dict]:
    g = instance.graph
    weighted = GraphData(g.num_vertices, g.edges, (1,) * g.num_vertices)
    return IndependentSet(weighted), {"scale": 1, "offset": 0}


# --- the shipped catalogue of rules ----------------------------------------------

UNIT = {"graph": "simple", "weight": "unit"}
INTEGER = {"graph": "simple", "weight": "integer"}


def _parsed_overhead(rule: ReductionRule, declared: Mapping) -> OverheadMap:
    """The rule's declared overhead, parsed and checked against its endpoints."""
    from .symbolic import is_polynomial, parse_expr, to_poly, vars_of

    expected = set(rule.target.size_measure_names)
    if set(declared) != expected:
        raise RegistrationError(
            f"rule {rule.name}: overhead covers {sorted(declared)}, "
            f"target measures are {sorted(expected)}"
        )
    source_measures = set(rule.source.size_measure_names)
    overhead = {}
    for measure, expr in declared.items():
        if isinstance(expr, str):
            expr = parse_expr(expr)
        if not is_polynomial(expr):
            raise RegistrationError(f"rule {rule.name}: overhead for {measure} is not polynomial")
        used = vars_of(expr)
        if not used:
            raise RegistrationError(
                f"rule {rule.name}: overhead for {measure} depends on no source measure"
            )
        stray = used - source_measures
        if stray:
            raise RegistrationError(
                f"rule {rule.name}: overhead for {measure} uses unknown measure(s) "
                f"{sorted(stray)}"
            )
        if any(coeff < 0 for coeff in to_poly(expr).values()):
            raise RegistrationError(
                f"rule {rule.name}: overhead for {measure} has a negative coefficient"
            )
        overhead[measure] = expr
    return overhead


def _check_inverse(rule: ReductionRule) -> None:
    if rule.config_extractor is None and rule.value_extractor is None:
        raise RegistrationError(f"rule {rule.name} declares no inverse capability")


def _validate_rule(rule: ReductionRule) -> None:
    """Every registration check on ``rule``; reading its overhead runs the overhead checks."""
    rule.overhead
    _check_inverse(rule)


def _rule(
    registry: Registry,
    source: tuple[str, Mapping[str, str] | None],
    target: tuple[str, Mapping[str, str] | None],
    overhead: Mapping[str, str],
    forward: ForwardFn,
    config_extractor: ConfigExtractor | None = None,
    value_extractor: ValueExtractor | None = None,
) -> ReductionRule:
    src = registry.lookup(*source)
    tgt = registry.lookup(*target)
    rule = ReductionRule(
        name=f"{registry.display_name(src.key)}->{registry.display_name(tgt.key)}",
        source=src,
        target=tgt,
        overhead=overhead,
        forward=forward,
        config_extractor=config_extractor,
        value_extractor=value_extractor,
    )
    # the overhead checks wait for the first read of rule.overhead
    _check_inverse(rule)
    return rule


def shipped_rules(registry: Registry) -> list[ReductionRule]:
    """Build the full edge catalogue against a registry.

    Each rule's inverse capability is checked here; its overhead is parsed
    and checked on first read (``ReductionRule``).
    """
    return [
        _rule(
            registry,
            ("Satisfiability", None),
            ("ThreeSatisfiability", None),
            {"n": "n + L", "m": "L", "L": "3*L"},
            _forward_sat_to_3sat,
            config_extractor=_extract_prefix,
        ),
        _rule(
            registry,
            ("ThreeSatisfiability", None),
            ("MaximumIndependentSet", UNIT),
            {"V": "L", "E": "L^2"},
            _forward_3sat_to_mis,
            config_extractor=_extract_assignment_from_vertices,
        ),
        _rule(
            registry,
            ("MaximumIndependentSet", UNIT),
            ("MinimumVertexCover", None),
            {"V": "V", "E": "E"},
            _forward_mis_to_vc,
            config_extractor=_extract_complement,
        ),
        _rule(
            registry,
            ("MinimumVertexCover", None),
            ("MaximumIndependentSet", UNIT),
            {"V": "V", "E": "E"},
            _forward_vc_to_mis,
            config_extractor=_extract_complement,
        ),
        _rule(
            registry,
            ("MaximumIndependentSet", UNIT),
            ("MaximumClique", None),
            {"V": "V", "E": "V^2"},
            _forward_mis_to_clique,
            config_extractor=_extract_identity,
        ),
        _rule(
            registry,
            ("MaximumClique", None),
            ("MaximumIndependentSet", UNIT),
            {"V": "V", "E": "V^2"},
            _forward_clique_to_mis,
            config_extractor=_extract_identity,
        ),
        _rule(
            registry,
            ("MaximumIndependentSet", UNIT),
            ("IntegerLinearProgram", None),
            {"n": "V", "c": "E"},
            _forward_mis_to_ilp,
            config_extractor=_extract_identity,
        ),
        _rule(
            registry,
            ("MaximumIndependentSet", INTEGER),
            ("IntegerLinearProgram", None),
            {"n": "V", "c": "E"},
            _forward_mis_to_ilp,
            config_extractor=_extract_identity,
        ),
        _rule(
            registry,
            ("MinimumVertexCover", None),
            ("IntegerLinearProgram", None),
            {"n": "V", "c": "E"},
            _forward_vc_to_ilp,
            config_extractor=_extract_identity,
        ),
        _rule(
            registry,
            ("MinimumSetCover", None),
            ("IntegerLinearProgram", None),
            {"n": "S", "c": "U"},
            _forward_setcover_to_ilp,
            config_extractor=_extract_identity,
        ),
        _rule(
            registry,
            ("MinimumDominatingSet", None),
            ("MinimumSetCover", None),
            {"S": "V", "U": "V"},
            _forward_domset_to_setcover,
            config_extractor=_extract_identity,
        ),
        _rule(
            registry,
            ("MaxCut", None),
            ("QUBO", None),
            {"n": "V"},
            _forward_maxcut_to_qubo,
            config_extractor=_extract_identity,
        ),
        _rule(
            registry,
            ("MaximumIndependentSet", UNIT),
            ("QUBO", None),
            {"n": "V"},
            _forward_mis_to_qubo,
            value_extractor=_extract_affine_value,
        ),
        _rule(
            registry,
            ("QUBO", None),
            ("SpinGlass", None),
            {"n": "n"},
            _forward_qubo_to_ising,
            value_extractor=_extract_affine_value,
        ),
        _rule(
            registry,
            ("SpinGlass", None),
            ("QUBO", None),
            {"n": "n"},
            _forward_ising_to_qubo,
            value_extractor=_extract_affine_value,
        ),
        _rule(
            registry,
            ("GraphColoring", None),
            ("Satisfiability", None),
            {"n": "V*k", "m": "V + E*k + V*k^2", "L": "V*k^2 + 2*E*k"},
            _forward_coloring_to_sat,
            config_extractor=_extract_coloring,
        ),
        _rule(
            registry,
            ("QUBO", None),
            ("IntegerLinearProgram", None),
            {"n": "n + n^2", "c": "3*n^2"},
            _forward_qubo_to_ilp,
            config_extractor=_extract_prefix,
        ),
        _rule(
            registry,
            ("DecisionMaximumIndependentSet", None),
            ("MaximumIndependentSet", UNIT),
            {"V": "V", "E": "E"},
            _forward_decision_mis,
            config_extractor=_extract_identity,
        ),
        _rule(
            registry,
            ("MaximumIndependentSet", UNIT),
            ("MaximumIndependentSet", INTEGER),
            {"V": "V", "E": "E"},
            _forward_mis_unit_to_integer,
            config_extractor=_extract_identity,
            value_extractor=_extract_affine_value,
        ),
    ]
