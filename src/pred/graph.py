"""The reduction graph: routing, and carrying instances and answers along a route.

One cost rule ranks routes: the fewest steps, then the smallest tuple of
rule names. Routing is one breadth-first search that visits each node's
outgoing rules in name order, so the first route to reach a node is the
smallest of its fewest-step routes, and that route stays the smallest when
it is extended by one rule. The search therefore settles each node once,
and a search towards a set of nodes stops at the first one it settles.

Routing reads no expression. A rule's overhead, a type's complexity and a
path's composite overhead and estimated cost are each worked out the first
time they are read, and only a command that prints one (``path``, ``show``,
``list``, ``reduce --path``) loads ``pred.symbolic``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import DuplicateRegistrationError, Record, UnknownProblemError
from .model import (
    AggregatedValue,
    Configuration,
    Problem,
    ProblemTypeDescriptor,
    Registry,
    VariantKey,
    evaluate,
    reported_witness,
)
from .problems import default_registry
from .rules import (
    ReductionOutcome,
    ReductionRule,
    apply,
    extract_solution,
    extract_value,
    shipped_rules,
)

if TYPE_CHECKING:
    from .symbolic import Expr, OverheadMap

# The algebra from pred.symbolic that a path's composite overhead and cost
# need, bound as globals of this module on first use rather than at import.
# ``compare`` and ``vars_of`` are not used here. They stay resolvable because
# the benchmark's tracer (perfbench/spans.py) times the algebra by replacing
# compose, canonical, subst, compare and vars_of in this module, and reads
# each of the five first.
_SYMBOLIC = ("canonical", "compare", "compose", "identity_overhead", "subst", "vars_of")


def _bind_symbolic() -> None:
    from . import symbolic

    for name in _SYMBOLIC:
        # setdefault: a name already bound (or replaced by a caller) stays as it is
        globals().setdefault(name, getattr(symbolic, name))


def __getattr__(name: str):
    if name in _SYMBOLIC:
        _bind_symbolic()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ReductionPath(Record):
    """An ordered chain of endpoint-compatible rules from ``source_type`` to
    ``target_type``; the composed overhead and the estimated cost are derived
    on first read."""

    source_type: ProblemTypeDescriptor
    target_type: ProblemTypeDescriptor
    steps: tuple[ReductionRule, ...]

    @property
    def source(self) -> VariantKey:
        return self.source_type.key

    @property
    def target(self) -> VariantKey:
        return self.target_type.key

    @cached_property
    def composite_overhead(self) -> OverheadMap:
        _bind_symbolic()
        composite = identity_overhead(self.source_type.size_measure_names)
        for rule in self.steps:
            composite = compose(rule.overhead, composite)
        return composite

    @cached_property
    def estimated_cost(self) -> Expr:
        _bind_symbolic()
        return canonical(subst(self.target_type.complexity, self.composite_overhead))

    @property
    def witness_capable(self) -> bool:
        return all(step.witness_capable for step in self.steps)

    def rule_names(self) -> tuple[str, ...]:
        return tuple(step.name for step in self.steps)


class Solver(Record):
    """A solver node: its problem, its label, and ``run(instance, max_nodes)``,
    which returns the instance's ``value`` and ``witness``, charging its
    search against the node budget."""

    problem: str
    label: str
    run: Callable


class ReductionEnvelope(Record):
    """A source instance carried through a path, with replayable extraction."""

    source_instance: Problem
    path: ReductionPath
    target_instance: Problem
    stack: tuple[ReductionOutcome, ...]


class ReductionGraph:
    """Immutable rule registry keyed by source variant, with its solver nodes
    (``solvers``, a read-only mapping by variant key).

    Since nothing changes after construction, each variant's solver route is
    searched once and then remembered.
    """

    def __init__(self, registry: Registry, rules: list[ReductionRule], solvers: Iterable[Solver]):
        self.registry = registry
        self.rules = tuple(rules)
        self._by_name: dict[str, ReductionRule] = {}
        self._outgoing: dict[VariantKey, list[ReductionRule]] = {
            key: [] for key in (d.key for d in registry.variants())
        }
        self._incoming: dict[VariantKey, list[ReductionRule]] = {
            key: [] for key in self._outgoing
        }
        seen: set[tuple[VariantKey, VariantKey]] = set()
        for rule in self.rules:
            registry.lookup_key(rule.source.key)
            registry.lookup_key(rule.target.key)
            pair = (rule.source.key, rule.target.key)
            if pair in seen:
                raise DuplicateRegistrationError(f"duplicate edge {rule.name}")
            seen.add(pair)
            self._by_name[rule.name] = rule
            self._outgoing[rule.source.key].append(rule)
            self._incoming[rule.target.key].append(rule)
        for bucket in (*self._outgoing.values(), *self._incoming.values()):
            bucket.sort(key=lambda r: r.name)
        nodes: dict[VariantKey, Solver] = {}
        for solver in solvers:
            node = registry.lookup(solver.problem).key
            if node in nodes:
                raise DuplicateRegistrationError(f"duplicate solver at {solver.problem}")
            nodes[node] = solver
        self.solvers = MappingProxyType(nodes)
        self._solver_routes: dict[VariantKey, ReductionPath | None] = {}

    def outgoing(self, key: VariantKey) -> tuple[ReductionRule, ...]:
        return tuple(self._outgoing[key])

    def incoming(self, key: VariantKey) -> tuple[ReductionRule, ...]:
        return tuple(self._incoming[key])

    def rule_named(self, name: str) -> ReductionRule | None:
        return self._by_name.get(name)

    def make_path(self, source: VariantKey, steps: tuple[ReductionRule, ...]) -> ReductionPath:
        for step, following in zip(steps, steps[1:]):
            if step.target.key != following.source.key:
                raise UnknownProblemError(
                    f"steps {step.name} and {following.name} are not endpoint-compatible"
                )
        if steps and steps[0].source.key != source:
            raise UnknownProblemError(f"path does not start at {source}")
        target = steps[-1].target.key if steps else source
        return ReductionPath(
            self.registry.lookup_key(source), self.registry.lookup_key(target), steps
        )

    def find_path(
        self,
        source: VariantKey,
        target: VariantKey,
        require_witness: bool = True,
    ) -> ReductionPath | None:
        """The route with the fewest steps, then the smallest rule names, or
        None when the target is unreachable."""
        self.registry.lookup_key(target)
        return self._route(source, {target}, require_witness)

    def solver_route(self, key: VariantKey) -> ReductionPath | None:
        """How ``solve`` treats instances of ``key``: the route, by the same
        rule as ``find_path``, along witness-capable rules to the nearest
        solver node (one of ``solvers``), whose solver then runs on the
        reduced instance, or None when only brute force applies. A solver
        node's route is the empty path."""
        if key not in self._solver_routes:
            self._solver_routes[key] = self._route(key, set(self.solvers), require_witness=True)
        return self._solver_routes[key]

    def _route(
        self, source: VariantKey, targets: set[VariantKey], require_witness: bool
    ) -> ReductionPath | None:
        # Breadth-first, each node's rules in name order: nodes leave the queue
        # in the order of their routes, (steps, rule names), so the first
        # target to leave it has the route the cost rule picks.
        self.registry.lookup_key(source)
        routes: dict[VariantKey, tuple[ReductionRule, ...]] = {source: ()}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if node in targets:
                return self.make_path(source, routes[node])
            for rule in self._outgoing[node]:
                end = rule.target.key
                if end not in routes and (rule.witness_capable or not require_witness):
                    routes[end] = routes[node] + (rule,)
                    queue.append(end)
        return None


def reduce_along(path: ReductionPath, instance: Problem) -> ReductionEnvelope:
    if instance.variant_key() != path.source:
        raise UnknownProblemError(
            f"instance is {instance.variant_key()}, path starts at {path.source}"
        )
    outcomes: list[ReductionOutcome] = []
    current = instance
    for index, rule in enumerate(path.steps):
        try:
            outcome = apply(rule, current)
        except Exception as exc:
            # prefix the message in place: the class and its attributes stay intact
            exc.args = (f"step {index} ({rule.name}): {exc}",)
            raise
        outcomes.append(outcome)
        current = outcome.target_instance
    return ReductionEnvelope(instance, path, current, tuple(outcomes))


def extract_along(envelope: ReductionEnvelope, target_config: Configuration) -> Configuration:
    config = tuple(target_config)
    for outcome in reversed(envelope.stack):
        config = extract_solution(outcome, config)
    return config


def solution_along(
    envelope: ReductionEnvelope,
    target_value: AggregatedValue,
    target_witness: Configuration | None,
) -> tuple[AggregatedValue, Configuration | None]:
    """The source's value and reported witness for an answer at the envelope's
    target: a witness is mapped back and evaluated at the source, and an
    answer with no witness keeps its value."""
    if target_witness is None:
        return target_value, None
    config = extract_along(envelope, target_witness)
    value = evaluate(envelope.source_instance, config)
    return value, reported_witness(value, config)


def extract_value_along(
    envelope: ReductionEnvelope, target_value: AggregatedValue
) -> AggregatedValue:
    value = target_value
    for outcome in reversed(envelope.stack):
        value = extract_value(outcome, value)
    return value


def _run_ilp(ilp: Problem, max_nodes: int):
    # read off the module at call time, where perfbench/spans.py's tracer replaces it
    from . import solvers

    return solvers.solve_ilp(ilp.data, max_nodes)


def _walk_qubo(qubo: Problem, max_nodes: int):
    from .fold import first_best

    return first_best(qubo, max_nodes)


@lru_cache(maxsize=1)
def default_graph() -> ReductionGraph:
    """The shipped rules and solver nodes: ILP's exact branch and bound
    (``pred.kernel``) and QUBO's pruned prefix walk (``pred.fold``), each
    module loaded by the run's first call, so building the graph loads neither."""
    registry = default_registry()
    solvers = (Solver("IntegerLinearProgram", "ilp", _run_ilp), Solver("QUBO", "qubo", _walk_qubo))
    return ReductionGraph(registry, shipped_rules(registry), solvers)
