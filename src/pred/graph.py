"""The reduction graph: routing, transitive chaining, and topology reports.

Paths are ranked by the cost of solving at the destination: the terminal
type's complexity bound with the path's composite overhead substituted in,
compared asymptotically after collapsing every size measure onto a single
scale symbol. Ties fall back to edge count, then rule names. The graph is
small, so routing enumerates all simple paths, which is exact regardless of
how node complexities vary along a path.

Building the graph reads no expression: a rule's overhead, a type's
complexity and a path's composite overhead and cost are each worked out the
first time they are read. The symbolic algebra that routing uses is bound in
this module only then (``_bind_symbolic``), so a process that builds paths
but never compares two of them or prints one (``solve`` on an envelope to
ILP, for instance) never loads ``pred.symbolic``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .errors import CapabilityError, DuplicateRegistrationError, Record, UnknownProblemError
from .model import (
    AggregatedValue,
    Configuration,
    DEFAULT_CONFIG_BUDGET,
    Problem,
    ProblemTypeDescriptor,
    Registry,
    VariantKey,
    evaluate,
    fold_space,
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

# Routing's algebra from pred.symbolic, bound as globals of this module on
# first use rather than at import; a profiler that replaces one of these names
# here sees every call routing makes.
_SYMBOLIC = (
    "Comparison", "Var", "canonical", "compare", "compose", "identity_overhead", "subst", "vars_of"
)


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


class ReductionEnvelope(Record):
    """A source instance carried through a path, with replayable extraction."""

    source_instance: Problem
    path: ReductionPath
    target_instance: Problem
    stack: tuple[ReductionOutcome, ...]


class RoundTripReport(Record):
    rule_names: tuple[str, ...]
    passed: bool
    source_optimum: AggregatedValue
    extracted_value: AggregatedValue | None
    detail: str


class ReductionGraph:
    """Immutable rule registry keyed by source variant.

    Since nothing changes after construction, each variant's solver route is
    searched once and then remembered.
    """

    def __init__(self, registry: Registry, rules: list[ReductionRule]) -> None:
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
        """Cost-minimal simple path, or None when the target is unreachable."""
        self.registry.lookup_key(source)
        self.registry.lookup_key(target)
        if source == target:
            return self.make_path(source, ())
        best: ReductionPath | None = None

        def visit(node: VariantKey, visited: set[VariantKey], steps: list[ReductionRule]) -> None:
            nonlocal best
            for rule in self._outgoing[node]:
                if require_witness and not rule.witness_capable:
                    continue
                nxt = rule.target.key
                if nxt in visited:
                    continue
                steps.append(rule)
                if nxt == target:
                    candidate = self.make_path(source, tuple(steps))
                    if best is None or _cheaper(candidate, best):
                        best = candidate
                else:
                    visited.add(nxt)
                    visit(nxt, visited, steps)
                    visited.remove(nxt)
                steps.pop()

        visit(source, {source}, [])
        return best

    def solver_route(self, key: VariantKey) -> ReductionPath | None:
        """How ``solve`` treats instances of ``key``: the cheapest witness-capable
        path to a solver node (a problem named in ``pred.solvers.SOLVERS``),
        whose solver then runs on the reduced instance, or None when only
        brute force applies. A solver node's route is the empty path, taken
        without a search, and routes to two nodes are compared only when both
        exist, so a route that needs no comparison never loads the algebra."""
        if key not in self._solver_routes:
            from .solvers import SOLVERS

            nodes = [self.registry.lookup(name).key for name in SOLVERS]
            if key in nodes:
                route = self.make_path(key, ())
            else:
                route = None
                for node in nodes:
                    candidate = self.find_path(key, node)
                    if candidate is not None and (route is None or _cheaper(candidate, route)):
                        route = candidate
            self._solver_routes[key] = route
        return self._solver_routes[key]

    def topology_report(self) -> dict:
        """Reachability sets over all edges, as JSON-able sorted name lists."""
        ilp_key = self.registry.lookup("IntegerLinearProgram").key
        sat3_key = self.registry.lookup("ThreeSatisfiability").key
        to_ilp = self._search(ilp_key, self._incoming, lambda r: r.source.key)
        from_3sat = self._search(sat3_key, self._outgoing, lambda r: r.target.key)
        isolated = [
            key
            for key in self._outgoing
            if not self._outgoing[key] and not self._incoming[key]
        ]
        name = self.registry.display_name
        return {
            "reachable_to_ilp": sorted(name(k) for k in to_ilp),
            "reachable_from_3sat": sorted(name(k) for k in from_3sat),
            "isolated": sorted(name(k) for k in isolated),
        }

    def _search(self, start: VariantKey, adjacency, step_end) -> set[VariantKey]:
        # strict reachability: the start node counts only if a cycle returns to it
        reached: set[VariantKey] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for rule in adjacency[node]:
                end = step_end(rule)
                if end not in reached:
                    reached.add(end)
                    frontier.append(end)
        return reached


def _single_scale(expr: Expr) -> Expr:
    scale = Var("t")
    return subst(expr, {name: scale for name in vars_of(expr)})


def _cheaper(a: ReductionPath, b: ReductionPath) -> bool:
    _bind_symbolic()
    verdict = compare(_single_scale(a.estimated_cost), _single_scale(b.estimated_cost))
    if verdict is Comparison.LOWER_GROWTH:
        return True
    if verdict is Comparison.HIGHER_GROWTH:
        return False
    return (len(a.steps), a.rule_names()) < (len(b.steps), b.rule_names())


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
    envelope: ReductionEnvelope, target_witness: Configuration
) -> tuple[AggregatedValue, Configuration | None]:
    """The source's value and reported witness for a witness of the envelope's target."""
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


def _values_equal(a: AggregatedValue, b: AggregatedValue) -> bool:
    return a.feasible == b.feasible and a.payload == b.payload


def round_trip_check(
    rule_or_path: ReductionRule | ReductionPath,
    instance: Problem,
    max_configs: int = DEFAULT_CONFIG_BUDGET,
) -> RoundTripReport:
    """Brute-force both endpoints of a reduction and compare via extraction."""
    path = rule_or_path
    if isinstance(path, ReductionRule):
        path = ReductionPath(path.source, path.target, (path,))
    names = path.rule_names()
    if not (path.witness_capable or all(rule.value_capable for rule in path.steps)):
        raise CapabilityError(
            f"path {' / '.join(names)} is neither witness- nor value-extractable end to end"
        )
    envelope = reduce_along(path, instance)
    source_fold = fold_space(instance, max_configs)
    target_fold = fold_space(envelope.target_instance, max_configs)

    if path.witness_capable:
        if target_fold.witness is None:
            passed = source_fold.witness is None
            detail = (
                "ok (no witness on either side)"
                if passed
                else f"target produced no witness but source optimum is {source_fold.value.render()}"
            )
            return RoundTripReport(names, passed, source_fold.value, None, detail)
        extracted, _ = solution_along(envelope, target_fold.witness)
    else:
        extracted = extract_value_along(envelope, target_fold.value)

    passed = _values_equal(extracted, source_fold.value)
    detail = "ok" if passed else f"mismatch: {source_fold.value.payload} != {extracted.payload}"
    return RoundTripReport(names, passed, source_fold.value, extracted, detail)


@lru_cache(maxsize=1)
def default_graph() -> ReductionGraph:
    registry = default_registry()
    return ReductionGraph(registry, shipped_rules(registry))
