"""The reduction graph: routing, transitive chaining, and topology reports.

Paths are ranked by the cost of solving at the destination: the terminal
type's complexity bound with the path's composite overhead substituted in,
compared asymptotically after collapsing every size measure onto a single
scale symbol. Ties fall back to edge count, then rule names. The graph is
small, so routing enumerates all simple paths, which is exact regardless of
how node complexities vary along a path.
"""

from __future__ import annotations

from functools import lru_cache

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
from .symbolic import (
    Comparison,
    Expr,
    OverheadMap,
    Var,
    canonical,
    compare,
    compose,
    identity_overhead,
    subst,
    vars_of,
)

_SCALE = Var("t")


class ReductionPath(Record):
    """An ordered chain of endpoint-compatible rules with composed overhead."""

    source: VariantKey
    target: VariantKey
    steps: tuple[ReductionRule, ...]
    composite_overhead: OverheadMap
    estimated_cost: Expr

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
    """Immutable rule registry keyed by source variant."""

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
        return _chain(self.registry.lookup_key(source), self.registry.lookup_key(target), steps)

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


def _chain(
    source: ProblemTypeDescriptor,
    target: ProblemTypeDescriptor,
    steps: tuple[ReductionRule, ...],
) -> ReductionPath:
    """The path of endpoint-compatible ``steps``, with composed overhead and cost."""
    composite = identity_overhead(source.size_measure_names)
    for rule in steps:
        composite = compose(rule.overhead, composite)
    cost = canonical(subst(target.complexity, composite))
    return ReductionPath(source.key, target.key, tuple(steps), composite, cost)


def _single_scale(expr: Expr) -> Expr:
    return subst(expr, {name: _SCALE for name in vars_of(expr)})


def _cheaper(a: ReductionPath, b: ReductionPath) -> bool:
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
        path = _chain(path.source, path.target, (path,))
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
        extracted = evaluate(instance, extract_along(envelope, target_fold.witness))
    else:
        extracted = extract_value_along(envelope, target_fold.value)

    passed = _values_equal(extracted, source_fold.value)
    detail = "ok" if passed else f"mismatch: {source_fold.value.payload} != {extracted.payload}"
    return RoundTripReport(names, passed, source_fold.value, extracted, detail)


@lru_cache(maxsize=1)
def default_graph() -> ReductionGraph:
    registry = default_registry()
    return ReductionGraph(registry, shipped_rules(registry))
