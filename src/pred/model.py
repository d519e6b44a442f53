"""Uniform problem interface: configuration spaces, aggregation, folding.

Every problem type exposes the same tiny surface: a finite configuration
space (one domain size per variable), a pure measure map from
configurations to raw ``(payload, feasible)`` pairs, and named size
measures. ``evaluate`` wraps one measure in an ``AggregatedValue`` of the
problem's kind; ``combine`` is the kind's aggregation law over such values.
Solving by brute force is a per-kind fold over the whole space in
lexicographic order that gives the same value and witness as folding
``combine`` over the feasible configurations' ``evaluate`` from the
identity: Max, Min and Extremum keep the first configuration of best
feasible payload, or give the identity (``Max(none)``, ``Extremum(none)``)
when nothing is feasible, Or stops at the first true configuration, Sum
adds, and And stops at the first false configuration. Every Or, Max, Min
and Extremum fold is one prefix walk (``_first_best``) that skips the
prefixes whose bound, the one hook ``Problem._optimistic_payload``, says
they hold no feasible configuration that beats the incumbent; a
``LinearProblem`` reads its measure and its bound off its rows. The
enumeration budget counts the full space for every kind; the QUBO solver
runs the same walk under a node budget instead. Everything else in the
library (reductions, routing, the ILP path) only ever talks to this
interface.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from enum import Enum
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    DomainError,
    DuplicateRegistrationError,
    KindError,
    Record,
    RegistrationError,
    UnknownProblemError,
)

if TYPE_CHECKING:
    from .symbolic import Expr

Configuration = tuple[int, ...]

# Enumeration cap for fold_space, the default brute-force budget.
DEFAULT_CONFIG_BUDGET = 1 << 20
# Node cap of the branch-and-bound ILP search in ``solvers``; defined here so
# the command line can show it without loading the solver.
DEFAULT_NODE_BUDGET = 10_000_000


class ValueKind(Enum):
    MAX = "Max"
    MIN = "Min"
    OR = "Or"
    SUM = "Sum"
    AND = "And"
    EXTREMUM = "Extremum"


SENSE_MAXIMIZE = "maximize"
SENSE_MINIMIZE = "minimize"


class AggregatedValue(Record):
    """Result of evaluating one configuration (or of folding a whole space).

    payload is the objective count / truth value; feasible records whether
    the configuration satisfies the instance's hard constraints (``evaluate``
    still reports the payload of an infeasible configuration). A fold takes
    only feasible configurations, so its value is feasible, or the kind's
    identity, payload None, when nothing is feasible. sense is set for
    EXTREMUM values only.
    """

    kind: ValueKind
    payload: int | bool | None
    feasible: bool
    sense: str | None

    def __init__(
        self,
        kind: ValueKind,
        payload: int | bool | None,
        feasible: bool = True,
        sense: str | None = None,
    ) -> None:
        if (sense is not None) != (kind is ValueKind.EXTREMUM):
            raise KindError("sense is set exactly for Extremum values")
        if sense not in (None, SENSE_MAXIMIZE, SENSE_MINIMIZE):
            raise KindError(f"bad sense {sense!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "sense", sense)

    def render(self) -> str:
        if self.payload is None:
            inner = "none"
        elif isinstance(self.payload, bool):
            inner = "true" if self.payload else "false"
        else:
            inner = str(self.payload)
        return f"{self.kind.value}({inner})"


def identity_value(kind: ValueKind, sense: str | None = None) -> AggregatedValue:
    """The combine-neutral element of a kind."""
    if kind in (ValueKind.MAX, ValueKind.MIN):
        return AggregatedValue(kind, None, feasible=False)
    if kind is ValueKind.EXTREMUM:
        if sense is None:
            raise KindError("Extremum identity needs a sense")
        return AggregatedValue(kind, None, feasible=False, sense=sense)
    if kind is ValueKind.OR:
        return AggregatedValue(kind, False)
    if kind is ValueKind.AND:
        return AggregatedValue(kind, True)
    return AggregatedValue(kind, 0)


def _sign(kind: ValueKind, sense: str | None) -> int:
    """+1 where a larger payload is better, -1 where a smaller one is."""
    return -1 if kind is ValueKind.MIN or sense == SENSE_MINIMIZE else 1


def _score(value: AggregatedValue) -> tuple:
    """Total order used by Max/Min/Extremum combines.

    Feasible beats infeasible, any payload beats the identity's None, and
    only then does the payload itself decide. Infeasible payloads therefore
    never win against feasible ones but still combine deterministically.
    """
    has_payload = value.payload is not None
    payload = _sign(value.kind, value.sense) * value.payload if has_payload else 0
    return (value.feasible, has_payload, payload)


def combine(a: AggregatedValue, b: AggregatedValue) -> AggregatedValue:
    if a.kind is not b.kind:
        raise KindError(f"cannot combine {a.kind.value} with {b.kind.value}")
    if a.kind is ValueKind.OR:
        return AggregatedValue(ValueKind.OR, bool(a.payload) or bool(b.payload))
    if a.kind is ValueKind.AND:
        return AggregatedValue(ValueKind.AND, bool(a.payload) and bool(b.payload))
    if a.kind is ValueKind.SUM:
        return AggregatedValue(ValueKind.SUM, (a.payload or 0) + (b.payload or 0))
    if a.kind is ValueKind.EXTREMUM and a.sense != b.sense:
        raise KindError(f"cannot combine Extremum senses {a.sense} and {b.sense}")
    return a if _score(a) >= _score(b) else b


class FoldResult(Record):
    value: AggregatedValue
    witness: Configuration | None


def reported_witness(value: AggregatedValue, witness: Configuration | None):
    """The witness shown with ``value``: an infeasible or false Or value has none."""
    if not value.feasible or (value.kind is ValueKind.OR and not value.payload):
        return None
    return witness


class Problem(ABC):
    """One concrete instance of a registered problem type."""

    kind: ValueKind
    type_name: str

    @property
    def variant_tags(self) -> dict[str, str]:
        return {}

    @property
    def sense(self) -> str | None:
        return None

    @abstractmethod
    def config_dims(self) -> tuple[int, ...]:
        """Domain size of each configuration variable, in index order."""

    @abstractmethod
    def size_measures(self) -> dict[str, int]:
        """Named instance sizes, matching the registered descriptor."""

    @abstractmethod
    def _measure(self, config: Configuration) -> tuple[int | bool, bool]:
        """Raw ``(payload, feasible)`` of an already-validated configuration.

        payload is the objective count, or the truth value for Or kinds; it
        is never None. feasible says whether the configuration meets the
        instance's hard constraints and is True for kinds without any. This
        is the brute-force fold's inner loop, so it builds no value objects.
        """

    def _optimistic_payload(self, prefix: Configuration) -> int | float | bool | None:
        """Best payload over the feasible completions of ``prefix``, or a bound on it.

        An upper bound for Max (and maximising Extremum) kinds, a lower one
        for Min (and minimising Extremum) kinds; None when no completion is
        feasible. For Or kinds, whether some completion may measure true:
        False only when none does (``DecisionProblem`` answers whether its
        inner problem's bound meets the threshold). The prefix walk
        (``_first_best``) asks only about nonempty prefixes shorter than a
        full configuration, and only after all their shorter nonempty
        prefixes passed, so an implementation may check only what the newest
        value decides. Every Or, Max, Min and Extremum fold is walked, and
        every shipped class bounds its prefixes (a ``LinearProblem`` by its
        rows); this default knows nothing and reports an unbounded payload
        (True for Or).
        """
        if self.kind is ValueKind.OR:
            return True
        return _sign(self.kind, self.sense) * float("inf")

    def evaluate(self, config: Sequence[int]) -> AggregatedValue:
        validate_config(self, config)
        payload, feasible = self._measure(tuple(config))
        return AggregatedValue(self.kind, payload, feasible, self.sense)

    def variant_key(self) -> "VariantKey":
        return make_key(self.type_name, self.variant_tags)

    def to_data(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.type_name} {self.size_measures()}>"


def rows_hold(rows, x: Sequence[int]) -> bool:
    """Whether the point ``x`` (or a prefix, for rows over its variables) meets every row."""
    for terms, rel, rhs in rows:
        lhs = 0
        for j, a in terms:  # a plain loop: rows are short, and a generator costs more
            lhs += a * x[j]
        if lhs > rhs if rel == "<=" else lhs < rhs if rel == ">=" else lhs != rhs:
            return False
    return True


class LinearProblem(Problem):
    """A problem stated once, by ``linear_statement``: its rows ``(terms, rel,
    rhs)``, ``terms`` the nonzero ``(index, coeff)`` pairs by increasing
    index, and its objective, over the values ``point(config)``. A
    configuration is feasible when every row holds. A prefix fails when a row
    its newest variable closes is violated, and is otherwise bounded by its
    objective plus every later variable at its better end.
    """

    @abstractmethod
    def linear_statement(self) -> tuple[tuple, tuple[int, ...]]:
        """The rows and the objective."""

    def point(self, config: Configuration) -> tuple[int, ...]:
        return config

    @cached_property
    def _statement(self) -> tuple[tuple, tuple[int, ...]]:
        return self.linear_statement()

    @cached_property
    def _closing(self) -> tuple[list[list], list[int]]:
        """The rows by their last variable, and what the objective can gain from each k on."""
        rows, objective = self._statement
        closing: list[list] = [[] for _ in objective]
        for row in rows:
            if row[0]:
                closing[row[0][-1][0]].append(row)
        dims = self.config_dims()
        ends = zip(self.point((0,) * len(dims)), self.point(tuple(d - 1 for d in dims)))
        sign = _sign(self.kind, self.sense)
        best = [sign * max(sign * c * lo, sign * c * hi) for c, (lo, hi) in zip(objective, ends)]
        return closing, list(itertools.accumulate(reversed(best), initial=0))[::-1]

    def _measure(self, config) -> tuple[int, bool]:
        rows, objective = self._statement
        x = self.point(config)
        return sum(map(mul, objective, x)), rows_hold(rows, x)

    def _optimistic_payload(self, prefix) -> int | None:
        closing, rest = self._closing
        x = self.point(prefix)
        if not rows_hold(closing[len(x) - 1], x):
            return None
        return sum(map(mul, self._statement[1], x)) + rest[len(x)]


def validate_config(instance: Problem, config: Sequence[int]) -> None:
    """Reject configurations of the wrong arity or outside variable domains."""
    dims = instance.config_dims()
    if len(config) != len(dims):
        raise DimensionMismatchError(
            f"{instance.type_name} expects {len(dims)} values, got {len(config)}"
        )
    for i, (value, dim) in enumerate(zip(config, dims)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"configuration value at index {i} is not an integer")
        if not 0 <= value < dim:
            raise DomainError(
                f"configuration value {value} at index {i} outside domain [0, {dim})"
            )


def evaluate(instance: Problem, config: Sequence[int]) -> AggregatedValue:
    """Total, pure evaluation of one configuration."""
    return instance.evaluate(config)


def fold_space(instance: Problem, max_configs: int = DEFAULT_CONFIG_BUDGET) -> FoldResult:
    """Fold the kind's combine law over the entire configuration space.

    The result equals folding ``combine`` over the ``evaluate`` of every
    feasible configuration in lexicographic order from the kind's identity,
    with the witness taken on strict improvements only: the first optimal
    configuration for Max, Min and Extremum, whose value is the identity,
    with no witness, when nothing is feasible; the first true one for Or;
    none for Sum and And. Sum measures every configuration and And stops
    at its first false one. Every Or, Max, Min and Extremum instance takes
    the pruned prefix walk (``_first_best``), which gives the same value and
    witness having measured fewer configurations. The budget always applies
    to the full space size. An instance with zero variables has exactly one,
    empty, configuration.
    """
    dims = instance.config_dims()
    total = 1
    for d in dims:
        total *= d
    if total > max_configs:
        raise BudgetExceededError(
            f"{total} configurations exceed the enumeration budget {max_configs}",
            limit=max_configs,
        )
    kind = instance.kind
    measure = instance._measure
    configs = itertools.product(*(range(d) for d in dims))
    if kind is ValueKind.AND:
        for config in configs:
            if not measure(config)[0]:
                return FoldResult(AggregatedValue(kind, False), None)
        return FoldResult(AggregatedValue(kind, True), None)
    if kind is ValueKind.SUM:
        return FoldResult(AggregatedValue(kind, sum(measure(c)[0] for c in configs)), None)
    return _first_best(instance)


def _first_best(instance: Problem, max_nodes: int | None = None) -> FoldResult:
    """The Or, Max, Min or Extremum fold of ``instance`` by a pruned prefix walk.

    An iterative depth-first walk in product order (no recursion, so any
    number of variables is fine): ``value`` is the next value to try at
    position ``len(prefix)``. Full configurations are measured, and the
    incumbent, the signed payload of a feasible one, moves only on a strict
    improvement. Every nonempty shorter prefix whose parent passed is first
    bounded by ``_optimistic_payload`` and skipped when its bound is None or
    cannot strictly beat the incumbent. A skipped prefix holds no feasible
    configuration that would have moved the incumbent, so the result is the
    plain fold's: the best feasible value with its lexicographically
    smallest witness, or the kind's identity with none when nothing is
    feasible. An Or walk starts from its identity, false, and stops at its
    first true configuration, which nothing beats. With ``max_nodes``, each
    prefix asked counts as one node, and asking one more than ``max_nodes``
    raises ``BudgetExceededError``, as the branch-and-bound search does.
    ``fold_space`` sends every instance of those four kinds here.
    """
    dims = instance.config_dims()
    optimistic, measure = instance._optimistic_payload, instance._measure
    kind = instance.kind
    sign = _sign(kind, instance.sense)
    last = len(dims) - 1
    nodes = 0
    best = 0 if kind is ValueKind.OR else None
    witness = None
    prefix: Configuration = ()
    value = 0
    while True:
        depth = len(prefix)
        if depth > last:
            payload, feasible = measure(prefix)
            if feasible and (best is None or sign * payload > best):
                best, witness = sign * payload, prefix
                if kind is ValueKind.OR:
                    break
        elif value < dims[depth]:
            child = prefix + (value,)
            value += 1
            if depth < last:
                nodes += 1
                if max_nodes is not None and nodes > max_nodes:
                    raise BudgetExceededError(
                        f"bounded search exceeded {max_nodes} nodes",
                        limit=max_nodes,
                        nodes=max_nodes,
                        incumbent=None if witness is None else sign * best,
                    )
                bound = optimistic(child)
                if bound is None or best is not None and sign * bound <= best:
                    continue
            prefix, value = child, 0
            continue
        if not prefix:
            break
        prefix, value = prefix[:-1], prefix[-1] + 1
    if witness is None:
        return FoldResult(identity_value(kind, instance.sense), None)
    payload = True if kind is ValueKind.OR else sign * best
    return FoldResult(AggregatedValue(kind, payload, True, instance.sense), witness)


class DecisionProblem(Problem):
    """Threshold wrapper turning an optimization problem into a decision one.

    A configuration answers true iff it is feasible for the inner problem and
    its payload meets the bound (>= for Max, <= for Min).
    """

    kind = ValueKind.OR

    def __init__(self, inner: Problem, bound: int):
        if inner.kind not in (ValueKind.MAX, ValueKind.MIN):
            raise KindError(f"cannot decision-wrap a {inner.kind.value} problem")
        self.inner = inner
        self.bound = bound
        self.type_name = "Decision" + inner.type_name

    @property
    def variant_tags(self) -> dict[str, str]:
        return self.inner.variant_tags

    def config_dims(self) -> tuple[int, ...]:
        return self.inner.config_dims()

    def size_measures(self) -> dict[str, int]:
        return self.inner.size_measures()

    def _meets(self, payload: int | float) -> bool:
        if self.inner.kind is ValueKind.MAX:
            return payload >= self.bound
        return payload <= self.bound

    def _measure(self, config: Configuration) -> tuple[bool, bool]:
        payload, feasible = self.inner._measure(config)
        return feasible and self._meets(payload), True

    def _optimistic_payload(self, prefix: Configuration) -> bool:
        best = self.inner._optimistic_payload(prefix)
        return best is not None and self._meets(best)

    def to_data(self) -> dict:
        data = self.inner.to_data()
        data["bound"] = self.bound
        return data

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DecisionProblem)
            and self.inner == other.inner
            and self.bound == other.bound
        )

    def __hash__(self) -> int:
        return hash((self.type_name, self.inner, self.bound))


def decision_wrap(inner: Problem, bound: int) -> DecisionProblem:
    return DecisionProblem(inner, bound)


# --- the type registry ------------------------------------------------------

VariantKey = tuple[str, tuple[tuple[str, str], ...]]


def make_key(name: str, tags: Mapping[str, str]) -> VariantKey:
    return (name, tuple(sorted(tags.items())))


class ProblemTypeDescriptor(Record):
    """One registered problem variant.

    ``complexity`` is declared as text (or as an ``Expr``) and kept that way
    until it is first read; that read parses it and checks it against the
    size measures, once. Only the commands that print it read it, so neither
    building the registry nor routing loads ``pred.symbolic``. Comparing,
    hashing and printing a descriptor use the declaration, so they parse
    nothing either.
    """

    name: str
    variant_tags: tuple[tuple[str, str], ...]
    size_measure_names: tuple[str, ...]
    complexity: Expr
    kind: ValueKind
    alias: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_declared_complexity", self.__dict__.pop("complexity"))

    def __getattr__(self, name: str):
        if name != "complexity" or "_declared_complexity" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        from .symbolic import parse_expr, vars_of

        expr = self._declared_complexity
        if isinstance(expr, str):
            expr = parse_expr(expr)
        stray = set(vars_of(expr)) - set(self.size_measure_names)
        if stray:
            raise RegistrationError(
                f"{self.name}: complexity uses unknown size measure(s) {sorted(stray)}"
            )
        object.__setattr__(self, "complexity", expr)
        return expr

    def _astuple(self) -> tuple:
        declared = self._declared_complexity
        return tuple(declared if f == "complexity" else getattr(self, f) for f in self._fields)

    @property
    def key(self) -> VariantKey:
        return (self.name, self.variant_tags)


class Registry:
    """All registered problem variants; built once at startup, then frozen."""

    def __init__(self) -> None:
        self._by_key: dict[VariantKey, ProblemTypeDescriptor] = {}
        self._default: dict[str, VariantKey] = {}
        self._aliases: dict[str, VariantKey] = {}
        self._frozen = False

    def register(self, descriptor: ProblemTypeDescriptor) -> None:
        if self._frozen:
            raise RegistrationError("registry is frozen")
        if descriptor.key in self._by_key:
            raise DuplicateRegistrationError(f"variant already registered: {descriptor.key}")
        self._by_key[descriptor.key] = descriptor
        self._default.setdefault(descriptor.name, descriptor.key)
        if descriptor.alias:
            if descriptor.alias in self._aliases:
                raise DuplicateRegistrationError(f"alias already registered: {descriptor.alias}")
            self._aliases[descriptor.alias] = descriptor.key

    def freeze(self) -> None:
        self._frozen = True

    def lookup(self, name: str, tags: Mapping[str, str] | None = None) -> ProblemTypeDescriptor:
        if tags is None and name.endswith("]") and "[" in name:
            name, tags = self._parse_display_name(name)
        if tags is not None:
            key = make_key(name, tags)
            if key not in self._by_key and name in self._aliases:
                key = make_key(self._aliases[name][0], tags)
            if key not in self._by_key:
                raise UnknownProblemError(f"unknown problem variant {name!r} with tags {dict(tags)}")
            return self._by_key[key]
        key = self._default.get(name) or self._aliases.get(name)
        if key is None:
            known = ", ".join(sorted(self._default))
            raise UnknownProblemError(f"unknown problem {name!r}; known: {known}")
        return self._by_key[key]

    def _parse_display_name(self, text: str) -> tuple[str, dict[str, str]]:
        """Invert display_name(): base name plus bracketed tag overrides."""
        base, bracket = text[:-1].split("[", 1)
        default_key = self._default.get(base) or self._aliases.get(base)
        if default_key is None:
            known = ", ".join(sorted(self._default))
            raise UnknownProblemError(f"unknown problem {base!r}; known: {known}")
        tags = dict(self._by_key[default_key].variant_tags)
        for piece in bracket.split(","):
            tag, eq, value = piece.partition("=")
            if not eq or not tag or not value:
                raise UnknownProblemError(f"malformed variant suffix in {text!r}")
            tags[tag] = value
        return default_key[0], tags

    def lookup_key(self, key: VariantKey) -> ProblemTypeDescriptor:
        if key not in self._by_key:
            raise UnknownProblemError(f"unknown problem variant {key}")
        return self._by_key[key]

    def variants(self) -> list[ProblemTypeDescriptor]:
        return [self._by_key[k] for k in sorted(self._by_key)]

    def display_name(self, key: VariantKey) -> str:
        name, tags = key
        if self._default.get(name) == key:
            return name
        default_tags = dict(self._by_key[self._default[name]].variant_tags)
        diff = [f"{k}={v}" for k, v in tags if default_tags.get(k) != v]
        return f"{name}[{','.join(diff)}]" if diff else name

    def short_name(self, key: VariantKey) -> str:
        descriptor = self._by_key[key]
        if descriptor.alias and self._aliases.get(descriptor.alias) == key:
            return descriptor.alias
        return self.display_name(key)
