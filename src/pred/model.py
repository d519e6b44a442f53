"""Uniform problem interface: configuration spaces, aggregation, folding.

Every problem type exposes the same tiny surface: a finite configuration
space (one domain size per variable), a pure measure map from
configurations to raw ``(payload, feasible)`` pairs, and named size
measures. ``evaluate`` wraps one measure in an ``AggregatedValue`` of the
problem's kind; ``combine`` is the kind's aggregation law over such values.
Solving by brute force is a per-kind fold over the whole space in
lexicographic order that gives the same value and witness as folding
``combine`` over ``evaluate`` from the identity: Max, Min and Extremum keep
the first configuration of best ``(feasible, payload)`` score, Sum adds,
and Or and And stop at the first configuration that reaches their absorbing
value (true for Or, false for And). Everything else in the library
(reductions, routing, the ILP path) only ever talks to this interface.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from enum import Enum
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
    the configuration satisfies the instance's hard constraints (payloads of
    infeasible configurations are still reported). A payload of None only
    appears on fold identities and on all-infeasible folds. sense is set for
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


def _score(value: AggregatedValue) -> tuple:
    """Total order used by Max/Min/Extremum combines.

    Feasible beats infeasible, any payload beats the identity's None, and
    only then does the payload itself decide. Infeasible payloads therefore
    never win against feasible ones but still combine deterministically.
    """
    has_payload = value.payload is not None
    payload = value.payload if has_payload else 0
    if value.kind is ValueKind.MIN or (
        value.kind is ValueKind.EXTREMUM and value.sense == SENSE_MINIMIZE
    ):
        payload = -payload
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
    """The witness shown with ``value``: a false Or value has none."""
    if value.kind is ValueKind.OR and not value.payload:
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

    def _evaluate(self, config: Configuration) -> AggregatedValue:
        payload, feasible = self._measure(config)
        return AggregatedValue(self.kind, payload, feasible, self.sense)

    def evaluate(self, config: Sequence[int]) -> AggregatedValue:
        validate_config(self, config)
        return self._evaluate(tuple(config))

    def variant_key(self) -> "VariantKey":
        return make_key(self.type_name, self.variant_tags)

    def to_data(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.type_name} {self.size_measures()}>"


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

    The result equals folding ``combine`` over ``evaluate`` in lexicographic
    order from the kind's identity, with the witness taken on strict
    improvements only: the first optimal configuration for Max, Min and
    Extremum (none if no configuration is feasible), the first true one for
    Or, none for Sum and And. Or and And stop at their absorbing value, but
    the budget always applies to the full space size. An instance with zero
    variables has exactly one, empty, configuration.
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
    if kind is ValueKind.OR:
        for config in configs:
            if measure(config)[0]:
                return FoldResult(AggregatedValue(kind, True), config)
        return FoldResult(AggregatedValue(kind, False), None)
    if kind is ValueKind.AND:
        for config in configs:
            if not measure(config)[0]:
                return FoldResult(AggregatedValue(kind, False), None)
        return FoldResult(AggregatedValue(kind, True), None)
    if kind is ValueKind.SUM:
        return FoldResult(AggregatedValue(kind, sum(measure(c)[0] for c in configs)), None)
    # Max, Min, Extremum: the order _score defines, feasible first
    sense = instance.sense
    sign = -1 if kind is ValueKind.MIN or sense == SENSE_MINIMIZE else 1
    best_key = None
    for config in configs:
        payload, feasible = measure(config)
        key = (feasible, sign * payload)
        if best_key is None or key > best_key:
            best_key, best_payload, witness = key, payload, config
    if best_key is None:
        return FoldResult(identity_value(kind, sense), None)
    feasible = best_key[0]
    value = AggregatedValue(kind, best_payload, feasible, sense)
    return FoldResult(value, witness if feasible else None)


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

    def _measure(self, config: Configuration) -> tuple[bool, bool]:
        payload, feasible = self.inner._measure(config)
        if not feasible:
            return False, True
        if self.inner.kind is ValueKind.MAX:
            return payload >= self.bound, True
        return payload <= self.bound, True

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
    size measures, once. Only routing and the printing commands read it, so
    building the registry never loads ``pred.symbolic``.
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

    def names(self) -> list[str]:
        return sorted(self._default)

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

    def __contains__(self, key: VariantKey) -> bool:
        return key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)
