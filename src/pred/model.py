"""Uniform problem interface: configuration spaces, evaluation, the registry.

Every problem type exposes the same tiny surface: a finite configuration
space (one domain size per variable), a pure measure map from
configurations to raw ``(payload, feasible)`` pairs, and named size
measures. ``evaluate`` wraps one measure in an ``AggregatedValue`` of the
problem's kind. Solving by brute force (``fold_space``) folds the kind's
aggregation law over the whole space; the fold and the law, ``combine``,
live in ``pred.fold``, which loads on the first fold, so a command that
folds nothing never compiles them. Its prefix walk skips the prefixes whose
bound, the one hook ``Problem._optimistic_payload``, says they hold no
feasible configuration that beats the incumbent; a ``LinearProblem`` reads
its measure and bound off its rows. The rest of the library (reductions,
routing, the ILP path) uses only this.

Every stage loads this module, so what few stages run lives elsewhere and
is still importable from here: the problems stated by a matrix
(``QuadraticProblem``, ``pred.problems.qubo``), the decision wrapper
(``DecisionProblem`` and ``decision_wrap``, ``pred.problems.decision``),
and the kinds' identities (``identity_value``, ``pred.fold``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from functools import cached_property
from importlib import import_module
from operator import mul
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    DomainError,
    DuplicateRegistrationError,
    KindError,
    Record,
    UnknownProblemError,
)

if TYPE_CHECKING:
    from .fold import FoldResult
    from .symbolic import Expr

Configuration = tuple[int, ...]

# The names that live in a module of their own, still importable from here:
# a stage that never builds a decision or quadratic problem, or folds
# nothing, compiles none of them.
_MOVED = {
    "DecisionProblem": "problems.decision",
    "decision_wrap": "problems.decision",
    "QuadraticProblem": "problems.qubo",
    "identity_value": "fold",
}


def __getattr__(name: str):
    if name in _MOVED:
        return getattr(import_module(f"{__package__}.{_MOVED[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Node cap of every search: the branch-and-bound ILP search (``pred.kernel``)
# and the prefix walk of the QUBO node and of brute force (``pred.fold``);
# defined here so the command line can show it without loading either.
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

    def num_variables(self) -> int:
        """``len(config_dims())``, which a family whose count is a document
        field reads off that field, so that a huge count builds nothing."""
        return len(self.config_dims())

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
        (``pred.fold.first_best``) asks only about nonempty prefixes shorter
        than a full configuration, and only after all their shorter nonempty
        prefixes passed, so an implementation may check only what the newest
        value decides. Every Or, Max, Min and Extremum fold is walked, and
        every shipped class bounds its prefixes (a ``LinearProblem`` by its
        rows, a ``QuadraticProblem`` by its matrix); this default knows
        nothing and reports an unbounded payload (True for Or).
        """
        if self.kind is ValueKind.OR:
            return True
        from .fold import _sign  # only a walk asks

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
    configuration is feasible when every row holds, or true for an Or kind.
    A prefix fails when a row its newest variable closes is violated, and
    is otherwise bounded by its objective plus the most the rest can add.
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
    def _closing(self) -> tuple[list[list], list[int] | None]:
        """The rows by their last variable, and the most the objective can
        still add from each k on (None for an Or kind). Only a walk reads them."""
        from .fold import row_bound

        return row_bound(self)

    def _measure(self, config) -> tuple[int | bool, bool]:
        rows, objective = self._statement
        x = self.point(config)
        holds = rows_hold(rows, x)
        return (holds, True) if self.kind is ValueKind.OR else (sum(map(mul, objective, x)), holds)

    def _optimistic_payload(self, prefix) -> int | bool | None:
        closing, rest = self._closing
        x = self.point(prefix)
        holds = rows_hold(closing[len(x) - 1], x)
        if rest is None:  # an Or kind
            return holds
        return sum(map(mul, self._statement[1], x)) + rest[len(x)] if holds else None


def validate_config(instance: Problem, config: Sequence[int]) -> None:
    """Reject configurations of the wrong arity (checked first) or outside variable domains."""
    count = instance.num_variables()
    if len(config) != count:
        raise DimensionMismatchError(
            f"{instance.type_name} expects {count} values, got {len(config)}"
        )
    for i, (value, dim) in enumerate(zip(config, instance.config_dims())):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"configuration value at index {i} is not an integer")
        if not 0 <= value < dim:
            raise DomainError(
                f"configuration value {value} at index {i} outside domain [0, {dim})"
            )


def evaluate(instance: Problem, config: Sequence[int]) -> AggregatedValue:
    """Total, pure evaluation of one configuration."""
    return instance.evaluate(config)


def fold_space(instance: Problem, *, max_nodes: int = DEFAULT_NODE_BUDGET) -> FoldResult:
    """Fold the kind's combine law over the entire configuration space.

    The result equals folding ``combine`` over the ``evaluate`` of every
    feasible configuration in lexicographic order from the kind's identity,
    with the witness taken on strict improvements only: the first optimal
    configuration for Max, Min and Extremum, whose value is the identity,
    with no witness, when nothing is feasible; the first true one for Or;
    none for Sum and And. Sum measures every configuration and And stops
    at its first false one. Every Or, Max, Min and Extremum instance takes
    the pruned prefix walk (``pred.fold.first_best``), which gives the same
    value and witness having measured fewer configurations. The walk
    charges each prefix it asks as one node, and a Sum or And fold each
    configuration it measures; one more than ``max_nodes`` raises
    ``BudgetExceededError``. An instance with zero variables has exactly
    one, empty, configuration. The fold lives in ``pred.fold``, loaded on the
    first call.
    """
    from .fold import fold

    return fold(instance, max_nodes)


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
        from .symbolic import parse_complexity

        expr = parse_complexity(self.name, self._declared_complexity, self.size_measure_names)
        object.__setattr__(self, "complexity", expr)
        return expr

    def _astuple(self) -> tuple:
        declared = self._declared_complexity
        return tuple(declared if f == "complexity" else getattr(self, f) for f in self._fields)

    @property
    def key(self) -> VariantKey:
        return (self.name, self.variant_tags)


class Registry:
    """All problem variants, handed over whole at construction, as
    ``ReductionGraph`` takes its rules: two variants with one key, or two
    with one alias, are rejected, and nothing changes afterwards. The first
    variant of a name is the one the bare name looks up."""

    def __init__(self, descriptors: Iterable[ProblemTypeDescriptor]) -> None:
        self._by_key: dict[VariantKey, ProblemTypeDescriptor] = {}
        self._default: dict[str, VariantKey] = {}
        self._aliases: dict[str, VariantKey] = {}
        for descriptor in descriptors:
            key, alias = descriptor.key, descriptor.alias
            if key in self._by_key:
                raise DuplicateRegistrationError(f"variant already registered: {key}")
            self._by_key[key] = descriptor
            self._default.setdefault(descriptor.name, key)
            if alias:
                if alias in self._aliases:
                    raise DuplicateRegistrationError(f"alias already registered: {alias}")
                self._aliases[alias] = key

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
