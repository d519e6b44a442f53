"""Exception hierarchy and the record base shared across the library.

Everything raised on purpose derives from PredError, and each class's
``exit_code`` is the status the CLI exits with when it reports one: 2 for bad
input, 3 for no reduction path, 4 for an exhausted budget and 5 for an
infeasible program. ``Record`` is the base of every immutable value class.
"""

from __future__ import annotations


class Record:
    """An immutable value class, like a frozen dataclass but built without generated code.

    The fields are the names a class annotates, after those of its record
    bases; a class attribute of the same name is the field's default. The
    constructor takes fields by position or by name, then calls
    ``__post_init__``; a class on a hot path defines ``__init__`` itself and
    sets its fields with ``object.__setattr__``. Assigning or deleting an
    attribute raises AttributeError. Records of the same class with equal
    fields are equal, a record hashes as the tuple of its fields, and its
    repr is ``Name(field=value, ...)``. ``class C(Record, eq=False)`` keeps
    the identity equality and hash of ``object``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from a call that names fields or omits defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, got {len(args)}")
        values = {**cls._defaults, **dict(zip(fields, args))}
        for field, value in kwargs.items():
            if field not in fields or field in fields[: len(args)]:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated field {field!r}")
            values[field] = value
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() is missing field(s) {missing}")
        return [values[field] for field in fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"


class PredError(Exception):
    """Base class for all library errors."""

    exit_code = 2


# --- instance / configuration validation ---------------------------------

class InvalidInstanceError(PredError):
    """Instance data violates the problem type's invariants."""


class DimensionMismatchError(PredError):
    """Configuration length does not match the configuration space."""


class DomainError(PredError):
    """A configuration value lies outside its variable's domain."""


class KindError(PredError):
    """Operation applied to an aggregation kind that does not support it."""


# --- registry -------------------------------------------------------------

class RegistrationError(PredError):
    """Descriptor or rule rejected at registration time."""


class DuplicateRegistrationError(RegistrationError):
    """Same problem variant or same reduction edge registered twice."""


class UnknownProblemError(PredError):
    """Lookup of a problem name/variant that was never registered."""


class NoExampleError(PredError):
    """No canonical example stored for the requested problem type."""


# --- symbolic engine ------------------------------------------------------

class SymbolicError(PredError):
    """Base for expression-level failures."""


class UnboundVariableError(SymbolicError):
    """Evaluation met a variable with no binding."""


class UnknownVariableError(SymbolicError):
    """Composition met a variable the inner map does not produce."""


class NotPolynomialError(SymbolicError):
    """Polynomial-only operation applied to an exponential expression."""


class ExpressionSyntaxError(SymbolicError):
    """Text form of an expression could not be parsed."""


# --- reductions / solving -------------------------------------------------

class TypeMismatchError(PredError):
    """Rule applied to an instance of the wrong source variant."""


class CapabilityError(PredError):
    """Extraction requested from a rule that does not support it."""


class ExtractionError(PredError):
    """Inverse mapping failed on the supplied data."""


class NoPathError(PredError):
    """No reduction path exists between the requested variants."""

    exit_code = 3


class BudgetExceededError(PredError):
    """The node budget of a search exhausted before completion.

    Every search reports its budget (``limit``) and the objective value of its
    best point so far (``incumbent``, None if none).
    """

    exit_code = 4

    def __init__(self, message: str, limit: int | None = None, incumbent: int | None = None):
        super().__init__(message)
        self.limit = limit
        self.incumbent = incumbent


class InfeasibleError(PredError):
    """Solver proved the instance has no feasible configuration."""

    exit_code = 5


class DocumentError(PredError):
    """Wire-format document is malformed."""


class UsageError(PredError):
    """A command line that the command table does not allow."""
