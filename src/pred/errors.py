"""Exception hierarchy shared across the library.

Everything raised on purpose derives from PredError so the CLI can map
failures onto its exit-code contract in one place.
"""

from __future__ import annotations


class PredError(Exception):
    """Base class for all library errors."""


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


class BudgetExceededError(PredError):
    """Enumeration or search budget exhausted before completion.

    A branch-and-bound search also reports the ``nodes`` it visited and the
    objective value of its best point so far (``incumbent``, None if none).
    """

    def __init__(
        self,
        message: str,
        limit: int | None = None,
        nodes: int | None = None,
        incumbent: int | None = None,
    ):
        super().__init__(message)
        self.limit = limit
        self.nodes = nodes
        self.incumbent = incumbent


class InfeasibleError(PredError):
    """Solver proved the instance has no feasible configuration."""


class DocumentError(PredError):
    """Wire-format document is malformed."""
