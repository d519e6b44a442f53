"""Reduction rules: forward instance transforms plus inverse extraction.

Each rule carries a forward map (source instance to target instance plus a
self-contained, JSON-able extraction record) and declares one of two inverse
capabilities: a configuration extractor (target witness back to a source
witness) or a value extractor (target optimum back to a source optimum via an
affine correction). Overheads are non-constant polynomials with non-negative
coefficients bounding every target size measure by the source measures.

The forward maps, and the extractors that only one rule uses, live in the
problem family of the rule's target (``pred.problems``); a rule names them
as ``FamilyRef``s, so declaring the catalogue and building the graph load no
family, and the first ``apply`` or extraction loads the one it needs. The
generic extractors are defined here.
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
from .problems import FamilyRef

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
    (``_parsed_overhead``), once. Only the commands that print it read it, so
    neither building the catalogue nor routing loads ``pred.symbolic``.
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


# --- the shipped catalogue of rules ----------------------------------------------

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
    source: str,
    target: str,
    overhead: Mapping[str, str],
    forward: ForwardFn,
    config_extractor: ConfigExtractor | None = None,
    value_extractor: ValueExtractor | None = None,
) -> ReductionRule:
    src = registry.lookup(source)
    tgt = registry.lookup(target)
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

    Each row is a source and a target (names the registry looks up), the
    overhead, the forward map, and the configuration and value extractors.
    Each rule's inverse capability is checked here; its overhead is parsed
    and checked on first read (``ReductionRule``), and its forward map and
    family extractor are loaded on first call (``FamilyRef``).
    """
    mis = "MaximumIndependentSet"  # the unit-weight variant, registered first
    weighted_mis = "MaximumIndependentSet[weight=integer]"
    sat, three_sat = "Satisfiability", "ThreeSatisfiability"
    vc, ilp = "MinimumVertexCover", "IntegerLinearProgram"
    same_graph = {"V": "V", "E": "E"}
    linear_to_ilp = FamilyRef("ilp.forward_linear_to_ilp")
    return [
        _rule(registry, *row)
        for row in (
            (sat, three_sat, {"n": "n + L", "m": "L", "L": "3*L"},
             FamilyRef("sat.forward_sat_to_3sat"), _extract_prefix),
            (three_sat, mis, {"V": "L", "E": "L^2"}, FamilyRef("graph.forward_3sat_to_mis"),
             FamilyRef("graph.extract_assignment_from_vertices")),
            (mis, vc, same_graph, FamilyRef("graph.forward_mis_to_vc"), _extract_complement),
            (vc, mis, same_graph, FamilyRef("graph.forward_vc_to_mis"), _extract_complement),
            (mis, "MaximumClique", {"V": "V", "E": "V^2"},
             FamilyRef("graph.forward_mis_to_clique"), _extract_identity),
            ("MaximumClique", mis, {"V": "V", "E": "V^2"},
             FamilyRef("graph.forward_clique_to_mis"), _extract_identity),
            (mis, ilp, {"n": "V", "c": "E"}, linear_to_ilp, _extract_identity),
            (weighted_mis, ilp, {"n": "V", "c": "E"}, linear_to_ilp, _extract_identity),
            (vc, ilp, {"n": "V", "c": "E"}, linear_to_ilp, _extract_identity),
            ("MinimumSetCover", ilp, {"n": "S", "c": "U"}, linear_to_ilp, _extract_identity),
            ("MinimumDominatingSet", "MinimumSetCover", {"S": "V", "U": "V"},
             FamilyRef("setcover.forward_domset_to_setcover"), _extract_identity),
            ("MaxCut", "QUBO", {"n": "V"}, FamilyRef("qubo.forward_maxcut_to_qubo"),
             _extract_identity),
            (mis, "QUBO", {"n": "V"}, FamilyRef("qubo.forward_mis_to_qubo"), None,
             _extract_affine_value),
            ("QUBO", "SpinGlass", {"n": "n"}, FamilyRef("qubo.forward_qubo_to_ising"), None,
             _extract_affine_value),
            ("SpinGlass", "QUBO", {"n": "n"}, FamilyRef("qubo.forward_ising_to_qubo"), None,
             _extract_affine_value),
            ("GraphColoring", sat, {"n": "V*k", "m": "V + E*k + V*k^2", "L": "V*k^2 + 2*E*k"},
             FamilyRef("sat.forward_coloring_to_sat"), FamilyRef("sat.extract_coloring")),
            ("QUBO", ilp, {"n": "n + n^2", "c": "3*n^2"}, FamilyRef("ilp.forward_qubo_to_ilp"),
             _extract_prefix),
            ("DecisionMaximumIndependentSet", mis, same_graph,
             FamilyRef("graph.forward_decision_mis"), _extract_identity),
            (mis, weighted_mis, same_graph, FamilyRef("graph.forward_mis_unit_to_integer"),
             _extract_identity, _extract_affine_value),
        )
    ]
