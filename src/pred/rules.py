"""Reduction rules: forward instance transforms plus inverse extraction.

Each rule carries a forward map (source instance to target instance plus a
self-contained, JSON-able extraction record) and declares one of two inverse
capabilities: a configuration extractor (target witness back to a source
witness) or a value extractor (target optimum back to a source optimum via an
affine correction). Overheads are non-constant polynomials with non-negative
coefficients bounding every target size measure by the source measures.

The forward maps, and the extractors that only their own rules use, live
in ``pred.problems``, grouped by the routes that run them (that package's
docstring says where); a rule names them as ``FamilyRef``s, so declaring
the catalogue and building the graph load no family and no map, and the
first ``apply`` or extraction loads the module it needs. The generic
configuration extractors are defined here; the affine value extractor of
the value-only rules is in ``pred.problems.qubo_maps``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from .errors import (
    CapabilityError,
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
    (``pred.symbolic.parse_overhead``), once. Only the commands that print it
    read it, so neither building the catalogue nor routing loads
    ``pred.symbolic``.
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
        from .symbolic import parse_overhead

        overhead = parse_overhead(
            self.name,
            self._declared_overhead,
            self.source.size_measure_names,
            self.target.size_measure_names,
        )
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


# --- the shipped catalogue of rules ----------------------------------------------

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
    affine_value = FamilyRef("qubo_maps.extract_affine_value")
    return [
        _rule(registry, *row)
        for row in (
            (sat, three_sat, {"n": "n + L", "m": "L", "L": "3*L"},
             FamilyRef("sat_to_mis.forward_sat_to_3sat"), _extract_prefix),
            (three_sat, mis, {"V": "L", "E": "L^2"},
             FamilyRef("sat_to_mis.forward_3sat_to_mis"),
             FamilyRef("sat_to_mis.extract_assignment_from_vertices")),
            (mis, vc, same_graph, FamilyRef("graph_maps.forward_mis_to_vc"), _extract_complement),
            (vc, mis, same_graph, FamilyRef("graph_maps.forward_vc_to_mis"), _extract_complement),
            (mis, "MaximumClique", {"V": "V", "E": "V^2"},
             FamilyRef("clique.forward_mis_to_clique"), _extract_identity),
            ("MaximumClique", mis, {"V": "V", "E": "V^2"},
             FamilyRef("clique.forward_clique_to_mis"), _extract_identity),
            (mis, ilp, {"n": "V", "c": "E"}, linear_to_ilp, _extract_identity),
            (weighted_mis, ilp, {"n": "V", "c": "E"}, linear_to_ilp, _extract_identity),
            (vc, ilp, {"n": "V", "c": "E"}, linear_to_ilp, _extract_identity),
            ("MinimumSetCover", ilp, {"n": "S", "c": "U"}, linear_to_ilp, _extract_identity),
            ("MinimumDominatingSet", "MinimumSetCover", {"S": "V", "U": "V"},
             FamilyRef("setcover.forward_domset_to_setcover"), _extract_identity),
            ("MaxCut", "QUBO", {"n": "V"}, FamilyRef("maxcut.forward_maxcut_to_qubo"),
             _extract_identity),
            (mis, "QUBO", {"n": "V"}, FamilyRef("qubo_maps.forward_mis_to_qubo"), None,
             affine_value),
            ("QUBO", "SpinGlass", {"n": "n"}, FamilyRef("qubo_maps.forward_qubo_to_ising"), None,
             affine_value),
            ("SpinGlass", "QUBO", {"n": "n"}, FamilyRef("qubo_maps.forward_ising_to_qubo"), None,
             affine_value),
            ("GraphColoring", sat, {"n": "V*k", "m": "V + E*k + V*k^2", "L": "V*k^2 + 2*E*k"},
             FamilyRef("coloring_to_sat.forward_coloring_to_sat"),
             FamilyRef("coloring_to_sat.extract_coloring")),
            ("QUBO", ilp, {"n": "n + n^2", "c": "3*n^2"},
             FamilyRef("qubo_to_ilp.forward_qubo_to_ilp"), _extract_prefix),
            ("DecisionMaximumIndependentSet", mis, same_graph,
             FamilyRef("decision.forward_decision_mis"), _extract_identity),
            (mis, weighted_mis, same_graph, FamilyRef("graph_maps.forward_mis_unit_to_integer"),
             _extract_identity, affine_value),
        )
    ]
