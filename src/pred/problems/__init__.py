"""Problem types: the variant catalogue, the document codec and the family table.

The catalogue is one table of rows, each a shipped variant with its size
measures and the best known (or naive enumeration) complexity bound,
handed whole to ``Registry``.

Instance data is declared once, in the field table ``DATA_FIELDS``: for
each canonical problem name, its required and optional data fields, the
shape check each field's value must pass (integer, count up to
``sys.maxsize``, integer list, rows of integers, integer pairs or ILP
constraints), and its constructor. ``instance_from_data`` is the one
decoder; JSON documents and ``pred create`` flags both go through it, so
both accept and reject the same data.

The problem classes and their data records live in one family module per
instance-data record: ``graph``, ``sat``, ``ilp``, ``qubo`` (QUBO and the
spin glass) and ``setcover``; the rarely built graph problems have a module
each (``clique``, ``domset``, ``maxcut``, ``coloring``). ``FAMILIES`` names
the module of every public class, and each class is importable from here,
but its module is loaded only when the class is first used (PEP 562); the
decision wrapper (``decision``) is one too.

The forward maps of the rules are grouped by the routes that run them, so
a stage compiles the maps of its own route and next to nothing else. Most
have map modules of their own: SAT to 3-SAT and 3-SAT to MIS
(``sat_to_mis``), coloring to SAT (``coloring_to_sat``), QUBO to ILP
(``qubo_to_ilp``), the value-only maps into QUBO and the spin glass
(``qubo_maps``), and MIS to VC and back and to integer weights
(``graph_maps``). A small map whose every route loads the class module of
its source or target anyway sits in that module: the linear families' map
into ILP (``ilp``), dominating set's into set cover (``setcover``),
max-cut's into QUBO (``maxcut``), the two complement-graph maps between
MIS and clique (``clique``) and the decision wrapper's to MIS
(``decision``). The field table's constructors, like the rules' forward
maps and extractors, are ``FamilyRef``s that load their module on first
call, so building the registry and the reduction graph loads no family.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from importlib import import_module
from typing import AbstractSet, Callable, Mapping

from ..errors import DocumentError
from ..model import Problem, ProblemTypeDescriptor, Registry, ValueKind

# family module -> the public classes (and functions) it defines
FAMILIES = {
    "graph": "Edge GraphData IndependentSet VertexCover",
    "decision": "DecisionProblem decision_wrap",
    "clique": "Clique",
    "domset": "DominatingSet",
    "maxcut": "MaxCut",
    "coloring": "GraphColoring",
    "sat": "CnfData Satisfiability ThreeSatisfiability",
    "ilp": "IlpData Ilp",
    "qubo": "QuboData IsingData Qubo SpinGlass",
    "setcover": "SetCoverData SetCover",
}
_FAMILY_OF = {name: family for family, names in FAMILIES.items() for name in names.split()}


def __getattr__(name: str):
    if name in _FAMILY_OF:
        value = getattr(import_module(f"{__name__}.{_FAMILY_OF[name]}"), name)
        globals()[name] = value
        return value
    if name in FAMILIES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_FAMILY_OF) | set(FAMILIES))


class FamilyRef:
    """A function of a family module, named ``"family.attribute[.attribute]"``.

    Calling the reference calls the function; the family module is imported
    on the first call (or ``resolve``), not when the reference is made.
    """

    __slots__ = ("name", "_function")

    def __init__(self, name: str) -> None:
        self.name = name
        self._function = None

    def resolve(self) -> Callable:
        if self._function is None:
            family, *path = self.name.split(".")
            value = import_module(f"{__name__}.{family}")
            for attribute in path:
                value = getattr(value, attribute)
            self._function = value
        return self._function

    def __call__(self, *args):
        return (self._function or self.resolve())(*args)

    def __repr__(self) -> str:
        return f"FamilyRef({self.name!r})"


# --- catalogue ----------------------------------------------------------------

MIS_BRANCHING = "1.1996"  # best known MIS branching-factor bound


def register_catalogue() -> Registry:
    """A fresh registry of every shipped problem variant.

    Each row is a ``ProblemTypeDescriptor``'s fields: the name, the variant
    tags (sorted pairs), the size measures, the complexity bound, the kind
    and the alias. The first row of a name is the variant the bare name
    looks up.
    """
    simple, unit, mis = (("graph", "simple"),), ("weight", "unit"), f"{MIS_BRANCHING}^V"
    return Registry(
        ProblemTypeDescriptor(*row)
        for row in (
            ("Satisfiability", (), ("n", "m", "L"), "2^n", ValueKind.OR, "SAT"),
            ("ThreeSatisfiability", (), ("n", "m", "L"), "2^n", ValueKind.OR, "3SAT"),
            ("MaximumIndependentSet", (*simple, unit), ("V", "E"), mis, ValueKind.MAX, "MIS"),
            ("MaximumIndependentSet", (*simple, ("weight", "integer")), ("V", "E"), mis,
             ValueKind.MAX, None),
            ("MinimumVertexCover", simple, ("V", "E"), mis, ValueKind.MIN, "VC"),
            ("MaximumClique", simple, ("V", "E"), "2^V", ValueKind.MAX, "Clique"),
            ("MinimumDominatingSet", simple, ("V", "E"), "2^V", ValueKind.MIN, "DominatingSet"),
            ("MinimumSetCover", (), ("S", "U"), "2^S", ValueKind.MIN, "SetCover"),
            ("MaxCut", simple, ("V", "E"), "2^V", ValueKind.MAX, None),
            ("QUBO", (), ("n",), "2^n", ValueKind.MAX, None),
            ("SpinGlass", (), ("n",), "2^n", ValueKind.MAX, "Ising"),
            ("GraphColoring", simple, ("V", "E", "k"), "k^V", ValueKind.OR, "GC"),
            ("IntegerLinearProgram", (), ("n", "c"), "2^n", ValueKind.EXTREMUM, "ILP"),
            ("DecisionMaximumIndependentSet", (*simple, unit), ("V", "E"), mis, ValueKind.OR,
             "DecisionMIS"),
            ("DecisionMinimumVertexCover", simple, ("V", "E"), mis, ValueKind.OR, "DecisionVC"),
        )
    )


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    """The shipped catalogue, registered once per process."""
    return register_catalogue()


# --- wire format ----------------------------------------------------------------

def _require_fields(
    data: Mapping,
    required: AbstractSet[str],
    optional: AbstractSet[str] = frozenset(),
    what: str = "instance data",
) -> None:
    if not isinstance(data, Mapping):
        raise DocumentError(f"{what} must be an object")
    keys = set(data)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise DocumentError(f"missing data field(s): {sorted(missing)}")
    if unknown:
        raise DocumentError(f"unknown data field(s): {sorted(unknown)}")


def _int(value, what: str) -> int:
    # bool is an int subclass, but true is not a count
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{what} must be an integer")
    return value


def _count(value, what: str) -> int:
    # a count sizes ranges and sequences, which hold at most sys.maxsize items
    if _int(value, what) > sys.maxsize:
        raise DocumentError(f"{what} must be at most {sys.maxsize}")
    return value


def _list(values, what: str) -> list | tuple:
    if not isinstance(values, (list, tuple)):
        raise DocumentError(f"{what} must be a list")
    return values


def _int_list(values, what: str) -> tuple[int, ...]:
    out = []
    for v in _list(values, what):
        if not isinstance(v, int) or isinstance(v, bool):
            raise DocumentError(f"{what} must contain integers")
        out.append(v)
    return tuple(out)


def _int_rows(values, what: str) -> tuple[tuple[int, ...], ...]:
    entry = f"each entry of {what}"
    return tuple(_int_list(row, entry) for row in _list(values, what))


def _int_pairs(values, what: str) -> tuple[tuple[int, ...], ...]:
    rows = _int_rows(values, what)
    for row in rows:
        if len(row) != 2:
            raise DocumentError(f"each entry of {what} must be a pair, not {list(row)}")
    return rows


def _ilp_constraints(values, what: str) -> tuple[tuple[tuple[int, ...], object, int], ...]:
    rows = []
    for c in _list(values, what):
        _require_fields(c, {"coeffs", "rel", "rhs"})
        rows.append((_int_list(c["coeffs"], "coeffs"), c["rel"], _int(c["rhs"], "rhs")))
    return tuple(rows)


_GRAPH = {"num_vertices": _count, "edges": _int_pairs}
_CNF = {"num_variables": _count, "clauses": _int_rows}

# Canonical problem name -> (required fields, optional fields, constructor).
# Each field maps to the shape check its value must pass; the constructor
# receives the checked values and its data class validates the rest.
DATA_FIELDS: dict[str, tuple[dict, dict, Callable[[Mapping], Problem]]] = {
    "Satisfiability": (_CNF, {}, FamilyRef("sat.Satisfiability.from_data")),
    "ThreeSatisfiability": (_CNF, {}, FamilyRef("sat.ThreeSatisfiability.from_data")),
    "MaximumIndependentSet": (
        _GRAPH, {"weights": _int_list}, FamilyRef("graph.IndependentSet.from_data")
    ),
    "MinimumVertexCover": (_GRAPH, {}, FamilyRef("graph.VertexCover.from_data")),
    "MaximumClique": (_GRAPH, {}, FamilyRef("clique.Clique.from_data")),
    "MinimumDominatingSet": (_GRAPH, {}, FamilyRef("domset.DominatingSet.from_data")),
    "MaxCut": (_GRAPH, {}, FamilyRef("maxcut.MaxCut.from_data")),
    "GraphColoring": (
        {**_GRAPH, "colors": _count}, {}, FamilyRef("coloring.GraphColoring.from_data")
    ),
    "MinimumSetCover": (
        {"num_elements": _count, "sets": _int_rows},
        {},
        FamilyRef("setcover.SetCover.from_data"),
    ),
    "QUBO": ({"n": _count, "q": _int_rows}, {}, FamilyRef("qubo.Qubo.from_data")),
    "SpinGlass": (
        {"n": _count, "j": _int_rows, "h": _int_list},
        {},
        FamilyRef("qubo.SpinGlass.from_data"),
    ),
    "IntegerLinearProgram": (
        {
            "num_vars": _count,
            "bounds": _int_pairs,
            "constraints": _ilp_constraints,
            "objective": _int_list,
            "sense": lambda value, what: value,  # IlpData checks it is "max" or "min"
        },
        {},
        FamilyRef("ilp.Ilp.from_data"),
    ),
    "DecisionMaximumIndependentSet": (
        {**_GRAPH, "bound": _int},
        {},
        FamilyRef("graph.IndependentSet.decision_from_data"),
    ),
    "DecisionMinimumVertexCover": (
        {**_GRAPH, "bound": _int},
        {},
        FamilyRef("graph.VertexCover.decision_from_data"),
    ),
}


def instance_from_data(name: str, data: Mapping) -> Problem:
    """Check ``data`` against the field table of canonical type ``name``; build it."""
    entry = DATA_FIELDS.get(name)
    if entry is None:
        raise DocumentError(f"no field table for problem {name!r}")
    required, optional, build = entry
    _require_fields(data, required.keys(), optional.keys())
    shapes = {**required, **optional}
    return build({field: shapes[field](value, field) for field, value in data.items()})


def instance_to_document(instance: Problem) -> dict:
    return {
        "problem": instance.type_name,
        "variant": dict(instance.variant_tags),
        "data": instance.to_data(),
    }


def instance_from_document(document: Mapping, registry: Registry) -> Problem:
    _require_fields(document, {"problem", "data"}, {"variant"})
    name = document["problem"]
    if not isinstance(name, str):
        raise DocumentError("problem name must be a string")
    descriptor = registry.lookup(name)  # resolves aliases, errors on unknowns
    instance = instance_from_data(descriptor.name, document["data"])
    variant = document.get("variant")
    if variant is not None and not isinstance(variant, Mapping):
        raise DocumentError("variant must be an object of tags")
    if variant is not None and dict(variant) != instance.variant_tags:
        raise DocumentError(
            f"variant tags {dict(variant)} do not match instance data "
            f"(expected {instance.variant_tags})"
        )
    registry.lookup_key(instance.variant_key())  # must be a registered variant
    return instance
