"""Instance data and configurations written as command-line text: the data
flags of ``pred create`` (``data_from_flags``), and ``pred evaluate``, whose
configuration is such text.

``create --example`` and ``create --file`` read no data flag, so they never
compile this module.
"""

from __future__ import annotations

from .cli import load_document
from .errors import DocumentError
from .model import evaluate
from .problems import DATA_FIELDS, default_registry, instance_from_document


def _parse_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        left, sep, right = token.partition("-")
        if not sep:
            raise DocumentError(f"malformed edge {token!r}; expected u-v")
        try:
            edges.append((int(left), int(right)))
        except ValueError as exc:
            raise DocumentError(f"malformed edge {token!r}; expected u-v") from exc
    return edges


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DocumentError(f"malformed {what} {text!r}; expected comma-separated integers") from exc


def _parse_clauses(text: str) -> tuple[tuple[int, ...], ...]:
    clauses = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            clauses.append(_parse_ints(part, "clause"))
    if not clauses:
        raise DocumentError("no clauses given")
    return tuple(clauses)


# create flag -> (data field it fills, parser of its text); the command
# table has already turned the integer flags into ints
_FLAG_FIELDS = {
    "graph": ("edges", _parse_edges),
    "vertices": ("num_vertices", None),
    "weights": ("weights", lambda text: _parse_ints(text, "weight list")),
    "clauses": ("clauses", _parse_clauses),
    "variables": ("num_variables", None),
    "colors": ("colors", None),
    "bound": ("bound", None),
}


def data_from_flags(name: str, args) -> dict:
    """The instance data that the set data flags spell, for the shared decoder."""
    required, optional, _ = DATA_FIELDS[name]
    takes = required.keys() | optional.keys()
    if not any(field in takes for field, _ in _FLAG_FIELDS.values()):
        raise DocumentError(f"{name} instances need --example or --file (no data flags)")
    data: dict = {}
    for flag, (field, parse) in _FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if field not in takes:
            raise DocumentError(f"{name} takes no --{flag}")
        data[field] = parse(value) if parse else value
    if "edges" in takes:
        edges = data.setdefault("edges", [])
        if "num_vertices" not in data:
            if not edges:
                raise DocumentError(f"{name} needs --graph, or --vertices for an edgeless graph")
            data["num_vertices"] = max(map(max, edges)) + 1
    if "clauses" in data:
        data.setdefault("num_variables", max(abs(lit) for c in data["clauses"] for lit in c))
    for flag, (field, _) in _FLAG_FIELDS.items():
        if field in required and field not in data:
            raise DocumentError(f"{name} needs --{flag}")
    return data


def cmd_evaluate(args) -> None:
    instance = instance_from_document(load_document(args.input), default_registry())
    config = _parse_ints(args.config, "configuration")
    value = evaluate(instance, config)
    print(f"{value.render()} {'feasible' if value.feasible else 'infeasible'}")
