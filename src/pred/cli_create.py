"""``pred create`` and ``pred evaluate``: the commands that read or build one
instance and route nothing.

They need the problem registry and the instance's family alone; ``create
--example`` adds the example database.
"""

from __future__ import annotations

from .cli import emit, load_document
from .errors import DocumentError
from .model import evaluate
from .problems import DATA_FIELDS, default_registry, instance_from_document, instance_to_document


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


def _data_from_flags(name: str, args) -> dict:
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


def _reject_unread_flags(source: str, args) -> None:
    """Refuse the flags that ``--example`` or ``--file`` would leave unread."""
    unread = [f for f in ("file", *_FLAG_FIELDS) if f != source and getattr(args, f) is not None]
    if unread:
        raise DocumentError(f"--{unread[0]} cannot be used with --{source}")


def cmd_create(args) -> None:
    registry = default_registry()
    descriptor = registry.lookup(args.problem)
    if args.example:
        from .examples import get_example

        _reject_unread_flags("example", args)
        instance = get_example(args.problem, registry).instance
    elif args.file:
        _reject_unread_flags("file", args)
        instance = instance_from_document(load_document(args.file), registry)
        if instance.type_name != descriptor.name:
            raise DocumentError(
                f"--file holds a {instance.type_name}, but {descriptor.name} was requested"
            )
    else:
        data = _data_from_flags(descriptor.name, args)
        instance = instance_from_document({"problem": descriptor.name, "data": data}, registry)
    # a [...] suffix asks for its own variant, a bare name for any variant of the problem
    if "[" in args.problem and instance.variant_key() != descriptor.key:
        built = registry.display_name(instance.variant_key())
        raise DocumentError(f"the instance is a {built}, but {args.problem} was requested")
    emit(instance_to_document(instance))


def cmd_evaluate(args) -> None:
    instance = instance_from_document(load_document(args.input), default_registry())
    config = _parse_ints(args.config, "configuration")
    value = evaluate(instance, config)
    print(f"{value.render()} {'feasible' if value.feasible else 'infeasible'}")
