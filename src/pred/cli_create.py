"""``pred create``: build one instance and write its document; it routes
nothing.

It needs the problem registry and the instance's family alone; ``--example``
adds the example database, and the data flags their parsers
(``pred.cli_flags``).
"""

from __future__ import annotations

from .cli import COMMANDS, emit, load_document
from .errors import DocumentError
from .problems import default_registry, instance_from_document, instance_to_document


def _reject_unread_flags(source: str, args) -> None:
    """Refuse the flags that ``--example`` or ``--file`` would leave unread."""
    # the value-taking flags: --file and the data flags
    flags = [flag[2:] for flag, kind, _, _ in COMMANDS["create"][3] if kind is not bool]
    unread = [f for f in ("file", *flags) if f != source and getattr(args, f) is not None]
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
        from .cli_flags import data_from_flags

        data = data_from_flags(descriptor.name, args)
        instance = instance_from_document({"problem": descriptor.name, "data": data}, registry)
    # a [...] suffix asks for its own variant, a bare name for any variant of the problem
    if "[" in args.problem and instance.variant_key() != descriptor.key:
        built = registry.display_name(instance.variant_key())
        raise DocumentError(f"the instance is a {built}, but {args.problem} was requested")
    emit(instance_to_document(instance))
