"""``pred --help`` and ``pred COMMAND --help``, written from the command table.

Every command, positional and flag that the help names comes from
``pred.cli.COMMANDS``, so the help cannot drift from what the parser
accepts. Only a help request loads this module.
"""

from __future__ import annotations

from .cli import COMMANDS, REQUIRED


def _spelling(flag: str, kind: type) -> str:
    return flag if kind is bool else f"{flag} {'INT' if kind is int else 'TEXT'}"


def _synopsis(name: str) -> str:
    _, _, positionals, flags = COMMANDS[name]
    words = [name, *(p for p, _ in positionals)]
    for flag, kind, default, _ in flags:
        word = _spelling(flag, kind)
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def help_text(name: str | None) -> str:
    """``pred --help`` (every command's synopsis), or ``pred NAME --help``."""
    if name is None:
        lines = [
            "usage: pred COMMAND ...",
            "",
            "Reduction workbench: create, reduce, and solve hard-problem instances.",
            "",
            "commands:",
        ]
        for command, (_, summary, _, _) in COMMANDS.items():
            lines += [f"  pred {_synopsis(command)}", f"      {summary}"]
        lines += ["", "Flags are --flag VALUE or --flag=VALUE, spelled in full; "
                  "'pred COMMAND --help' describes them."]
        return "\n".join(lines)
    _, summary, positionals, flags = COMMANDS[name]
    lines = [f"usage: pred {_synopsis(name)}", "", summary]
    rows = [*positionals]
    for flag, kind, default, text in flags:
        if kind is int and default is not None:
            text = f"{text} (default: {default})"
        rows.append((_spelling(flag, kind), text))
    if rows:
        lines.append("")
        lines += [f"  {left:<18} {text}" for left, text in rows]
    return "\n".join(lines)
