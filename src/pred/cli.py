"""The ``pred`` command line: a JSON-over-pipes reduction workbench.

``create`` emits an instance document, ``reduce`` carries it along a
reduction path inside an envelope document, and ``solve`` solves the
envelope's target and maps the witness back to the source; both also take
a bare instance document, read as an envelope with an empty path. ``path``,
``show``, ``list``, and ``evaluate`` are inspection commands. All machine
output goes to stdout as JSON (one document per stream); diagnostics and the
optional ``--pretty`` rendering go to stdout as plain lines only where
documented, and errors go to stderr.

Exit codes: 0 ok, 2 bad input (a usage error included), 3 no reduction
path, 4 budget exhausted, 5 infeasible program, each the ``exit_code`` of
its error class (``pred.errors``). A reader that closes the pipe before the
output ends (``pred list | head -n 1``) ends the command quietly, with
status 0; a stderr whose reader has gone loses the diagnostic but not the
status.

``run`` is the process entry of both ``pred`` and ``python -m pred``: once
``main`` has returned, the process runs its atexit handlers, flushes its
output and ends at once with ``main``'s code, skipping the interpreter's
teardown. ``main`` is the in-process entry, and returns the code.

Each command is one process in a pipe, so each compiles and runs only its
own code. ``COMMANDS`` declares the seven commands, their positionals and
their flags, and one small parser reads it; a flag is ``--flag value`` or
``--flag=value``, spelled in full. The parsed command's handler is in the
one module that ``COMMANDS`` names: ``pred.cli_create`` (``create``),
``pred.cli_flags`` (``evaluate``), ``pred.cli_reduce`` (``reduce``),
``pred.cli_solve`` (``solve``) or ``pred.cli_browse`` (``path``, ``show``,
``list``), and no other handler module is loaded. ``create`` and
``evaluate`` need the problem registry and the instance's class modules
alone (a class module is loaded only by the commands that build or reduce
into one of its problems, and a forward map only by those whose route runs
it), ``create`` the parsers of its data flags (``pred.cli_flags``) only when
it reads them, the reduction graph (rules, routing and the solver table) by
the commands that route, the dispatch (``pred.solvers``) by ``solve``
alone, the branch-and-bound kernel (``pred.kernel``) by a solve at the ILP
node, the brute-force fold (``pred.fold``) by a solve that folds, and the
example database by ``create --example`` and ``show``. Routing reads no
expression, so the symbolic algebra (``pred.symbolic``) is loaded only by
the commands that print one: ``path``, ``show``, ``list`` and ``reduce
--path``. The envelope codec, the wire format of every pipe, is split by
the stage that runs it: ``reduce`` writes an envelope
(``envelope_to_document``, ``pred.cli_reduce``), and ``load_envelope``
reads one back for ``reduce`` and ``solve`` by the decoder
(``envelope_from_document``, ``pred.cli_replay``), which loads only when
the input is an envelope. Both names still resolve here.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Mapping, NoReturn

from .errors import DocumentError, PredError, UsageError
from .model import DEFAULT_NODE_BUDGET

if TYPE_CHECKING:
    from .graph import ReductionEnvelope, ReductionGraph

# the envelope codec's two halves, each in the one stage module that runs it
_CODEC = {"envelope_to_document": "cli_reduce", "envelope_from_document": "cli_replay"}


def __getattr__(name: str):
    if name in _CODEC:
        return getattr(import_module(f"{__package__}.{_CODEC[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- plumbing ---------------------------------------------------------------

def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        return Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {source}: {exc}") from exc


def load_document(source: str) -> dict:
    text = _read_text(source)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON input: {exc}") from exc
    except RecursionError:
        raise DocumentError("invalid JSON input: nested too deeply") from None
    if not isinstance(document, dict):
        raise DocumentError("top-level JSON document must be an object")
    return document


def _json_text(document) -> str:
    return json.dumps(document, sort_keys=True)


def emit(document: Mapping) -> None:
    print(_json_text(document))


TRACE_VERSION = 1  # of the envelope document that reduce writes and both pipe stages read


def load_envelope(source: str, graph: ReductionGraph) -> ReductionEnvelope:
    """The input of ``reduce`` or ``solve`` as an envelope: a stored one is
    replayed by the decoder (``pred.cli_replay``, loaded only then), and a bare
    instance is its own empty-path envelope."""
    from .graph import ReductionEnvelope
    from .problems import instance_from_document

    document = load_document(source)
    if document.get("kind") == "envelope":
        from .cli_replay import envelope_from_document

        return envelope_from_document(document, graph)
    instance = instance_from_document(document, graph.registry)
    return ReductionEnvelope(instance, graph.make_path(instance.variant_key(), ()), instance, ())


# --- the command table ----------------------------------------------------------

REQUIRED = object()  # the default of a flag that must be given
_INPUT = ("INPUT", "instance or envelope document path, or - for stdin")

# command -> (handler module, summary, positionals, flags). A positional is
# (name, help); a flag is (flag, type, default, help), its type str, int or
# bool (a switch, which takes no value), and the handler reads it as the
# attribute named by the flag with its dashes made underscores.
COMMANDS = {
    "create": ("cli_create", "emit an instance document as JSON", (
        ("PROBLEM", "problem name or alias (MIS, VC, 3SAT, ILP, ...)"),
    ), (
        ("--graph", str, None, "edge list like 0-1,1-2,2-3"),
        ("--vertices", int, None, "vertex count (default: max index + 1)"),
        ("--weights", str, None, "comma-separated positive vertex weights"),
        ("--clauses", str, None, "clause list like '1,2,3;-1,2'"),
        ("--variables", int, None, "variable count (default: widest literal)"),
        ("--colors", int, None, "color count for GraphColoring"),
        ("--bound", int, None, "threshold for decision problems"),
        ("--example", bool, False, "emit the canonical example"),
        ("--file", str, None, "read an instance document from a JSON file"),
    )),
    "reduce": ("cli_reduce", "reduce an instance or envelope to a target type", (_INPUT,), (
        ("--to", str, REQUIRED, "target problem name or alias"),
        ("--path", bool, False, "print the chosen route and overheads to stderr"),
    )),
    "solve": ("cli_solve", "solve an instance or envelope", (_INPUT,), (
        ("--pretty", bool, False, "print display lines, not JSON"),
        ("--max-nodes", int, DEFAULT_NODE_BUDGET,
         "node budget of every search: branch-and-bound and prefix walk"),
    )),
    "path": ("cli_browse", "print the shortest reduction route between two types", (
        ("SOURCE", "problem name or alias"), ("TARGET", "problem name or alias"),
    ), ()),
    "show": ("cli_browse", "describe one problem type", (
        ("PROBLEM", "problem name or alias"),
    ), ()),
    "list": ("cli_browse", "list all registered problem variants", (), (
        ("--stats", bool, False, "append the topology report JSON"),
    )),
    "evaluate": ("cli_flags", "score a configuration against an instance", (
        ("INPUT", "instance document path, or - for stdin"),
    ), (
        ("--config", str, REQUIRED, "comma-separated configuration values"),
    )),
}
_HELP = ("-h", "--help")


def parse(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """The command that ``argv`` names (None for ``pred --help``) and its
    arguments (None for a help request); ``UsageError`` for anything
    ``COMMANDS`` does not allow.

    A value-taking flag takes the rest of its argument after ``=``, or else
    the next argument whatever it is (so ``--max-nodes -1`` reaches the
    budget check). Any other argument that starts with ``-``, ``-`` itself
    aside, is a flag; the rest are the positionals, in order.
    """
    if not argv:
        raise UsageError("no command given (see pred --help)")
    name, *rest = argv
    if name in _HELP:
        return None, None
    if name not in COMMANDS:
        raise UsageError(f"unknown command {name!r}; the commands are {', '.join(COMMANDS)}")
    _, _, positionals, flags = COMMANDS[name]
    kinds = {flag: kind for flag, kind, _, _ in flags}
    values = {flag: default for flag, _, default, _ in flags}
    given = []
    args = iter(rest)
    for arg in args:
        if arg in _HELP:
            return name, None
        if arg == "-" or not arg.startswith("-"):
            given.append(arg)
            continue
        flag, eq, text = arg.partition("=")
        kind = kinds.get(flag)
        if kind is None:
            raise UsageError(f"{name} takes no flag {flag} (see pred {name} --help)")
        if kind is bool:
            if eq:
                raise UsageError(f"{flag} takes no value")
            values[flag] = True
            continue
        if not eq:
            text = next(args, None)
            if text is None:
                raise UsageError(f"{flag} needs a value")
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                raise UsageError(f"{flag} needs an integer, got {text!r}") from None
        values[flag] = text
    if len(given) != len(positionals):
        raise UsageError(
            f"{name} takes {len(positionals)} argument(s), got {len(given)} (see pred {name} --help)"
        )
    missing = [flag for flag, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError(f"{name} needs {missing[0]}")
    fields = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    for (positional, _), value in zip(positionals, given):
        fields[positional.lower()] = value
    return name, SimpleNamespace(**fields)


# --- entry point ---------------------------------------------------------------

def _silence_stdout() -> None:
    """Point stdout at the null device once its reader has gone, so the
    interpreter's last flush does not report the broken pipe again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        name, args = parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            from .cli_help import help_text

            print(help_text(name))
        else:
            module = import_module(f"{__package__}.{COMMANDS[name][0]}")
            getattr(module, f"cmd_{name}")(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
    except BrokenPipeError:
        _silence_stdout()
        return 0
    except (PredError, ValueError) as exc:
        try:
            print(f"pred: {exc}", file=sys.stderr)
        except OSError:  # a stderr reader that has gone takes the line, not the status
            pass
        return getattr(exc, "exit_code", 2)
    return 0


def run() -> NoReturn:
    """The ``pred`` process: ``main``'s code as its exit status, with no
    interpreter teardown once ``main`` has returned.

    ``run`` raises ``SystemExit(code)``, as the end of a script does. Called by
    the process's ``__main__`` module (the ``pred`` script, ``python -m
    pred``), it first registers a handler that the interpreter runs at exit
    before any other: it runs the other atexit handlers in the interpreter's
    order (a site hook's, registered before ``run``, among them), flushes
    stdout and stderr, ignoring a reader that has gone, and ends the process
    with ``os._exit(code)``, so a stage spends no time taking apart the
    modules and objects it is done with. The handler does nothing if the
    process's ``__main__`` module is no longer that caller at exit
    (``runpy.run_module(..., alter_sys=True)`` puts the host's back). A
    ``main`` that raises, or any other caller of ``run``, registers nothing and
    ends as the interpreter or the caller ends it. In-process callers call
    ``main``.
    """
    entry = sys.modules["__main__"]
    code = main()

    def end() -> None:
        if sys.modules.get("__main__") is entry:
            atexit.unregister(end)
            atexit._run_exitfuncs()
            for stream in (sys.stdout, sys.stderr):
                try:
                    stream.flush()
                except (OSError, ValueError):
                    pass
            os._exit(code)

    if sys._getframe(1).f_globals is vars(entry):
        atexit.register(end)
    raise SystemExit(code)
