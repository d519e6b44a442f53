"""Mutation probe of the search kernels and walks: does a test notice each branch?

Each mutant forces the test of one ``if`` (an ``elif`` is one too) in one of
the functions listed in ``TARGETS`` to ``False``, or to ``True``, in a copy of
the tree's ``src/`` and ``tests/``. It then runs ``SUBSET`` with pytest, which
stops at the first failure, and the mutant is killed when that run fails or
outruns the timeout (five times the unmutated run, at least 60 s), and
survives when it passes. A survivor is a branch that no test in the subset
needs: an equivalent guard, a sound but weaker bound that no pinned count
sees, or a gap in the tests.

Run it from a checkout, with the standard library and the tests' own
dependencies (pytest, hypothesis, scipy) installed:

    python tests/mutants.py              # probe this checkout
    python tests/mutants.py --tree DIR   # probe the src/ and tests/ of another one

It is a script, not a test module: pytest does not collect it. The mutants
are found by ``ast`` in source order, and the tests run with a fixed
hypothesis seed and no example database, so the same tree gives the same
list and the same verdicts; only the times vary. One line is printed per
mutant as it finishes, then the counts and the survivors.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# module under src/pred -> the functions whose every ``if`` is mutated
TARGETS = {
    "kernel.py": (
        "_Search._enter",
        "_Search._descend",
        "_Search._dive",
        "_Search.run",
        "_BitSearch.__init__",
        "_BitSearch._propagate",
        "_BitSearch._child",
        "_BitSearch._dive_branch",
        "_BitSearch._need_closes",
        "_BitSearch._refute",
        "_BitSearch._closes",
        "_BitSearch._attained",
    ),
    "fold.py": ("first_best", "row_bound", "_covering_need", "coupling_shares"),
}
SUBSET = ("tests/test_solvers.py", "tests/test_core.py", "tests/test_contract.py")
PYTEST = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")
# a mutant that loops or grows without end is stopped by the timeout or by
# this cap on the run's address space, whichever comes first
MEMORY_CAP = 3 << 30


def functions(tree: ast.Module):
    """Every function of ``tree`` by its qualified name."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found[name] = child
                visit(child, name + ".")

    visit(tree, "")
    return found


def mutants(src: Path) -> list[tuple[str, str, ast.expr, str]]:
    """(module, function, the ``if`` test, forced value) for every mutant, in
    the order of ``TARGETS`` and then of the source."""
    out = []
    for module, names in TARGETS.items():
        text = (src / "pred" / module).read_text(encoding="utf-8")
        found = functions(ast.parse(text))
        for name in names:
            tests = sorted(
                (node.test for node in ast.walk(found[name]) if isinstance(node, ast.If)),
                key=lambda test: (test.lineno, test.col_offset),
            )
            for test in tests:
                for forced in ("False", "True"):
                    out.append((module, name, test, forced))
    return out


def mutated(text: str, test: ast.expr, forced: str) -> str:
    """``text`` with the source of ``test`` replaced by ``forced``; ``ast``
    counts columns in UTF-8 bytes, so the splice is made on bytes."""
    lines = text.encode("utf-8").splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    begin = starts[test.lineno - 1] + test.col_offset
    end = starts[test.end_lineno - 1] + test.end_col_offset
    data = b"".join(lines)
    return (data[:begin] + forced.encode() + data[end:]).decode("utf-8")


def describe(text: str, module: str, name: str, test: ast.expr, forced: str) -> str:
    condition = " ".join(ast.get_source_segment(text, test).split())
    return f"{module}:{test.lineno} {name}: if {condition} -> {forced}"


def _cap_memory() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_subset(copy: Path, timeout: float | None) -> tuple[str, float]:
    """Run the subset in ``copy``: "passed", "failed" or "timeout", and the seconds taken."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = {
        **os.environ,
        "PYTHONPATH": str(copy / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
    }
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", *PYTEST, *SUBSET],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
        preexec_fn=_cap_memory,
    )
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout", time.perf_counter() - start
    return ("passed" if code == 0 else "failed"), time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    tree = args.tree.resolve()
    plan = mutants(tree / "src")
    sources = {module: (tree / "src" / "pred" / module).read_text("utf-8") for module in TARGETS}
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="pred-mutants-") as scratch:
        copy = Path(scratch)
        shutil.copytree(tree / "src", copy / "src", ignore=ignore)
        shutil.copytree(tree / "tests", copy / "tests", ignore=ignore)
        shutil.copy(tree / "pyproject.toml", copy)
        verdict, baseline = run_subset(copy, None)
        if verdict != "passed":
            print("the unmutated tree fails the subset; no mutant was run", file=sys.stderr)
            return 1
        timeout = max(60.0, 5 * baseline)
        print(f"unmutated subset: {baseline:.1f} s; timeout {timeout:.0f} s", flush=True)
        survivors, times = [], []
        for module, name, test, forced in plan:
            target = copy / "src" / "pred" / module
            target.write_text(mutated(sources[module], test, forced), encoding="utf-8")
            try:
                verdict, seconds = run_subset(copy, timeout)
            finally:
                target.write_text(sources[module], encoding="utf-8")
            times.append(seconds)
            line = describe(sources[module], module, name, test, forced)
            outcome = {"passed": "survived", "failed": "killed"}.get(verdict, "killed (timeout)")
            if verdict == "passed":
                survivors.append(line)
            print(f"{outcome:<16} {seconds:6.1f} s  {line}", flush=True)
    times.sort()
    print(
        f"{len(plan)} mutants: {len(plan) - len(survivors)} killed, {len(survivors)} survived, "
        f"in {sum(times):.0f} s (median {times[len(times) // 2]:.1f} s per mutant)"
    )
    for line in survivors:
        print(f"survived: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
