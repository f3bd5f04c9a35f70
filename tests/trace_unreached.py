"""List the statements under src/sl3f7/ that the tests never run.

Usage, from the repository root:

    PYTHONPATH=src python tests/trace_unreached.py REPORT [PYTEST_ARGS...]

Runs pytest (with PYTEST_ARGS, default -q) under a line tracer on every
thread, set with sys.settrace and threading.settrace, that records only
frames whose code lives in src/sl3f7/.  It then appends to REPORT ("-" for
stdout) a Markdown list of every statement that no traced frame reached.
Docstrings and def, class and import lines are left out.  A compound
statement counts as run when a line of its own or a statement inside it ran.

Code reached only in a subprocess, such as a test that starts the CLI in a
new interpreter, is not traced and shows as unreached.  Tracing slows the
run about threefold, so tests with a wall-clock budget may fail under it.
The exit status is pytest's.  The file name does not match test_*.py, so
pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sl3f7"
NOT_LISTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, for each file of the package, the lines run."""
    hits: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}  # co_filename -> local trace function or None

    def local_tracer(lines: set[int]):
        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = os.path.realpath(name)
            ours = os.path.dirname(path) == str(PACKAGE)
            tracers[name] = local_tracer(hits.setdefault(path, set())) if ours else None
        return tracers[name]

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def child_statements(node: ast.AST):
    """The statements directly inside node, through except and case clauses."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            yield from child_statements(child)


def is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def unreached(stmt: ast.stmt, ran: set[int], missed: list[int]) -> bool:
    """Whether stmt ran; appends the first line of each listed statement that did not."""
    children = list(child_statements(stmt))
    reached = [unreached(child, ran, missed) for child in children]
    own = set(range(stmt.lineno, stmt.end_lineno + 1))
    for child in children:
        own -= set(range(child.lineno, child.end_lineno + 1))
    done = any(reached) or not own.isdisjoint(ran)
    if not done and not isinstance(stmt, NOT_LISTED) and not is_docstring(stmt):
        missed.append(stmt.lineno)
    return done


def report(hits: dict[str, set[int]]) -> str:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        missed: list[int] = []
        for stmt in ast.parse(source).body:
            unreached(stmt, hits.get(str(path), set()), missed)
        rel = path.relative_to(ROOT)
        rows += [f"- `{rel}:{n}` `{lines[n - 1].strip()}`\n" for n in sorted(missed)]
    return (f"### Statements under `src/sl3f7/` that the tests never run: {len(rows)}\n\n"
            + "".join(rows))


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    status, hits = run_traced(argv[1:] or ["-q"])
    text = report(hits)
    if argv[0] == "-":
        sys.stdout.write(text)
    else:
        with open(argv[0], "a", encoding="utf-8") as out:
            out.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
