"""List the statements under src/sl3f7/ that the tests never run, and fail
when the list differs from the recorded one, tests/unreached.txt.

Usage, from the repository root:

    PYTHONPATH=src python tests/trace_unreached.py REPORT [PYTEST_ARGS...]

Runs pytest (with PYTEST_ARGS, default -q) under a line tracer on every
thread, set with sys.settrace and threading.settrace, that records only
frames whose code lives in src/sl3f7/.  It then appends to REPORT ("-" for
stdout) a Markdown list of every statement that no traced frame reached.
Docstrings and def, class and import lines are left out.  A compound
statement counts as run when a line of its own or a statement inside it ran.

Each line of tests/unreached.txt names a file, the first line of one
statement, stripped, and a reason, separated by " | "; lines starting with
# are comments.  Line numbers are not recorded, so an edit elsewhere in a
file leaves its entries valid.  Every traced statement that is not
recorded, and every recorded one that the tests now reach, is listed in
REPORT and on stderr.

Code reached only in a subprocess, such as a test that starts the CLI in a
new interpreter, is not traced and shows as unreached.  Tracing slows the
run about threefold, so tests with a wall-clock budget may fail under it.
The exit status is pytest's when pytest fails, else 1 when the traced list
and the recorded one differ, else 0.  The file name does not match
test_*.py, so pytest does not collect it.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sl3f7"
RECORDED = Path(__file__).resolve().with_name("unreached.txt")
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


def unreached_statements(hits: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(file, line, first line stripped) of each statement that no traced frame ran."""
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        missed: list[int] = []
        for stmt in ast.parse(source).body:
            unreached(stmt, hits.get(str(path), set()), missed)
        rel = str(path.relative_to(ROOT))
        rows += [(rel, n, lines[n - 1].strip()) for n in sorted(missed)]
    return rows


def recorded_statements() -> list[tuple[str, str]]:
    """(file, statement) of each entry of tests/unreached.txt; the reason is not compared."""
    entries = []
    for line in RECORDED.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            path, rest = line.split(" | ", 1)
            statement, _reason = rest.rsplit(" | ", 1)
            entries.append((path, statement))
    return entries


def report(found: list[tuple[str, int, str]]) -> str:
    return (f"### Statements under `src/sl3f7/` that the tests never run: {len(found)}\n\n"
            + "".join(f"- `{path}:{n}` `{stmt}`\n" for path, n, stmt in found))


def differences(found: list[tuple[str, int, str]], recorded: list[tuple[str, str]]) -> str:
    """Markdown lines for the statements on one list only; empty when the lists agree."""
    traced = Counter((path, stmt) for path, _, stmt in found)
    new, gone = traced - Counter(recorded), Counter(recorded) - traced
    if not (new or gone):
        return ""
    return (f"\nThis list differs from `{RECORDED.relative_to(ROOT)}`:\n\n"
            + "".join(f"- not recorded: `{path}` `{stmt}`\n" for path, stmt in sorted(new.elements()))
            + "".join(f"- recorded, now run: `{path}` `{stmt}`\n" for path, stmt in sorted(gone.elements())))


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    status, hits = run_traced(argv[1:] or ["-q"])
    found = unreached_statements(hits)
    diff = differences(found, recorded_statements())
    if argv[0] == "-":
        sys.stdout.write(report(found) + diff)
    else:
        with open(argv[0], "a", encoding="utf-8") as out:
            out.write(report(found) + diff)
    sys.stderr.write(diff)
    return status or int(bool(diff))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
