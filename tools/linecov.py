"""List the statements of ``src/icofridge`` that the tier-1 tests never run.

Usage, from the repository root:

    python tools/linecov.py

Runs ``pytest`` in this process under a ``sys.settrace`` line collector
(standard library only, so it needs no coverage package) and prints every
source statement that no test ran, as ``file:line: source``. It exits 1 when
any of them is not in ``ALLOWED``, or when an ``ALLOWED`` entry no longer
names a statement that is never run; it exits with pytest's own status when
a test fails.

The rule this enforces: a guard on input from a user (a CLI flag, a config
line, or an argument of a name in ``icofridge.__all__`` or in ``cli``) is
fired by a test that matches its message, and a branch that only package
code can reach, where that code already validates the input, is deleted.
Coverage here finds dead guards and untested failure paths; it is not a
target.

A statement counts as run when any line of its header ran: all of a simple
statement's lines, or, for a compound statement, its decorators and the
lines before its body. A multi-line ``if`` condition reports its line
events on the lines that hold code, not always on the ``if`` line itself.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icofridge"

# (file name, statement source with its indent stripped) -> why no tier-1
# test can run it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): (
        "the __main__ body runs only in `python -m icofridge.cli`, which "
        "tests/test_entry_point.py starts as a subprocess this collector does not trace"
    ),
}


def _header_span(node: ast.stmt) -> range:
    """The lines whose execution means ``node`` ran."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> list[tuple[range, str]]:
    """(header span, source of its first line) of every statement in ``path``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    found = []
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, ast.stmt) and not _is_docstring(child, parent):
                found.append((_header_span(child), lines[child.lineno - 1].strip()))
    return sorted(found, key=lambda s: s[0].start)


def run_tests() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the line collector: (pytest's status, lines run per file)."""
    package = str(PACKAGE)
    ran: dict[str, set[int]] = {}
    ours: dict[str, str | None] = {}  # co_filename -> file name, or None if not ours

    def local(frame, event, arg):
        if event == "line":
            ran[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def collect(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            real = os.path.realpath(filename)
            inside = os.path.dirname(real) == package
            ours[filename] = os.path.basename(real) if inside else None
        if ours[filename] is None:
            return None
        ran.setdefault(ours[filename], set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(collect)
    sys.settrace(collect)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main() -> int:
    status, ran = run_tests()
    if status != 0:
        print(f"linecov: pytest exited {status}; no coverage verdict", file=sys.stderr)
        return status
    never: list[tuple[str, int, str]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(path.name, set())
        for span, source in statements(path):
            if lines.isdisjoint(span):
                never.append((path.name, span.start, source))
    unlisted = [s for s in never if (s[0], s[2]) not in ALLOWED]
    stale = set(ALLOWED) - {(s[0], s[2]) for s in never}
    print(f"\nlinecov: {len(never)} statement(s) of src/icofridge never run by tier-1")
    for name, line, source in never:
        reason = ALLOWED.get((name, source))
        tag = f"allowed: {reason}" if reason else "NOT ALLOWED"
        print(f"  {name}:{line}: {source}  [{tag}]")
    for name, source in sorted(stale):
        print(f"  stale allowance, no such never-run statement: {name}: {source}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
