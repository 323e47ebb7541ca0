"""Call census: the functions under ``src/`` that a pytest run never calls.

Run from the repository root, with any pytest arguments (default: the
whole tier-1 suite)::

    PYTHONPATH=src python scripts/census.py [pytest args ...]

It runs pytest in this process while ``sys.setprofile`` and
``threading.setprofile`` record the code object of every Python
function entered, imports and collection included.  An ``ast`` walk
of ``src/`` then lists each function (``def``, ``async def``, methods
and nested functions) whose code object was never entered, with its
line count, and the totals.  A nested function inside a function never
called is counted with its parent, not again on its own.

Not recorded: code run in forked worker processes (the process
backend's workers, whose records die with the child) and code in
threads started before the census.  A function reached only there is
reported as never called.  Profiling slows the suite several times
over, so wall-clock bounds in tests may trip; the report is still
printed, and pytest's exit status is returned.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import threading
from typing import Iterator, List, Set, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (file, first line) of one function: a code object's
#: ``co_firstlineno`` is its first decorator's line, else its ``def``'s.
Key = Tuple[str, int]


def run_recorded(argv: List[str]) -> Tuple[int, Set[Key]]:
    """pytest's exit status, and every function entered while it ran."""
    codes: Set[object] = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        status = pytest.main(argv)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return int(status), {
        (str(pathlib.Path(c.co_filename).resolve()), c.co_firstlineno)
        for c in codes}


def _functions(tree: ast.AST) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
    """Every function definition with the functions enclosing it."""
    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, enclosing
                yield from walk(child, enclosing + [child])
            else:
                yield from walk(child, enclosing)
    yield from walk(tree, [])


def _first_line(fn: ast.AST) -> int:
    return min([fn.lineno] + [d.lineno for d in fn.decorator_list])


def never_called(called: Set[Key]) -> List[Tuple[str, int, str, int]]:
    """``(path, line, name, lines)`` of each function under ``src/``
    never entered, outermost only."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        name = str(path.resolve())
        for fn, enclosing in _functions(tree):
            if (name, _first_line(fn)) in called:
                continue
            if any((name, _first_line(e)) not in called for e in enclosing):
                continue  # counted with the uncalled function around it
            lines = fn.end_lineno - _first_line(fn) + 1
            out.append((str(path.relative_to(ROOT)), _first_line(fn),
                        fn.name, lines))
    return out


def main(argv: List[str]) -> int:
    # Tests import ``tests.*`` from the root, as under ``python -m pytest``.
    sys.path.insert(0, str(ROOT))
    status, called = run_recorded(argv or ["-q", "-p", "no:cacheprovider"])
    missing = never_called(called)
    print("\nFunctions under src/ never called:")
    for path, line, name, lines in missing:
        print(f"  {path}:{line} {name} ({lines} lines)")
    print(f"never called: {len(missing)} functions, "
          f"{sum(m[3] for m in missing)} lines")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
