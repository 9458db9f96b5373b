"""List the statements of ``src/chiralplate`` that no test executes.

Runs the test suite in this process, as ``pytest.main(["tests"])`` from the
repository root, with a line tracer on every frame of a file under
``src/chiralplate``, then prints ``file:line statement`` for each statement
(found with ``ast``, docstrings excluded) on whose lines no trace event fell.
Standard library only; code that the tests run in a subprocess counts as
untested. Usage::

    python tools/untested_lines.py [extra pytest arguments]
"""

import ast
import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "chiralplate")


def statement_lines(tree):
    """``(first, last, node)`` per statement; the line range is the
    statement's own, without the statements of its bodies, and starts at the
    first decorator of a decorated definition."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        bodies = [s.lineno for f in ("body", "orelse", "finalbody", "handlers")
                  for s in getattr(node, f, []) if isinstance(s, ast.AST)]
        last = min(bodies) - 1 if bodies else node.end_lineno
        yield first, max(first, last), node


def docstrings(tree):
    """The ``Expr`` nodes that are docstrings of a module, class or function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                yield first


def main(args):
    hit = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None

    import pytest

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["tests", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    untested = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read()
        tree = ast.parse(source)
        skip = set(map(id, docstrings(tree)))
        lines = source.splitlines()
        for first, last, node in sorted(statement_lines(tree), key=lambda s: s[0]):
            if id(node) in skip or hit[path] & set(range(first, last + 1)):
                continue
            untested += 1
            rel = os.path.relpath(path, ROOT)
            print(f"{rel}:{node.lineno} {lines[node.lineno - 1].strip()}")
    print(f"{untested} untested statements (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
