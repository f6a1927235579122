"""Statements of src/sdpkit that the tier-1 suite never runs, with the standard
library only (pytest is the suite's own runner).

    python tools/linetrace.py                          # the whole suite, quietly
    python tools/linetrace.py -q -x tests/test_cli.py  # these pytest arguments

The suite runs in this process's main thread under `sys.settrace`; only
frames whose code lives in src/sdpkit are traced line by line, and code that
a test runs in another thread or process is not seen. Every statement of
every module must then have had a line event on one of its own lines: a
simple statement's lines, or a compound statement's header (decorators and
the lines before its first inner statement). Each statement that had none is printed as
`module:line: text`. Three kinds are not counted, since they compile to no
code or are not run by importing: `global` and `nonlocal` declarations,
docstrings, and the body of `if __name__ == "__main__":`. The exit status is
1 if a statement is listed, else pytest's own.
"""

from __future__ import annotations

import ast
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sdpkit")


def _docstring(node, body) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _main_guard(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _first_line(node) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def statements(source: str) -> dict[int, range]:
    """The statements of `source` that must run, by first line, each with the
    lines whose events count as running it."""
    spans: dict[int, range] = {}

    def visit(body, may_have_docstring: bool):
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    may_have_docstring and _docstring(node, body)):
                continue
            first = _first_line(node)
            blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            blocks += [case.body for case in getattr(node, "cases", [])]
            inner = [block for block in blocks if block]
            if not inner:
                spans[first] = range(first, node.end_lineno + 1)
                continue
            spans[first] = range(first, max(node.lineno, _first_line(inner[0][0]) - 1) + 1)
            scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for block in inner:
                if not (block is node.body and _main_guard(node)):
                    visit(block, scope and block is node.body)

    visit(ast.parse(source).body, True)
    return spans


def unexecuted(source: str, ran: set[int]) -> list[int]:
    """First lines of the statements of `source` with no line in `ran`."""
    return sorted(line for line, span in statements(source).items()
                  if ran.isdisjoint(span))


def _trace(run):
    """`run()` under a line trace of the package's frames; returns its result
    and the lines run, by file."""
    lines: dict[str, set[int]] = {}
    wanted: dict[str, set[int] | None] = {}
    prefix = os.path.realpath(PACKAGE) + os.sep

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in wanted:
            path = os.path.realpath(filename)
            wanted[filename] = lines.setdefault(path, set()) if path.startswith(prefix) else None
        ran = wanted[filename]
        if ran is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return on_line

        return on_line

    outer = sys.gettrace()  # a trace this one runs inside, as under its own test
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(outer)
    return result, lines


def main(pytest_args: list[str]) -> int:
    status, lines = _trace(lambda: pytest.main(pytest_args))
    listed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        text = source.splitlines()
        for line in unexecuted(source, lines.get(os.path.realpath(path), set())):
            print(f"{name[:-3]}:{line}: {text[line - 1].strip()}")
            listed += 1
    print(f"linetrace: {listed} unexecuted statements in src/sdpkit; pytest exit status "
          f"{int(status)}", file=sys.stderr)
    return 1 if listed else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["-q", os.path.join(ROOT, "tests")]))
