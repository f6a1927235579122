"""The line-trace gate `tools/linetrace.py`: which statements it accounts for,
which lines count for each, and what it prints and returns."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = '''"""A module docstring."""
import os

COUNT = 0


@staticmethod
def f(x,
      y):
    """A docstring."""
    global COUNT
    if (x and
            y):
        return 1
    elif x:
        pass
    else:
        raise ValueError(
            "neither")
    try:
        z = os.sep
    except OSError:
        z = None
    finally:
        COUNT += 1
    return z


class C:
    "A class docstring."

    @property
    def n(self):
        n = 0

        def bump():
            nonlocal n
            n += 1
        bump()
        return n


f.__func__(1, 0)
if __name__ == "__main__":
    f.__func__(1, 2)
'''
# Importing TOY runs f(1, 0): the elif branch and the try, never C().n
UNRUN = ["toy:14: return 1", "toy:18: raise ValueError(", "toy:23: z = None",
         "toy:34: n = 0", "toy:36: def bump():", "toy:38: n += 1", "toy:39: bump()",
         "toy:40: return n"]


@pytest.fixture
def linetrace(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("linetrace_tool",
                                                  os.path.join(ROOT, "tools", "linetrace.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "PACKAGE", str(tmp_path / "pkg"))
    os.mkdir(tool.PACKAGE)
    with open(os.path.join(tool.PACKAGE, "toy.py"), "w", encoding="utf-8") as f:
        f.write(TOY)
    return tool


def _import_toy(tool):
    spec = importlib.util.spec_from_file_location("toy", os.path.join(tool.PACKAGE, "toy.py"))
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    return 0


def test_statement_selection(linetrace):
    spans = {line: (span.start, span.stop - 1) for line, span in
             linetrace.statements(TOY).items()}
    # docstrings (1, 10, 30), `global` (11), `nonlocal` (37) and the __main__
    # body (45) are left out; the guard itself (44) is in
    assert sorted(spans) == [2, 4, 7, 12, 14, 15, 16, 18, 20, 21, 23, 25, 26, 29, 32, 34,
                             36, 38, 39, 40, 43, 44]
    # a compound statement is its decorators and header lines, a simple one all its lines
    assert (spans[7], spans[12], spans[15], spans[18], spans[20], spans[29], spans[32]) == \
        ((7, 9), (12, 13), (15, 15), (18, 19), (20, 20), (29, 29), (32, 33))


def test_unexecuted_statements_under_the_trace(linetrace):
    _, lines = linetrace._trace(lambda: _import_toy(linetrace))
    ran = lines[os.path.realpath(os.path.join(linetrace.PACKAGE, "toy.py"))]
    assert linetrace.unexecuted(TOY, ran) == [14, 18, 23, 34, 36, 38, 39, 40]


@pytest.mark.parametrize("fully_run,status,code", [
    (False, 0, 1), (True, 0, 0), (True, 1, 1)], ids=["listed", "clean", "pytest-failed"])
def test_main_prints_each_unexecuted_statement(linetrace, monkeypatch, capsys,
                                               fully_run, status, code):
    if fully_run:  # only the statements that importing the toy runs
        with open(os.path.join(linetrace.PACKAGE, "toy.py"), "w", encoding="utf-8") as f:
            f.write("import os\nif os.sep:\n    COUNT = 0\n")
    monkeypatch.setattr(pytest, "main", lambda args: _import_toy(linetrace) or status)
    assert linetrace.main(["-q"]) == code
    assert capsys.readouterr().out.splitlines() == ([] if fully_run else UNRUN)
