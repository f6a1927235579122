"""The mutation driver `tools/mutate.py`: a logged site names one node of the
source it was numbered from, a log is not resumed over other source, and the
CI step "Mutation smoke" names lines that hold the statements it means."""

import argparse
import ast
import importlib.util
import json
import os
import re
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "mutate.py")
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
# The statement at each MODULE:LINE that the CI step "Mutation smoke" mutates
SMOKE_STATEMENTS = {"projection": 'raise ProjectionError("intersected alignment must be one-to-one")',
                    "autodiff": "a += recur[:k]"}
TOY = "def f(i):\n    return i + 1\n"
EDITED = "import os\nx = 2 - 1\n" + TOY


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutate_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture
def mutate(tmp_path, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "PACKAGE", str(tmp_path / "pkg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # the run's scratch copies
    os.mkdir(tool.PACKAGE)
    with open(os.path.join(tool.PACKAGE, "toy.py"), "w", encoding="utf-8") as f:
        f.write(TOY)
    return tool


def _edit(tool):
    with open(os.path.join(tool.PACKAGE, "toy.py"), "w", encoding="utf-8") as f:
        f.write(EDITED)


def _arith_site(tool):
    chosen = tool._select(argparse.Namespace(targets=["toy"], every=1))
    return next(s for s in chosen if s["kind"] == "arith")


def test_a_site_mutates_its_node_after_the_module_is_edited(mutate):
    site = _arith_site(mutate)
    _edit(mutate)
    source, change = mutate.mutant_source(site)
    assert change == "i + 1 -> i - 1"
    assert source == ast.unparse(ast.parse(TOY.replace("i + 1", "i - 1")))


def test_a_resume_refuses_a_module_whose_source_changed(mutate, tmp_path, capsys):
    site = _arith_site(mutate)
    log = tmp_path / "log.jsonl"
    log.write_text(json.dumps({"id": site["id"], "module": "toy", "line": site["line"],
                               "kind": "arith", "change": "i + 1 -> i - 1",
                               "sha256": site["sha256"], "outcome": "killed:own:fail",
                               "seconds": 0.0}) + "\n")
    _edit(mutate)
    with pytest.raises(SystemExit) as stop:
        mutate.main(["--log", str(log), "toy"])
    assert stop.value.code == 2
    assert "toy" in capsys.readouterr().err


def test_a_resume_over_the_same_source_runs_nothing_logged(mutate, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(mutate, "_scratch_copy",
                        lambda base: pytest.fail("a finished resume makes no scratch copy"))
    chosen = mutate._select(argparse.Namespace(targets=["toy"], every=1))
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps({"id": s["id"], "module": "toy", "line": s["line"],
                                       "kind": s["kind"], "change": "", "sha256": s["sha256"],
                                       "outcome": "killed:own:fail", "seconds": 0.0}) + "\n"
                           for s in chosen))
    assert mutate.main(["--log", str(log), "toy"]) == 0
    assert f"toy\t{len(chosen)}\t{len(chosen)}\t0" in capsys.readouterr().out


def test_a_line_without_a_site_is_refused(mutate):
    with pytest.raises(SystemExit, match="no site on toy:1"):
        mutate._select(argparse.Namespace(targets=["toy:1"], every=1))


# The driver's scratch copies hold no .github, and their mutated module is
# `ast.unparse`d onto other lines; there the check has nothing to read.
@pytest.mark.skipif(not os.path.exists(WORKFLOW), reason="no CI workflow in this copy")
def test_the_mutation_smoke_lines_hold_their_statements():
    """A source edit that moves a smoke site's line fails here until the
    workflow's MODULE:LINE follows it."""
    with open(WORKFLOW, encoding="utf-8") as f:
        step = f.read().split("- name: Mutation smoke", 1)[1]
    command = next(line for line in step.splitlines() if "tools/mutate.py" in line)
    targets = re.findall(r"\b([a-z_]+):(\d+)\b", command)
    assert sorted(module for module, _ in targets) == sorted(SMOKE_STATEMENTS)
    tool = _load_tool()
    for module, line in targets:
        with open(os.path.join(tool.PACKAGE, module + ".py"), encoding="utf-8") as f:
            source = f.read()
        assert source.splitlines()[int(line) - 1].strip() == SMOKE_STATEMENTS[module], module
        assert any(site["line"] == int(line) for site in tool.sites(module, source)), module
