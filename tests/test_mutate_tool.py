"""The mutation driver `tools/mutate.py`: a logged site names one node of the
source it was numbered from, a log is not resumed over other source, a site
named by its statement follows that statement, and the CI step "Mutation
smoke" names the statements it means."""

import argparse
import ast
import importlib.util
import json
import os
import re
import shlex
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "mutate.py")
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
# The MODULE:FUNCTION:STATEMENT sites that the CI step "Mutation smoke" mutates
SMOKE_SITES = ['projection:IntersectedAlignment.__post_init__:'
               'raise ProjectionError("intersected alignment must be one-to-one")',
               "autodiff:lstm_seq:a += recur[:k]", "autodiff:_adam_run:mb += g",
               "training:train:if restore: np.copyto(model.param_data, best_snapshot)",
               'network:ParserModel.__init__:'
               'self.params["emb/word"].data[word_vocab.id(word)] += vector',
               "autodiff:_adam_run:if id(flat) not in adam.moments: "
               "adam.moments[id(flat)] = (flat, np.zeros(flat.size), np.zeros(flat.size))"]
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


def test_a_site_named_by_its_statement_follows_it_when_lines_move(mutate):
    by_line = mutate._select(argparse.Namespace(targets=["toy:2"], every=1))
    by_statement = mutate._select(argparse.Namespace(targets=["toy:f:return  i + 1"], every=1))
    assert [s["id"] for s in by_statement] == [s["id"] for s in by_line]
    assert {s["kind"] for s in by_line} == {"arith", "const"}
    _edit(mutate)  # two lines above f
    moved = mutate._select(argparse.Namespace(targets=["toy:f:return i + 1"], every=1))
    assert [s["line"] for s in moved] == [4, 4]
    assert [s["id"].split(":", 1)[1] for s in moved] == [
        s["id"].split(":", 1)[1].replace("2:", "4:", 1) for s in by_line]


@pytest.mark.parametrize("spec,matches", [
    ("toy:f:return i - 1", 0), ("toy:g:return i + 1", 0), ("toy:f:i + 1", 0),
    ("toy:f:return i + 1", 2)], ids=["other-text", "other-function", "an-expression",
                                     "two-statements"])
def test_a_statement_that_names_no_single_statement_is_refused(mutate, spec, matches):
    if matches == 2:
        with open(os.path.join(mutate.PACKAGE, "toy.py"), "a", encoding="utf-8") as f:
            f.write("    if i:\n        return i + 1\n")
    with pytest.raises(SystemExit,
                       match=re.escape(f"no site on {spec} ({matches} statements match)")):
        mutate._select(argparse.Namespace(targets=[spec], every=1))


# The driver's scratch copies hold no .github, and their mutated module is
# `ast.unparse`d onto other lines; there the check has nothing to read.
@pytest.mark.skipif(not os.path.exists(WORKFLOW), reason="no CI workflow in this copy")
def test_the_mutation_smoke_lines_hold_their_statements():
    """The step names each site as MODULE:FUNCTION:STATEMENT, so a source edit
    elsewhere in a module does not move it, and each names one statement that
    has a site."""
    with open(WORKFLOW, encoding="utf-8") as f:
        step = f.read().split("- name: Mutation smoke", 1)[1]
    command = next(line for line in step.splitlines() if "tools/mutate.py" in line)
    targets = [arg for arg in shlex.split(command) if arg.count(":") >= 2]
    assert targets == SMOKE_SITES
    tool = _load_tool()
    chosen = tool._select(argparse.Namespace(targets=targets, every=1))
    assert sorted(site["module"] for site in chosen) == ["autodiff", "autodiff", "autodiff",
                                                         "network", "projection", "training"]
