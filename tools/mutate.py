"""One-node mutation testing of src/sdpkit, with the standard library only.

    python tools/mutate.py --count                    # sites per module; runs nothing
    python tools/mutate.py --log results.jsonl        # every site of every module
    python tools/mutate.py --log results.jsonl graph cli:297
    python tools/mutate.py --log results.jsonl "autodiff:lstm_seq:a += recur[:k]"
    python tools/mutate.py --log results.jsonl --every 3   # a third of each module

A site is one AST node that a mutant changes:
  cmp    a comparison flipped: < and <=, > and >=, == and !=
  not    the test of an if, while or conditional expression negated
  bool   `and` and `or` swapped
  arith  + and - swapped, in an expression or an augmented assignment
  const  a number nudged: 0 -> 1, 1 -> 0, n -> n + 1
  raise  a raise statement replaced by pass

A positional MODULE runs that module's sites, MODULE:LINE only the sites on
that line (a line with none is refused), and MODULE:FUNCTION:STATEMENT the
sites of the one statement in FUNCTION (a dotted name such as Class.method or
outer.inner) whose source is STATEMENT, whitespace aside; such a site does not
move when lines above it do. A name that matches no statement with a site, or
more than one statement, is refused. Each module's source is read once,
when its sites are numbered, and every mutant of it is made from that text,
so an edit during a run moves no mutant onto another node. The mutated module
is that source's `ast.unparse` with the one node changed, and the unmutated
`ast.unparse` must pass first. It is written into one of two scratch copies
of src/, tests/, bench/ and tools/ (made under TMPDIR), so at most two mutants
run at a time. Each mutant runs the module's own test file with -x
--hypothesis-seed=0, then the rest of the suite if it survived. A child that
fails, times out (TIMEOUT seconds) or hits the address-space limit (MEMORY
bytes, set in the child) kills the mutant. Each result is appended to --log
as one JSON line with the sha256 of the module source it was made from, and
sites already in the log are not run again; a log that holds another source
of a chosen module is refused (exit 2), since its site ids number other code.
The run ends with a per-module table and the list of survivors.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from queue import Queue

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sdpkit")
WORKERS = 2
TIMEOUT = 60
MEMORY = 2 << 30

_FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add}


def _number(node) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and not isinstance(node.value, bool))


def _sites(node) -> list[tuple[str, int]]:
    """The (kind, operand index) mutations that apply to `node`."""
    if isinstance(node, ast.Compare):
        return [("cmp", i) for i, op in enumerate(node.ops) if type(op) in _FLIP]
    if isinstance(node, (ast.If, ast.While, ast.IfExp)):
        return [("not", 0)]
    if isinstance(node, ast.BoolOp):
        return [("bool", 0)]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _ARITH:
        return [("arith", 0)]
    if _number(node):
        return [("const", 0)]
    if isinstance(node, ast.Raise):
        return [("raise", 0)]
    return []


def _mutate(node, kind: str, i: int):
    """Change `node` in place (or return its replacement)."""
    if kind == "cmp":
        node.ops[i] = _FLIP[type(node.ops[i])]()
    elif kind == "not":
        node.test = ast.UnaryOp(op=ast.Not(), operand=node.test)
    elif kind == "bool":
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif kind == "arith":
        node.op = _ARITH[type(node.op)]()
    elif kind == "const":
        node.value = {0: 1, 1: 0}.get(node.value, node.value + 1)
    else:
        return ast.Pass()
    return node


class _Replace(ast.NodeTransformer):
    def __init__(self, target, kind, i):
        self.target, self.kind, self.i = target, kind, i

    def visit(self, node):
        if node is self.target:
            return _mutate(node, self.kind, self.i)
        return self.generic_visit(node)


def sites(module: str, source: str) -> list[dict]:
    """Every site of `module`'s `source`, numbered in `ast.walk` order. Each
    site holds that source and its sha256, from which its mutant is made."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    found = []
    for n, node in enumerate(ast.walk(ast.parse(source))):
        for kind, i in _sites(node):
            where = f"{node.lineno}:{node.col_offset}-{node.end_col_offset}"
            found.append({"module": module, "node": n, "kind": kind, "i": i,
                          "line": node.lineno, "id": f"{module}:{where}:{kind}:{i}",
                          "source": source, "sha256": digest})
    return found


def statement_lines(source: str, function: str, statement: str) -> list[range]:
    """The line span of each statement of `function` (a dotted name of
    enclosing classes and functions) whose source is `statement`, whitespace
    aside."""
    want = " ".join(statement.split())
    spans = []

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if name == function:
                    spans.extend(range(stmt.lineno, stmt.end_lineno + 1)
                                 for stmt in ast.walk(child) if isinstance(stmt, ast.stmt)
                                 and " ".join(ast.get_source_segment(source, stmt).split())
                                 == want)
                visit(child, name + ".")

    visit(ast.parse(source), "")
    return spans


def mutant_source(site: dict) -> tuple[str, str]:
    """The source of `site`'s mutant, and a one-line before -> after."""
    tree = ast.parse(site["source"])
    target = next(node for n, node in enumerate(ast.walk(tree)) if n == site["node"])
    before = ast.unparse(target).split("\n")[0]
    tree = _Replace(target, site["kind"], site["i"]).visit(tree)
    after = ast.unparse(target if site["kind"] != "raise" else ast.Pass())
    return ast.unparse(tree), f"{before[:70]} -> {after.split(chr(10))[0][:70]}"


def _pytest(work: str, args: list[str]) -> str:
    """Run pytest in `work` under the limits: 'pass', 'fail' or 'timeout'."""
    shutil.rmtree(os.path.join(work, ".hypothesis"), ignore_errors=True)
    launcher = ("import resource, sys, pytest; "
                f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY}, {MEMORY})); "
                "sys.exit(pytest.main(sys.argv[1:]))")
    argv = [sys.executable, "-c", launcher, "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", f"--basetemp={work}/tmp", *args]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    try:
        done = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def _own_tests(module: str) -> list[str]:
    own = f"tests/test_{module}.py"
    return [own] if os.path.exists(os.path.join(ROOT, own)) else []


def run(site: dict, work: str, source: str | None = None) -> dict:
    """Run one mutant in the scratch copy `work` (the unmutated module when
    `source` is given) and return its result."""
    path = os.path.join(work, "src", "sdpkit", site["module"] + ".py")
    change = "baseline"
    if source is None:
        source, change = mutant_source(site)
    with open(path, encoding="utf-8") as f:
        original = f.read()
    start = time.perf_counter()
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        own = _own_tests(site["module"])
        outcome = _pytest(work, own) if own else "pass"
        stage = "own"
        if outcome == "pass":
            rest = [f"--ignore={t}" for t in own]
            outcome, stage = _pytest(work, ["tests", *rest]), "tier1"
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(original)
    return {"id": site["id"], "module": site["module"], "line": site["line"],
            "kind": site["kind"], "change": change, "sha256": site["sha256"],
            "outcome": "survived" if outcome == "pass" else f"killed:{stage}:{outcome}",
            "seconds": round(time.perf_counter() - start, 1)}


def _scratch_copy(base: str) -> str:
    work = tempfile.mkdtemp(dir=base)
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "bench", "tools"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(work, name), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), work)
    return work


def _select(args) -> list[dict]:
    modules = sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py"))
    chosen, sources = [], {}
    for spec in args.targets or modules:
        module, _, line = spec.partition(":")
        if module not in modules:
            sys.exit(f"mutate: no module {module!r}")
        if module not in sources:
            with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as f:
                sources[module] = f.read()
        found = sites(module, sources[module])
        if ":" in line:
            spans = statement_lines(sources[module], *line.split(":", 1))
            found = [s for s in found if len(spans) == 1 and s["line"] in spans[0]]
        elif line:
            found = [s for s in found if s["line"] == int(line)]
        if line and not found:
            sys.exit(f"mutate: no site on {spec}" + (f" ({len(spans)} statements match)"
                                                     if ":" in line else ""))
        chosen += found[::args.every]
    return chosen


def _table(results: list[dict]) -> None:
    print("module\tsites run\tkilled\tsurvived")
    for module in sorted({r["module"] for r in results}):
        mine = [r for r in results if r["module"] == module]
        alive = sum(r["outcome"] == "survived" for r in mine)
        print(f"{module}\t{len(mine)}\t{len(mine) - alive}\t{alive}")
    for r in results:
        if r["outcome"] == "survived":
            print(f"SURVIVED {r['id']}  {r['change']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("targets", nargs="*",
                   help="MODULE, MODULE:LINE or MODULE:FUNCTION:STATEMENT (default: all)")
    p.add_argument("--count", action="store_true", help="list the sites; run nothing")
    p.add_argument("--log", help="JSON-lines results; sites already in it are skipped")
    p.add_argument("--every", type=int, default=1, metavar="N",
                   help="sample each module's sites 0, N, 2N, ... (default: all)")
    args = p.parse_args(argv)
    if args.every < 1:
        p.error("--every must be at least 1")
    chosen = _select(args)
    if args.count:
        by_module: dict[str, int] = {}
        for s in chosen:
            by_module[s["module"]] = by_module.get(s["module"], 0) + 1
        for module, n in sorted(by_module.items(), key=lambda kv: -kv[1]):
            print(f"{module}\t{n}")
        print(f"total\t{len(chosen)}")
        return 0
    done = []
    if args.log and os.path.exists(args.log):
        with open(args.log, encoding="utf-8") as f:
            done = [json.loads(line) for line in f]
    digests = {s["module"]: s["sha256"] for s in chosen}
    for r in done:
        if r["module"] in digests and r.get("sha256") != digests[r["module"]]:
            p.exit(2, f"mutate: {r['module']} is not the source {args.log} was run on "
                      f"(sha256 differs); start a new log\n")
    seen = {r["id"] for r in done}
    todo = [s for s in chosen if s["id"] not in seen]
    if todo:  # a finished resume makes no scratch copies
        done += _run_all(todo, args.log)
    _table([r for r in done if r["id"] in {s["id"] for s in chosen}])
    return 0


def _run_all(todo: list[dict], log_path: str | None) -> list[dict]:
    """Run every site of `todo` in two scratch copies, baselines first;
    appends each result to `log_path` as it comes and returns them all."""
    base = tempfile.mkdtemp(prefix="mutate-")
    free: Queue = Queue()

    def one(site, source=None):
        work = free.get()
        try:
            return run(site, work, source)
        finally:
            free.put(work)

    results = []
    log = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for _ in range(WORKERS):
            free.put(_scratch_copy(base))
        for module in sorted({s["module"] for s in todo}):
            first = next(s for s in todo if s["module"] == module)
            check = one({**first, "id": f"{module}:baseline", "line": 0, "kind": "baseline"},
                        ast.unparse(ast.parse(first["source"])))
            if check["outcome"] != "survived":
                sys.exit(f"mutate: the unmutated {module} fails its tests: {check}")
        with ThreadPoolExecutor(WORKERS) as pool:
            for result in pool.map(one, todo):
                results.append(result)
                print(f"{result['outcome']:<22} {result['id']}  {result['change']}",
                      flush=True)
                if log:
                    log.write(json.dumps(result) + "\n")
                    log.flush()
    finally:
        if log:
            log.close()
        shutil.rmtree(base, ignore_errors=True)
    return results


if __name__ == "__main__":
    sys.exit(main())
