"""Benchmark of sdpkit, run from the root of a source checkout.

    python3 bench/run.py --workload train-paper --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see BENCHMARK.json for why each was chosen):
  train-paper    single-task training at the paper's dimensions
  parse-paper    checkpoint load plus inference at the paper's dimensions
  pipeline-desk  synth -> intersect -> project -> split -> train -> parse -> score
                 through `sdpkit.cli.main`, multitask, at desk dimensions

Each run does a fixed number of timed units of work and checks every unit's
outputs outside the timed regions. Set-ups are timed in groups spread among
the units, and their median is `setup_s`. The number of units is `--seconds` divided
by the workload's nominal unit time, rounded up, so one seed always does the
same work and reports the same `attempted` and `failed` counts. With
`--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1`, set-up plus one unit runs alternately untraced and under the
tracer of `tracer.py`, and the last line carries the per-layer metrics.
Earlier stdout lines give provenance, the workload's own figures (with units)
and the output digest.

Everything runs in this process on one thread, in float64. The package is
imported from `src/` of the checkout this file sits in; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".benchrun"
WORKLOAD_NAMES = ("train-paper", "parse-paper", "pipeline-desk")
SETUP_GROUPS = 5     # places among the units where set-ups are timed
SETUP_SECONDS = 1.0  # set-up time to aim for over all groups; each group makes
SETUP_MAX = 25       # at least one set-up, and all together at most about this many
GRADCHECK_TOLERANCE = 1e-4

# Units of the workload figures printed before the result line; these carry
# the per-workload metrics the result line cannot (it holds only the metrics
# BENCHMARK.json lists, and every workload must report every one of them).
FIGURE_UNITS = {
    "train_tok_s": "tok/s", "parse_tok_s": "tok/s", "pipeline_s": "s", "epochs": "count",
    "train_loss": "nats/tok", "heldout_lf": "F1", "best_heldout_lf": "F1", "lf": "F1",
    "failed_ratio": "ratio", "gradcheck_max_rel_error": "ratio",
}


def import_sdpkit():
    """Import sdpkit from this checkout's src/, never from anywhere else."""
    if not (SRC / "sdpkit" / "__init__.py").is_file():
        print(f"bench: no sdpkit sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import sdpkit
    import sdpkit.cli
    if Path(sdpkit.__file__).resolve().parent != SRC / "sdpkit":
        print(f"bench: imported sdpkit from {sdpkit.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return sdpkit


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over src/**/*.py, which identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed, "sizes": workload.sizes(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_sha": _git_sha(), "src_sha256": _source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def unit_count(workload, seconds: float) -> int:
    """Units of work that take about `seconds` at the workload's nominal speed."""
    return max(1, math.ceil(seconds / workload.unit_seconds))


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result object plus the run's details."""
    sdpkit = import_sdpkit()
    import numpy as np
    import tracer as tracing
    from workloads import WORKLOADS

    if sdpkit.autodiff.default_dtype() is not np.float64:
        raise SystemExit("bench: the default dtype must be float64")
    workload = WORKLOADS[name](seed, tiny=tiny)
    clock = time.perf_counter
    RUN_DIR.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR)
    problems, units, setup_times = [], [], []
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}  # unit wall times, untraced and traced

    def traced_unit(traced: bool):
        """Setup plus one unit, under the tracer when `traced`; returns (state, unit)."""
        if traced:
            tracer.install(sdpkit)
        try:
            start = clock()
            root = tracer.begin("bench.unit") if traced else None
            state = workload.setup(run_dir)
            unit = workload.run(state)
            if traced:
                tracer.end(root)
            walls[traced].append(clock() - start)
        finally:
            if traced:
                tracer.uninstall()
        return state, unit

    def timed_setups(goal: float, cap: int):
        """Set-ups until `goal` seconds of them were timed, at least one and at
        most `cap`; returns the state of the last one."""
        spent, state = 0.0, None
        for _ in range(cap):
            state = None  # free the previous state before building the next
            start = clock()
            state = workload.setup(run_dir)
            setup_times.append(clock() - start)
            spent += setup_times[-1]
            if spent >= goal:
                break
        return state

    try:
        if trace:
            timed_setups(SETUP_SECONDS, SETUP_MAX)  # a warm-up; setup_s is not reported
            # untraced and traced units alternate, so drift in machine speed
            # affects both sides of trace.overhead_ratio alike
            for _ in range(unit_count(workload, seconds / 2)):
                for traced in (False, True):
                    state = None
                    state, unit = traced_unit(traced)
                    problems += workload.check(state, unit)
                    units.append(unit)
            timed = units
        else:
            warmup = 1 if workload.warmup else 0
            total = warmup + unit_count(workload, seconds)
            # Set-ups are timed before the first unit, after the last, and at
            # evenly spaced units between, so that setup_s spans the run as
            # tok_s does and samples more than one phase of the machine's speed.
            # Set-ups after training are faster; the places depend only on the
            # unit count, so their share of setup_s is the same in every run.
            groups = {round(i * total / (SETUP_GROUPS - 1)) for i in range(SETUP_GROUPS)}
            goal, cap = SETUP_SECONDS / len(groups), math.ceil(SETUP_MAX / len(groups))
            state = None
            for k in range(total):
                if k in groups:
                    state = None
                    state = timed_setups(goal, cap)
                elif workload.fresh_state:
                    state = None
                    state = workload.setup(run_dir)
                unit = workload.run(state)
                problems += workload.check(state, unit)
                units.append(unit)
            timed = units[warmup:]
            state = None
            timed_setups(goal, cap)  # `total` is always one of the groups
        state = None
        gradcheck = sdpkit.cli.run_gradcheck()
        if gradcheck.max_rel_error > GRADCHECK_TOLERANCE:
            problems.append(f"gradient check failed: {gradcheck.max_rel_error:.3e}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    digests = {u.digest for u in units if u.digest}
    if len(digests) > 1:
        problems.append(f"units of one seed gave {len(digests)} different digests")
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    if trace:
        values = tracer.metrics(len(walls[True]), statistics.median(walls[True]),
                                statistics.median(walls[False]))
        metrics = {k: {"value": values[k], "unit": unit_name}
                   for k, unit_name in tracing.PER_LAYER_METRICS.items()}
    else:
        tok_s = [u.tokens / u.wall for u in timed if u.tokens]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "tok_s": {"value": statistics.median(tok_s) if tok_s else 0.0, "unit": "tok/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    figures = _figures(timed, failed, attempted)
    figures["gradcheck_max_rel_error"] = float(gradcheck.max_rel_error)
    return {
        "result": {"correct": not problems, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "provenance": provenance(workload, seed),
        "figures": figures,
        "digest": sorted(digests),
        "problems": problems,
        "units": len(units),
        "warmup_units": len(units) - len(timed),
        "unit_walls": [u.wall for u in units],
        "setup_times": setup_times,
        "restored": tracer.restored if tracer else [],
    }


def _figures(units, failed: int, attempted: int) -> dict:
    """Medians over units of the workload's own figures, with the failure ratio."""
    keys = {k for u in units for k, v in u.report.items() if isinstance(v, (int, float))}
    out = {k: statistics.median(u.report[k] for u in units if k in u.report)
           for k in sorted(keys)}
    out["failed_ratio"] = failed / attempted
    return out


def _print_run(out: dict):
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    for key, value in out["figures"].items():
        print(f"figure {key} {value!r} {FIGURE_UNITS[key]}")
    print(f"units {out['units']} warmup {out['warmup_units']} "
          f"setups {len(out['setup_times'])} unit_walls "
          + " ".join(f"{w:.4f}" for w in out["unit_walls"]))
    print("digest " + " ".join(out["digest"]))
    for problem in out["problems"]:
        print(f"problem {problem}")
    print(json.dumps(out["result"], sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process, one after another; prints a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if done.returncode != 0 or not lines:
            print(f"[{name}] exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<15} {'metric':<40} {'value':>14}  unit")
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name:<15} {key:<40} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<15} {'correct / attempted / failed':<40} "
              f"{str(res['correct']):>14}  {res['attempted']} / {res['failed']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        import_sdpkit()  # fail early, before starting any process
        return run_all(args)
    _print_run(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
