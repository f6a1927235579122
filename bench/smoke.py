"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 bench/smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json names, in
both modes; that the traced run shows the separation the workloads were chosen
for; that the tracer puts every wrapped name back and untraced runs install
nothing; and that without `src/` the benchmark fails without printing a result.
It is not collected by pytest, so the repository's test suite is unaffected.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the thread variables before numpy loads
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Per workload: per-layer metrics that must be positive, and ones that must be zero.
EXPECT = {
    "train-paper": (
        ["autodiff.lstm_seq.layer0.bwd_s", "autodiff.lstm_seq.layer2.fwd_s",
         "autodiff.lstm_seq.char.bwd_s", "autodiff.bilinear.label.bwd_s",
         "autodiff.adam_step_s", "autodiff.adam_steps", "autodiff.backward_s",
         "autodiff.op_calls_per_token", "network.model_init_s", "network.encode_s",
         "training.semantic_loss_s", "training.evaluate_semantic_s",
         "training.decode_semantic_s", "projection.project_s",
         "projection.decided_cell_ratio", "synth.synth_corpus_s", "trace.overhead_ratio"],
        ["training.syntactic_loss_s", "cli.train_s", "network.checkpoint_load_s"]),
    "parse-paper": (
        ["autodiff.lstm_seq.layer1.fwd_s", "autodiff.bilinear.label.fwd_s",
         "network.checkpoint_save_s", "network.checkpoint_load_s", "formats.write_s",
         "formats.write_rejected", "training.decode.cyclic_ratio",
         "training.decode.edges_per_token", "evaluation.score_graphs_s"],
        ["autodiff.lstm_seq.layer0.bwd_s", "autodiff.lstm_seq.char.bwd_s",
         "autodiff.bilinear.edge.bwd_s", "autodiff.backward_s", "autodiff.adam_step_s",
         "autodiff.adam_steps", "training.semantic_loss_s", "cli.parse_s"]),
    "pipeline-desk": (
        [f"cli.{step}_s" for step in ("synth", "intersect", "project", "split", "train",
                                      "parse", "score")]
        + ["training.syntactic_loss_s", "training.semantic_loss_s", "formats.read_s",
           "formats.write_s", "projection.intersect_s", "evaluation.score_graphs_s",
           "network.checkpoint_save_s", "network.checkpoint_load_s",
           "network.char_cache_hit_ratio", "autodiff.lstm_seq.char.bwd_s"],
        []),
}


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def check_metrics(name: str, out: dict, spec: list[dict]):
    result = out["result"]
    assert result["correct"], (name, out["problems"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, (name, set(metrics) ^ {
        m["name"] for m in spec})
    for m in spec:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"], (name, m["name"])
        assert isinstance(value["value"], float) and math.isfinite(value["value"]), (
            name, m["name"], value)


def main() -> int:
    sdpkit = run.import_sdpkit()
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.PER_LAYER_METRICS

    install = tracer.Tracer.install

    def refuse(self, package):
        raise AssertionError("an untraced run installed the tracer")

    for name in run.WORKLOAD_NAMES:
        tracer.Tracer.install = refuse
        try:
            out = run.run_workload(name, seed=3, seconds=0.01, trace=False, tiny=True)
        finally:
            tracer.Tracer.install = install
        check_metrics(name, out, BENCHMARK["end_to_end"])
        assert out["restored"] == []

        out = run.run_workload(name, seed=3, seconds=0.01, trace=True, tiny=True)
        check_metrics(name, out, BENCHMARK["per_layer"])
        assert out["restored"], "the traced run wrapped nothing"
        for owner, attr, original in out["restored"]:
            assert current(owner, attr) is original, f"{owner}.{attr} was not restored"
        assert not hasattr(sdpkit.autodiff.lstm_seq, "__wrapped__")
        assert not hasattr(sdpkit.training.score_graphs, "__wrapped__")
        values = {k: v["value"] for k, v in out["result"]["metrics"].items()}
        positive, zero = EXPECT[name]
        for key in positive:
            assert values[key] > 0, (name, key, values[key])
        for key in zero:
            assert values[key] == 0, (name, key, values[key])
        print(f"smoke: {name} ok ({len(values)} per-layer metrics)")

    # Without src/ the benchmark must fail and print no result.
    run.RUN_DIR.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.RUN_DIR)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                               "train-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180,
                              env={**os.environ, "PYTHONPATH": ""})
        assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
