"""The three benchmark workloads, each driving sdpkit through its public API.

A workload has a `setup` that builds everything the timed work needs, a `run`
that does the timed work once (one "unit") and a `check` that verifies the
unit's outputs outside every timed region. Inputs are generated from the
workload seed; the same seed gives the same inputs, and every unit of one run
must produce the same digest.

train-paper and parse-paper draw one synth sentence per entry of a fixed
length profile, so that every seed has the same token count and packing and
their throughput compares across seeds; only the content varies with the seed.

A run does a fixed amount of work: `unit_seconds` is the time one unit took on
a shared 2-core x86-64 box, and the runner turns `--seconds` into a number of
units with it. A workload with `warmup` runs one more unit before the timed
ones, outside the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

import sdpkit
import sdpkit.cli
from sdpkit.errors import FormatError, TrainingDiverged
from sdpkit.formats import SdpDocument, read_conllu, read_sdp
from sdpkit.network import (SEMANTIC, NetworkConfig, ParserModel, build_vocabs,
                            semantic_label_vocab)
from sdpkit.synth import DEFAULT_LABELS, SynthConfig
from sdpkit.training import TrainConfig

clock = time.perf_counter

PAPER = NetworkConfig()
# Dropout off at desk size: with it, held-out LF stayed 0 for 4-5 epochs on
# 80 sentences, and a pipeline that learns nothing cannot check its scoring.
DESK = NetworkConfig(word_dim=32, pos_dim=16, rnn_size=64, fnn_size=64, word_dropout=0.0,
                     recurrent_dropout=0.0, edge_dropout=0.0, label_dropout=0.0)
TINY = NetworkConfig(word_dim=8, pos_dim=4, rnn_size=8, fnn_size=8)


@dataclass
class Unit:
    """What one timed unit of work produced."""

    tokens: int            # tokens the throughput metric counts
    wall: float            # seconds of the timed region
    attempted: int
    failed: int
    report: dict = field(default_factory=dict)   # figures printed beside the result
    outputs: list = field(default_factory=list)  # predicted graphs, for the checks
    digest: str = ""       # trained parameters and predictions, set by the check


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
    return h.hexdigest()


def params_digest(model: ParserModel) -> str:
    return _sha(*(item for name in sorted(model.params)
                  for item in (name, model.params[name].data.tobytes())))


def graphs_digest(graphs) -> str:
    return _sha(*(repr(g.sorted_edges()) for g in graphs))


def synth_by_length(lengths, seed: int):
    """One synth sentence per entry of `lengths`, projected through intersected alignments.

    Returns (sentence, projected partial graph, full target gold) triples.
    Sentence k comes from synth seed `seed * 1000 + k`.
    """
    items = []
    for k, n in enumerate(lengths):
        corpus = sdpkit.synth.synth_corpus(SynthConfig(sentences=1, min_len=n, max_len=n,
                                                       density=0.8, seed=seed * 1000 + k))
        sentence = corpus.target_sentences[0]
        alignment = sdpkit.projection.intersect_alignments(corpus.forward.links[0],
                                                           corpus.backward.links[0])
        projected = sdpkit.projection.project_graph(corpus.source.graphs()[0], alignment,
                                                    sentence)
        items.append((sentence, projected, corpus.target_gold.graphs()[0]))
    return items


def new_model(config: NetworkConfig, sentences, seed: int) -> ParserModel:
    words, chars, pos = build_vocabs(sentences)
    return ParserModel(config, {SEMANTIC: semantic_label_vocab(DEFAULT_LABELS)},
                       words, chars, pos, seed=seed)


def roundtrip_problems(graphs) -> list[str]:
    """Every writable graph must come back from write_sdp -> read_sdp unchanged."""
    problems = []
    for k, graph in enumerate(graphs):
        buf = io.StringIO()
        try:
            sdpkit.formats.write_sdp(SdpDocument(((f"s{k + 1:05d}", graph),)), buf)
        except FormatError:
            continue
        back = read_sdp(io.StringIO(buf.getvalue())).graphs()
        if back != [graph]:
            problems.append(f"graph {k + 1} changed in a write_sdp/read_sdp round trip")
    return problems


# ---------------------------------------------------------------------------


class TrainPaper:
    """Single-task semantic training at the paper's dimensions, dropout on."""

    name = "train-paper"
    fresh_state = True  # every unit trains a freshly initialised model
    unit_seconds = 5.0
    warmup = True
    # Shuffling and dropout use this seed, not the workload seed, so that every
    # workload seed packs the same minibatches and makes the same number of
    # Adam steps; the workload seed still draws the sentences and the weights.
    TRAIN_SEED = 0

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.config = TINY if tiny else PAPER
        self.train_lengths = (5, 6, 7) if tiny else tuple(range(5, 13))
        self.heldout_lengths = (6,) if tiny else (7, 10)
        self.train_cfg = TrainConfig(token_budget=20, max_epochs=1, seed=self.TRAIN_SEED)

    def sizes(self) -> dict:
        return {"network": asdict(self.config), "train_lengths": self.train_lengths,
                "heldout_lengths": self.heldout_lengths, "train": asdict(self.train_cfg)}

    def setup(self, run_dir: str):
        items = synth_by_length(self.train_lengths + self.heldout_lengths, self.seed)
        train_items = [(s, p) for s, p, _ in items[:len(self.train_lengths)]]
        heldout = items[len(self.train_lengths):]
        model = new_model(self.config, [s for s, _ in train_items], self.seed)
        return model, train_items, heldout

    def run(self, state) -> Unit:
        model, train_items, heldout = state
        tokens = sum(len(s) for s, _ in train_items)
        start = clock()
        try:
            result = sdpkit.training.train(model, {SEMANTIC: train_items},
                                           [(s, p) for s, p, _ in heldout], self.train_cfg)
        except TrainingDiverged:
            return Unit(0, clock() - start, 1, 1, {"train_loss": math.nan})
        wall = clock() - start
        return Unit(tokens * result.epochs_run, wall, 1, 0,
                    {"train_tok_s": tokens * result.epochs_run / wall,
                     "train_loss": result.metrics[-1][f"loss_{SEMANTIC}"],
                     "best_heldout_lf": result.best_lf})

    def check(self, state, unit: Unit) -> list[str]:
        model, _, heldout = state
        if unit.failed:
            return []  # a diverged run is counted as failed; its model is not checked
        problems = []
        if not math.isfinite(unit.report["train_loss"]):
            problems.append(f"train_loss is {unit.report['train_loss']}")
        predicted = sdpkit.training.parse_semantic(model, [s for s, _, _ in heldout])
        unit.digest = _sha(params_digest(model), graphs_digest(predicted))
        return problems + roundtrip_problems(predicted)


class ParsePaper:
    """Inference only at the paper's dimensions, on 15-40 token sentences."""

    name = "parse-paper"
    fresh_state = False  # units reuse the loaded checkpoint
    unit_seconds = 1.3
    warmup = True

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.config = TINY if tiny else PAPER
        self.lengths = (15, 20) if tiny else tuple(range(15, 41, 5)) * 2

    def sizes(self) -> dict:
        return {"network": asdict(self.config), "lengths": self.lengths}

    def setup(self, run_dir: str):
        items = synth_by_length(self.lengths, self.seed)
        sentences = [s for s, _, _ in items]
        built = new_model(self.config, sentences, self.seed)
        path = os.path.join(run_dir, "paper.npz")
        built.save(path)
        model = ParserModel.load(path)
        saved = {name: p.data for name, p in built.params.items()}
        return model, saved, items

    def run(self, state) -> Unit:
        model, _, items = state
        sentences = [s for s, _, _ in items]
        texts = []
        start = clock()
        graphs = sdpkit.training.parse_semantic(model, sentences)
        for k, graph in enumerate(graphs):
            buf = io.StringIO()
            try:
                sdpkit.formats.write_sdp(SdpDocument(((f"s{k + 1:05d}", graph),)), buf)
            except FormatError:
                continue
            texts.append(buf.getvalue())
        wall = clock() - start
        report = sdpkit.evaluation.score_graphs(graphs, [g for _, _, g in items])
        tokens = sum(len(s) for s in sentences)
        return Unit(tokens, wall, len(graphs), len(graphs) - len(texts),
                    {"parse_tok_s": tokens / wall, "lf": report.lf}, graphs)

    def check(self, state, unit: Unit) -> list[str]:
        model, saved, _ = state
        problems = []
        if set(saved) != set(model.params) or not all(
                np.array_equal(saved[name], model.params[name].data) for name in saved):
            problems.append("ParserModel.load did not restore the saved parameters")
        unit.digest = _sha(params_digest(model), graphs_digest(unit.outputs))
        return problems + roundtrip_problems(unit.outputs)


class PipelineDesk:
    """The paper's whole method at desk dimensions, through sdpkit.cli.main."""

    name = "pipeline-desk"
    fresh_state = True  # every pipeline starts from an empty directory
    unit_seconds = 18.0
    warmup = False  # a unit is long, and its first steps are small
    HELDOUT = "0.2"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.config = TINY if tiny else DESK
        self.sentences = 12 if tiny else 80
        self.train_flags = {"--lr": "0.01", "--token-budget": "15",
                            "--epochs": "2" if tiny else "5", "--patience": "2"}

    def sizes(self) -> dict:
        return {"network": asdict(self.config), "sentences": self.sentences,
                "heldout": self.HELDOUT, "train_flags": self.train_flags,
                "tasks": "sem,syn", "share": "rnn", "syntactic_weight": 0.025}

    def setup(self, run_dir: str):
        """An empty run directory, its config file, validated argument lists, and
        the full target gold the parsed held-out sentences are scored against."""
        d = tempfile.mkdtemp(prefix="pipeline", dir=run_dir)
        p = {name: os.path.join(d, name) for name in (
            "corpus", "desk.json", "intersected.align", "projected.sdp", "train.sdp",
            "heldout.sdp", "model.npz", "pred.sdp", "score.txt")}
        with open(p["desk.json"], "w", encoding="utf-8") as f:
            json.dump({"network": asdict(self.config), "train": {"syntactic_weight": 0.025}}, f)
        corpus = {name: os.path.join(p["corpus"], name) for name in sdpkit.synth.CORPUS_FILES}
        seed = str(self.seed)
        plan = [
            ["synth", "--out", p["corpus"], "--sentences", str(self.sentences), "--seed", seed],
            ["intersect", "--forward", corpus["forward.align"],
             "--backward", corpus["backward.align"], "--out", p["intersected.align"]],
            ["project", "--source", corpus["source.sdp"], "--alignments", p["intersected.align"],
             "--target", corpus["target.conllu"], "--out", p["projected.sdp"]],
            ["split", "--input", p["projected.sdp"], "--train-out", p["train.sdp"],
             "--heldout-out", p["heldout.sdp"], "--heldout", self.HELDOUT, "--seed", seed],
            ["train", "--train", p["train.sdp"], "--heldout", p["heldout.sdp"],
             "--syntactic", corpus["target.conllu"], "--tasks", "sem,syn", "--share", "rnn",
             "--config", p["desk.json"], "--seed", seed, "--out", p["model.npz"],
             *[x for kv in self.train_flags.items() for x in kv]],
            ["parse", "--model", p["model.npz"], "--input", p["heldout.sdp"],
             "--out", p["pred.sdp"]],
            ["score", "--pred", p["pred.sdp"], "--gold", p["heldout.sdp"], "--out", p["score.txt"]],
        ]
        parser = sdpkit.cli.build_parser()
        for argv in plan:
            parser.parse_args(argv)
        gold = dict(sdpkit.synth.synth_corpus(
            SynthConfig(sentences=self.sentences, seed=self.seed)).target_gold)
        return p, corpus, plan, gold

    def run(self, state) -> Unit:
        paths, corpus, plan, _ = state
        walls, outputs = {}, {}
        failed = 0
        start = clock()
        for argv in plan:
            step = argv[0]
            if failed:  # every step reads what an earlier step wrote
                failed += 1
                continue
            out, err = io.StringIO(), io.StringIO()
            t = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = sdpkit.cli.main(argv)
            except Exception as exc:  # a crash is a failed step; the run goes on
                code = f"{type(exc).__name__}: {exc}"
            walls[step] = clock() - t
            outputs[step] = out.getvalue()
            if code != 0:
                failed += 1
                outputs[step] += f"exit {code}\n{err.getvalue()}"
        pipeline_s = clock() - start
        ok = [argv[0] for argv in plan][:len(plan) - failed]
        report = {"pipeline_s": pipeline_s, "steps": outputs, "walls": walls, "ok": ok}
        tokens = self._tokens(paths, corpus, report) if "train" in ok else 0
        return Unit(tokens, pipeline_s, len(plan), failed, report)

    @staticmethod
    def _tokens(paths, corpus, report) -> int:
        """Training tokens over both tasks and all epochs, plus parsed tokens."""
        with open(paths["train.sdp"], encoding="utf-8") as f:
            sem = sum(len(g.sentence) for g in read_sdp(f).graphs())
        with open(corpus["target.conllu"], encoding="utf-8") as f:
            syn = sum(t.n for t in read_conllu(f))
        with open(paths["heldout.sdp"], encoding="utf-8") as f:
            parsed = sum(len(g.sentence) for g in read_sdp(f).graphs())
        with open(paths["model.npz"] + ".metrics", encoding="utf-8") as f:
            epochs = [dict(kv.split("=") for kv in line.split()) for line in f if line.strip()]
        trained = (sem + syn) * len(epochs)
        report["epochs"] = len(epochs)
        report["train_loss"] = float(epochs[-1][f"loss_{SEMANTIC}"])
        report["train_tok_s"] = trained / report["walls"]["train"]
        if "parse" not in report["ok"]:
            return trained
        report["parse_tok_s"] = parsed / report["walls"]["parse"]
        return trained + parsed

    def check(self, state, unit: Unit) -> list[str]:
        """Checks whatever the steps that succeeded wrote; failed steps are counted."""
        paths, gold_by_id = state[0], state[3]
        report = unit.report
        if "train" not in report["ok"]:
            return []
        problems = []
        if not math.isfinite(report["train_loss"]):
            problems.append(f"train_loss is {report['train_loss']}")
        with open(paths["heldout.sdp"], encoding="utf-8") as f:
            heldout = read_sdp(f)

        # in memory: the checkpoint parsed again, and gold straight from the generator
        model = ParserModel.load(paths["model.npz"])
        predicted = sdpkit.training.parse_semantic(model, [g.sentence for g in heldout.graphs()])
        in_memory = sdpkit.evaluation.score_graphs(predicted, [gold_by_id[sid] for sid, _ in heldout])
        report["heldout_lf"] = in_memory.lf
        unit.digest = _sha(params_digest(model), graphs_digest(predicted))
        problems += roundtrip_problems(predicted)
        if "parse" not in report["ok"]:
            return problems

        with open(paths["pred.sdp"], encoding="utf-8") as f:
            written = read_sdp(f).graphs()
        if written != predicted:
            problems.append("pred.sdp differs from parsing the checkpoint in memory")
        with open(os.path.join(paths["corpus"], "target.gold.sdp"), encoding="utf-8") as f:
            gold_file = dict(read_sdp(f))
        from_files = sdpkit.evaluation.score_graphs(written, [gold_file[sid] for sid, _ in heldout])
        if from_files != in_memory:
            problems.append(f"heldout LF from files {from_files.lf} != in memory {in_memory.lf}")
        if "score" in report["ok"]:
            cli_lf = re.search(r"\blf=([0-9.]+)", report["steps"]["score"])
            partial = sdpkit.evaluation.score_graphs(written, heldout.graphs())
            if cli_lf is None or abs(float(cli_lf.group(1)) - partial.lf) > 5e-7:
                problems.append("sdpkit score disagrees with score_graphs on the written files")
        return problems


WORKLOADS = {w.name: w for w in (TrainPaper, ParsePaper, PipelineDesk)}
