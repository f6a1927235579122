import json
import os

import numpy as np
import pytest

import sdpkit.cli as cli
from sdpkit import autodiff as ad
from sdpkit.errors import CheckpointError, FormatError
from helpers import write_context_vectors
from sdpkit.formats import SdpDocument, read_sdp, write_sdp
from sdpkit.graph import PartialGraph, SemanticGraph
from sdpkit.network import NetworkConfig, ParserModel

TINY = {"word_dim": 8, "pos_dim": 4, "rnn_size": 8, "rnn_layers": 1, "fnn_size": 8,
        "word_dropout": 0.0, "recurrent_dropout": 0.0, "edge_dropout": 0.0,
        "label_dropout": 0.0}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> intersect -> project -> split -> train at toy size; returns the paths."""
    d = tmp_path_factory.mktemp("pipeline")
    p = {name: str(d / name) for name in ("corpus", "tiny.json", "inter.align", "proj.sdp",
                                          "train.sdp", "heldout.sdp", "model.npz")}
    with open(p["tiny.json"], "w", encoding="utf-8") as f:
        json.dump({"network": TINY}, f)
    corpus = {name: os.path.join(p["corpus"], name) for name in
              ("source.sdp", "target.conllu", "forward.align", "backward.align")}
    for argv in (
            ["synth", "--out", p["corpus"], "--sentences", "12", "--seed", "3"],
            ["intersect", "--forward", corpus["forward.align"],
             "--backward", corpus["backward.align"], "--out", p["inter.align"]],
            ["project", "--source", corpus["source.sdp"], "--alignments", p["inter.align"],
             "--target", corpus["target.conllu"], "--out", p["proj.sdp"]],
            ["split", "--input", p["proj.sdp"], "--train-out", p["train.sdp"],
             "--heldout-out", p["heldout.sdp"], "--heldout", "0.25", "--seed", "3"],
            ["train", "--train", p["train.sdp"], "--heldout", p["heldout.sdp"],
             "--config", p["tiny.json"], "--epochs", "1", "--seed", "3", "--out", p["model.npz"]]):
        assert cli.main(argv) == 0, argv
    return p


def test_failed_write_leaves_no_output(pipeline, tmp_path, monkeypatch):
    def failing_write(doc, stream):
        stream.write("#s00001\n")
        raise FormatError("graph contains a directed cycle")

    monkeypatch.setattr(cli, "write_sdp", failing_write)
    out = tmp_path / "pred.sdp"
    code = cli.main(["parse", "--model", pipeline["model.npz"],
                     "--input", pipeline["heldout.sdp"], "--out", str(out)])
    assert code == 2
    assert os.listdir(tmp_path) == []


def _rewrite_checkpoint(src, dst, edit):
    arrays, meta = ad.load_arrays(src)
    edit(meta, arrays)
    ad.save_arrays(dst, arrays, meta)


@pytest.mark.parametrize("edit", [
    lambda m, a: m["config"].update(bogus=1),
    lambda m, a: m["config"].pop("biaffine_bias"),
    lambda m, a: m.pop("vocab"),
    lambda m, a: m["vocab"].pop("char"),
    lambda m, a: m.pop("tasks"),
    lambda m, a: m["vocab"]["word"].reverse(),
    lambda m, a: a.pop("pretrained"),
], ids=["unknown-config-key", "missing-config-key", "missing-vocab", "missing-char-vocab",
        "missing-tasks", "unsorted-vocab", "missing-pretrained"])
def test_malformed_checkpoint_metadata(pipeline, tmp_path, edit):
    bad = str(tmp_path / "bad.npz")
    _rewrite_checkpoint(pipeline["model.npz"], bad, edit)
    with pytest.raises(CheckpointError):
        ParserModel.load(bad)
    assert cli.main(["parse", "--model", bad, "--input", pipeline["heldout.sdp"],
                     "--out", str(tmp_path / "pred.sdp")]) == 2
    assert not (tmp_path / "pred.sdp").exists()


def test_split_that_leaves_a_part_empty_writes_nothing(pipeline, tmp_path, capsys):
    train_out, heldout_out = tmp_path / "train.sdp", tmp_path / "heldout.sdp"
    # 12 sentences: 0.01 of them rounds to no held-out sentence
    assert cli.main(["split", "--input", pipeline["proj.sdp"], "--train-out", str(train_out),
                     "--heldout-out", str(heldout_out), "--heldout", "0.01"]) == 2
    assert "0.01 of 12 sentences" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_score_and_analyze_print_config_and_list_inputs(pipeline, tmp_path, capsys):
    held = pipeline["heldout.sdp"]
    report = tmp_path / "score.txt"
    assert cli.main(["score", "--pred", held, "--gold", held, "--out", str(report)]) == 0
    assert "config: " in capsys.readouterr().err
    series = tmp_path / "buckets.tsv"
    assert cli.main(["analyze", "--buckets", "--gold", held, "--pred", held,
                     "--series", str(series)]) == 0
    assert "config: " in capsys.readouterr().err
    with open(str(series) + ".manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    assert manifest["command"] == "analyze"
    assert list(manifest["inputs"]) == [held]


@pytest.mark.parametrize("mode,given,missing", [
    ("buckets", [], "--pred"),
    ("headmatch", ["--pred-a", "--pred-b"], "--trees"),
    ("headmatch", ["--trees"], "--pred-a, --pred-b"),
    ("contribution", ["--pred-multi"], "--trees, --pred-single"),
], ids=["buckets", "headmatch-no-trees", "headmatch-no-preds", "contribution"])
def test_analyze_names_missing_inputs(pipeline, tmp_path, capsys, mode, given, missing):
    held = pipeline["heldout.sdp"]
    files = {"--trees": os.path.join(pipeline["corpus"], "target.conllu")}
    argv = ["analyze", f"--{mode}", "--gold", held]
    for flag in given:
        argv += [flag, files.get(flag, held)]
    series = tmp_path / "series.tsv"
    assert cli.main(argv + ["--series", str(series)]) == 2
    assert f"analyze --{mode} needs {missing}" in capsys.readouterr().err
    assert not series.exists()


@pytest.mark.parametrize("biaffine_bias", [False, True])
def test_gradcheck(monkeypatch, biaffine_bias):
    if biaffine_bias:
        monkeypatch.setattr(cli, "NetworkConfig",
                            lambda **kw: NetworkConfig(biaffine_bias=True, **kw))
    report = cli.run_gradcheck()
    assert report.max_rel_error <= 1e-4, str(report)
    assert ("scorer/semantic/edge_bias" in report.per_param) == biaffine_bias


def test_semantic_weight_config_key_rejected(pipeline, tmp_path, capsys):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"network": TINY, "train": {"semantic_weight": 0.975}}))
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", str(config), "--out", str(out)]) == 2
    assert "unknown keys ['semantic_weight']" in capsys.readouterr().err
    assert not out.exists()


def _write_contexts(sdp_path, out_path, dim, seed):
    with open(sdp_path, encoding="utf-8") as f:
        sentences = [g.sentence for g in read_sdp(f).semantic_graphs()]
    rng = np.random.default_rng(seed)
    with open(out_path, "w", encoding="utf-8") as f:
        write_context_vectors([rng.standard_normal((len(s), dim)) for s in sentences], f)


def test_train_with_context_vectors(pipeline, tmp_path):
    config = tmp_path / "context.json"
    config.write_text(json.dumps({"network": {**TINY, "context_dim": 3}}))
    train_vec, heldout_vec = str(tmp_path / "train.vec"), str(tmp_path / "heldout.vec")
    _write_contexts(pipeline["train.sdp"], train_vec, 3, seed=1)
    _write_contexts(pipeline["heldout.sdp"], heldout_vec, 3, seed=2)
    out = str(tmp_path / "model.npz")
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                     "--config", str(config), "--epochs", "1", "--context", train_vec,
                     "--heldout-context", heldout_vec, "--out", out]) == 0
    with open(out + ".manifest.json", encoding="utf-8") as f:
        assert heldout_vec in json.load(f)["inputs"]
    # one-token sentences decode acyclically whatever the model scores
    with open(pipeline["heldout.sdp"], encoding="utf-8") as f:
        firsts = [g.sentence[:1] for g in read_sdp(f).semantic_graphs()]
    single, single_vec = str(tmp_path / "single.sdp"), str(tmp_path / "single.vec")
    with open(single, "w", encoding="utf-8") as f:
        write_sdp(SdpDocument(tuple((f"s{i}", SemanticGraph(s, frozenset()))
                                    for i, s in enumerate(firsts))), f)
    _write_contexts(single, single_vec, 3, seed=3)
    pred = str(tmp_path / "pred.sdp")
    assert cli.main(["parse", "--model", out, "--input", single,
                     "--context", single_vec, "--out", pred]) == 0
    with open(pred, encoding="utf-8") as f:
        assert [g.sentence for g in read_sdp(f).semantic_graphs()] == firsts


def test_train_rejects_syntactic_task_with_context_channel(pipeline, tmp_path, capsys):
    config = tmp_path / "context.json"
    config.write_text(json.dumps({"network": {**TINY, "context_dim": 3}}))
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                     "--syntactic", os.path.join(pipeline["corpus"], "target.conllu"),
                     "--tasks", "sem,syn", "--config", str(config), "--out", str(out)]) == 2
    assert "needs network.context_dim 0" in capsys.readouterr().err
    assert not out.exists()


def test_sample_keeps_corpus_order_and_masks(pipeline, tmp_path, capsys):
    with open(pipeline["proj.sdp"], encoding="utf-8") as f:
        corpus = list(read_sdp(f))
    densities = sorted({g.density() for _, g in corpus})
    # a threshold with at least two sentences on each side
    threshold = next(t for t in densities
                     if sum(g.density() < t for _, g in corpus) >= 2
                     and sum(g.density() >= t for _, g in corpus) >= 2)
    out = tmp_path / "sample.sdp"
    assert cli.main(["sample", "--input", pipeline["proj.sdp"], "--out", str(out),
                     "--size", "4", "--threshold", str(threshold), "--seed", "1"]) == 0
    with open(out, encoding="utf-8") as f:
        sample = list(read_sdp(f))
    assert len(sample) == 4
    ids = [sid for sid, _ in corpus]
    assert [sid for sid, _ in sample] == sorted((sid for sid, _ in sample), key=ids.index)
    for sid, graph in sample:  # the same partial graph, #aligned mask included
        assert isinstance(graph, PartialGraph) and graph == dict(corpus)[sid]
    assert sum(g.density() < threshold for _, g in sample) == 2
    with open(str(out) + ".manifest.json", encoding="utf-8") as f:
        assert list(json.load(f)["inputs"]) == [pipeline["proj.sdp"]]

    odd = tmp_path / "odd.sdp"
    assert cli.main(["sample", "--input", pipeline["proj.sdp"], "--out", str(odd),
                     "--size", "3", "--threshold", str(threshold)]) == 2
    assert "positive and even" in capsys.readouterr().err
    assert not odd.exists()


def test_train_combined_multitask_steps(pipeline, tmp_path):
    out = str(tmp_path / "model.npz")
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                     "--syntactic", os.path.join(pipeline["corpus"], "target.conllu"),
                     "--tasks", "sem,syn", "--share", "rnn", "--combined",
                     "--config", pipeline["tiny.json"], "--epochs", "1", "--out", out]) == 0
    with open(out + ".manifest.json", encoding="utf-8") as f:
        assert json.load(f)["config"]["train"]["combined_steps"] is True
    with open(out + ".metrics", encoding="utf-8") as f:
        assert "loss_syntactic=" in f.read()
