import json
import os

import pytest

import sdpkit.cli as cli
from sdpkit import autodiff as ad
from sdpkit.errors import CheckpointError, FormatError
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


def _rewrite_meta(src, dst, edit):
    arrays, meta = ad.load_arrays(src)
    edit(meta)
    ad.save_arrays(dst, arrays, meta)


@pytest.mark.parametrize("edit", [
    lambda m: m["config"].update(bogus=1),
    lambda m: m["config"].pop("biaffine_bias"),
    lambda m: m.pop("vocab"),
    lambda m: m["vocab"].pop("char"),
    lambda m: m.pop("tasks"),
    lambda m: m["vocab"]["word"].reverse(),
], ids=["unknown-config-key", "missing-config-key", "missing-vocab", "missing-char-vocab",
        "missing-tasks", "unsorted-vocab"])
def test_malformed_checkpoint_metadata(pipeline, tmp_path, edit):
    bad = str(tmp_path / "bad.npz")
    _rewrite_meta(pipeline["model.npz"], bad, edit)
    with pytest.raises(CheckpointError):
        ParserModel.load(bad)
    assert cli.main(["parse", "--model", bad, "--input", pipeline["heldout.sdp"],
                     "--out", str(tmp_path / "pred.sdp")]) == 2
    assert not (tmp_path / "pred.sdp").exists()


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
