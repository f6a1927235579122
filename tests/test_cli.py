import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sdpkit.cli as cli
from sdpkit import autodiff as ad
from sdpkit.errors import CheckpointError, FormatError
from helpers import (read_checkpoint, reference_decode_semantic, write_checkpoint,
                     write_context_vectors)
from sdpkit.formats import SdpDocument, read_conllu, read_sdp, write_conllu, write_sdp
from sdpkit.graph import PartialGraph, SemanticGraph, SyntacticTree, is_acyclic
from sdpkit.network import SEMANTIC, NetworkConfig, ParserModel

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
    arrays, meta = read_checkpoint(src)
    edit(meta, arrays)
    write_checkpoint(dst, arrays, meta)


@pytest.mark.parametrize("edit", [
    lambda m, a: m["config"].update(bogus=1),
    lambda m, a: m["config"].pop("biaffine_bias"),
    lambda m, a: m.pop("vocab"),
    lambda m, a: m["vocab"].pop("char"),
    lambda m, a: m.pop("tasks"),
    lambda m, a: m["vocab"]["word"].reverse(),
    lambda m, a: a.pop("pretrained"),
    lambda m, a: a.update(pretrained=np.zeros((3, 3))),
    lambda m, a: m["config"].update(word_dim=7),
], ids=["unknown-config-key", "missing-config-key", "missing-vocab", "missing-char-vocab",
        "missing-tasks", "unsorted-vocab", "missing-pretrained", "misshapen-pretrained",
        "invalid-config-value"])
def test_malformed_checkpoint_metadata(pipeline, tmp_path, edit):
    bad = str(tmp_path / "bad.npz")
    _rewrite_checkpoint(pipeline["model.npz"], bad, edit)
    with pytest.raises(CheckpointError, match=re.escape(bad)):
        ParserModel.load(bad)
    assert cli.main(["parse", "--model", bad, "--input", pipeline["heldout.sdp"],
                     "--out", str(tmp_path / "pred.sdp")]) == 2
    assert not (tmp_path / "pred.sdp").exists()


def _save_one_array(good, bad):
    with open(bad, "wb") as f:  # a file object, so np.save adds no .npy suffix
        np.save(f, np.zeros(3))


# Each case writes at `bad` a file that is no checkpoint, given a good one.
@pytest.mark.parametrize("make,reason", [
    (lambda good, bad: None, "unreadable checkpoint"),
    (lambda good, bad: bad.write_bytes(b""), "unreadable checkpoint"),
    (lambda good, bad: bad.write_text("s00001\n"), "unreadable checkpoint"),
    (lambda good, bad: bad.write_bytes(good.read_bytes()[:2000]), "unreadable checkpoint"),
    (_save_one_array, "one array, not an npz archive"),
    (lambda good, bad: np.savez(bad, **read_checkpoint(good)[0]), "not a parser checkpoint"),
    (lambda good, bad: np.savez(bad, __meta__=np.frombuffer(b"{", np.uint8)),
     "not a parser checkpoint"),
    (lambda good, bad: write_checkpoint(bad, read_checkpoint(good)[0], [1]),
     "not a parser checkpoint"),
    (lambda good, bad: _rewrite_checkpoint(good, bad, lambda m, a: m.update(kind="other")),
     r"\('other', 1\)"),
    (lambda good, bad: _rewrite_checkpoint(good, bad,
                                           lambda m, a: m.update(checkpoint_version=2)),
     r"\('sdpkit-parser', 2\)"),
], ids=["missing-file", "empty", "not-a-zip", "truncated", "plain-array", "no-metadata",
        "metadata-not-json", "metadata-not-an-object", "wrong-kind", "wrong-version"])
def test_unreadable_checkpoint_refused(pipeline, tmp_path, capsys, make, reason):
    bad = tmp_path / "bad.npz"
    make(Path(pipeline["model.npz"]), bad)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(bad))}: .*{reason}"):
        ParserModel.load(str(bad))
    before = sorted(os.listdir(tmp_path))
    assert cli.main(["parse", "--model", str(bad), "--input", pipeline["heldout.sdp"],
                     "--out", str(tmp_path / "pred.sdp")]) == 2
    assert str(bad) in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_train_with_a_zero_learning_rate_writes_no_model(pipeline, tmp_path, capsys):
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"],
                     "--heldout", pipeline["heldout.sdp"], "--config", pipeline["tiny.json"],
                     "--epochs", "1", "--lr", "0", "--out", str(out)]) == 2
    assert "lr=0.0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
    shapes = {}
    check = ad.gradient_check

    def spy(closure, params, **kwargs):
        shapes.update((p.name, p.shape) for p in params)
        return check(closure, params, **kwargs)

    monkeypatch.setattr(ad, "gradient_check", spy)
    report = cli.run_gradcheck()
    assert report.max_rel_error <= 1e-4, str(report)
    # the bias is a border of the edge weight (fnn_size 4), checked with it
    edge = 5 if biaffine_bias else 4
    assert shapes["scorer/semantic/edge"] == (edge, edge)
    assert "scorer/semantic/edge" in report.per_param


def test_semantic_weight_config_key_rejected(pipeline, tmp_path, capsys):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"network": TINY, "train": {"semantic_weight": 0.975}}))
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", str(config), "--out", str(out)]) == 2
    assert "unknown keys ['semantic_weight']" in capsys.readouterr().err
    assert not out.exists()


def _ids_and_sentences(path):
    with open(path, encoding="utf-8") as f:
        doc = read_sdp(f)
    return [sid for sid, _ in doc], [g.sentence for g in doc.semantic_graphs()]


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
    pred = str(tmp_path / "pred.sdp")
    assert cli.main(["parse", "--model", out, "--input", pipeline["heldout.sdp"],
                     "--context", heldout_vec, "--out", pred]) == 0
    assert _ids_and_sentences(pred) == _ids_and_sentences(pipeline["heldout.sdp"])


def test_train_rejects_syntactic_task_with_context_channel(pipeline, tmp_path, capsys):
    config = tmp_path / "context.json"
    config.write_text(json.dumps({"network": {**TINY, "context_dim": 3}}))
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                     "--syntactic", os.path.join(pipeline["corpus"], "target.conllu"),
                     "--tasks", "sem,syn", "--config", str(config), "--out", str(out)]) == 2
    assert "needs network.context_dim 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_conllu_block_without_tokens(pipeline, tmp_path, capsys, monkeypatch):
    trees = tmp_path / "target.conllu"
    with open(os.path.join(pipeline["corpus"], "target.conllu"), encoding="utf-8") as f:
        text = f.read()
    trees.write_text(text.rstrip("\n") + "\n\n# sent_id = empty\n", encoding="utf-8")

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                     "--syntactic", str(trees), "--tasks", "sem,syn",
                     "--config", pipeline["tiny.json"], "--out", str(out)]) == 2
    empty_block = text.rstrip("\n").count("\n") + 3
    assert f"line {empty_block}: sentence has no token lines" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["target.conllu"]


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


# One malformed file per format; each fault is on line 2.
BAD_INPUTS = {
    "sdp": "#s1\n1\ta\ta\tN\t-\t-\n",
    "conllu": "# sent_id = s1\n1\ta\ta\tN\n",
    "align": "0-0\n0-x\n",
    "vec": "a " + " ".join(["0.5"] * TINY["word_dim"]) + "\nb 0.5\n",
}


@pytest.mark.parametrize("command,flag,fmt", [
    ("train", "--train", "sdp"), ("train", "--heldout", "sdp"),
    ("train", "--syntactic", "conllu"), ("train", "--word-vectors", "vec"),
    ("parse", "--input", "sdp"), ("parse", "--input", "conllu"),
    ("score", "--pred", "sdp"), ("score", "--gold", "sdp"),
    ("project", "--source", "sdp"), ("project", "--alignments", "align"),
    ("project", "--target", "conllu"),
    ("intersect", "--forward", "align"), ("intersect", "--backward", "align"),
    ("analyze", "--gold", "sdp"), ("analyze", "--trees", "conllu"),
    ("analyze", "--pred-a", "sdp"),
])
def test_malformed_input_names_its_file_and_line(pipeline, tmp_path, capsys, command, flag, fmt):
    bad = tmp_path / f"bad.{fmt}"
    bad.write_text(BAD_INPUTS[fmt], encoding="utf-8")
    held, out = pipeline["heldout.sdp"], str(tmp_path / "out")
    corpus = {name: os.path.join(pipeline["corpus"], name) for name in
              ("source.sdp", "target.conllu", "forward.align", "backward.align")}
    argv = {
        "train": ["train", "--train", pipeline["train.sdp"], "--heldout", held,
                  "--syntactic", corpus["target.conllu"], "--tasks", "sem,syn",
                  "--config", pipeline["tiny.json"], "--epochs", "1", "--out", out],
        "parse": ["parse", "--model", pipeline["model.npz"], "--input", held, "--out", out],
        "score": ["score", "--pred", held, "--gold", held, "--out", out],
        "project": ["project", "--source", corpus["source.sdp"],
                    "--alignments", pipeline["inter.align"],
                    "--target", corpus["target.conllu"], "--out", out],
        "intersect": ["intersect", "--forward", corpus["forward.align"],
                      "--backward", corpus["backward.align"], "--out", out],
        "analyze": ["analyze", "--headmatch", "--gold", held, "--trees", corpus["target.conllu"],
                    "--pred-a", held, "--pred-b", held, "--series", out],
    }[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    assert cli.main(argv) == 2
    assert f"sdpkit: error: {bad}: line 2: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == [bad.name]


def test_parse_writes_cyclic_sign_decodes_repaired(pipeline, tmp_path):
    ids, sentences = _ids_and_sentences(pipeline["heldout.sdp"])
    model = ParserModel.load(pipeline["model.npz"])
    labels = model.tasks[SEMANTIC]
    with ad.no_grad():
        s_edge, s_label = model.forward(sentences, SEMANTIC)
    signs = [reference_decode_semantic(s_edge.data[b, :len(s) + 1, :len(s)],
                                       s_label.data[b, :, :len(s) + 1, :len(s)], labels, s)
             for b, s in enumerate(sentences)]
    assert not all(is_acyclic(g) for g in signs)  # sign decoding alone could not be written
    pred = tmp_path / "pred.sdp"
    assert cli.main(["parse", "--model", pipeline["model.npz"],
                     "--input", pipeline["heldout.sdp"], "--out", str(pred)]) == 0
    with open(pred, encoding="utf-8") as f:
        written = read_sdp(f)
    assert [sid for sid, _ in written] == ids
    for graph, sign in zip(written.semantic_graphs(), signs, strict=True):
        assert graph == sign if is_acyclic(sign) else graph.edges < sign.edges


def test_parse_keeps_conllu_sentence_ids(pipeline, tmp_path, capsys):
    conllu = os.path.join(pipeline["corpus"], "target.conllu")
    with open(conllu, encoding="utf-8") as f:
        trees = read_conllu(f)
    # ids of another shape than the positional ones; the second tree has none
    want = [f"doc-{k}" for k in range(len(trees))]
    want[1] = "s00002"
    trees = [replace(t, comments=("# text = x", f"# sent_id = {sid}") if k != 1 else ())
             for k, (t, sid) in enumerate(zip(trees, want))]
    renamed = tmp_path / "in.conllu"
    with open(renamed, "w", encoding="utf-8") as f:
        write_conllu(trees, f)
    pred = tmp_path / "pred.sdp"
    assert cli.main(["parse", "--model", pipeline["model.npz"], "--input", str(renamed),
                     "--out", str(pred)]) == 0
    assert _ids_and_sentences(pred) == (want, [t.sentence for t in trees])
    # a numbered sentence whose number another sentence already carries
    trees[0] = replace(trees[0], comments=("# sent_id = s00002",))
    with open(renamed, "w", encoding="utf-8") as f:
        write_conllu(trees, f)
    assert cli.main(["parse", "--model", pipeline["model.npz"], "--input", str(renamed),
                     "--out", str(tmp_path / "again.sdp")]) == 2
    assert (f"{renamed}: sentence ids ['s00002'] occur more than once"
            in capsys.readouterr().err)


def test_parse_refuses_an_id_that_would_not_read_back(pipeline, tmp_path, capsys):
    conllu = os.path.join(pipeline["corpus"], "target.conllu")
    with open(conllu, encoding="utf-8") as f:
        trees = read_conllu(f)
    trees[0] = replace(trees[0], comments=("# sent_id = aligned: 1",))
    renamed = tmp_path / "in.conllu"
    with open(renamed, "w", encoding="utf-8") as f:
        write_conllu(trees, f)
    assert cli.main(["parse", "--model", pipeline["model.npz"], "--input", str(renamed),
                     "--out", str(tmp_path / "pred.sdp")]) == 2
    assert "sentence id 'aligned: 1' would not read back" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["in.conllu"]


def test_score_and_analyze_refuse_mismatched_sentence_ids(pipeline, tmp_path, capsys):
    with open(pipeline["heldout.sdp"], encoding="utf-8") as f:
        graph = read_sdp(f).semantic_graphs()[0]
    # two sentences of equal length, so pairing by position alone goes unnoticed
    gold = (("s00002", graph), ("s00005", SemanticGraph(graph.sentence, frozenset())))
    paths = {}
    for name, entries in (("gold", gold), ("swapped", gold[::-1])):
        paths[name] = str(tmp_path / f"{name}.sdp")
        with open(paths[name], "w", encoding="utf-8") as f:
            write_sdp(SdpDocument(entries), f)
    message = (f"{paths['swapped']}: sentence 1 is 's00005', "
               "but gold sentence 1 is 's00002'")
    for argv in (["score", "--pred", paths["swapped"], "--gold", paths["gold"]],
                 ["analyze", "--buckets", "--pred", paths["swapped"], "--gold", paths["gold"]]):
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
    n = graph.n
    trees = [SyntacticTree(graph.sentence, (0,) + (1,) * (n - 1), ("root",) + ("dep",) * (n - 1),
                           (f"# sent_id = {sid}",)) for sid, _ in gold]
    for name, entries in (("trees", trees), ("swapped-trees", trees[::-1])):
        paths[name] = str(tmp_path / f"{name}.conllu")
        with open(paths[name], "w", encoding="utf-8") as f:
            write_conllu(entries, f)
    for mode in (["--headmatch", "--pred-a", paths["gold"], "--pred-b", paths["gold"]],
                 ["--contribution", "--pred-multi", paths["gold"],
                  "--pred-single", paths["gold"]]):
        argv = ["analyze", *mode, "--gold", paths["gold"], "--trees"]
        assert cli.main(argv + [paths["trees"]]) == 0
        assert cli.main(argv + [paths["swapped-trees"]]) == 2
        assert (f"{paths['swapped-trees']}: sentence 1 is 's00005', but gold sentence 1 "
                "is 's00002'" in capsys.readouterr().err)


def test_train_rejects_a_non_finite_word_vector(pipeline, tmp_path, capsys):
    vectors = tmp_path / "words.vec"
    dim = TINY["word_dim"]
    vectors.write_text("a " + " ".join(["0.5"] * dim) + "\nb nan" + " 0.5" * (dim - 1) + "\n",
                       encoding="utf-8")
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", pipeline["tiny.json"],
                     "--word-vectors", str(vectors), "--out", str(out)]) == 2
    assert (f"{vectors}: line 2: non-finite vector component 'nan'"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["words.vec"]
