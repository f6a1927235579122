import hashlib
import json
import os
import re
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import sdpkit.cli as cli
from sdpkit import autodiff as ad
from sdpkit.errors import CheckpointError, FormatError
from helpers import read_checkpoint, reference_decode_semantic, write_checkpoint
from sdpkit.formats import SdpDocument, read_conllu, read_sdp, write_conllu, write_sdp
from sdpkit.graph import TOP_LABEL, Edge, PartialGraph, SemanticGraph, SyntacticTree, is_acyclic
from sdpkit.network import SEMANTIC, NetworkConfig, ParserModel
from sdpkit.synth import SynthConfig
from sdpkit.training import TrainConfig, TrainResult

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
    lambda m, a: m["config"].update(word_dim=7),
    lambda m, a: m["config"].update(rnn_layers=float(m["config"]["rnn_layers"])),
    lambda m, a: m["config"].update(word_dim=float(m["config"]["word_dim"])),
], ids=["unknown-config-key", "missing-config-key", "missing-vocab", "missing-char-vocab",
        "missing-tasks", "unsorted-vocab", "invalid-config-value", "float-rnn-layers",
        "float-word-dim"])
def test_malformed_checkpoint_metadata(pipeline, tmp_path, edit):
    bad = str(tmp_path / "bad.npz")
    _rewrite_checkpoint(pipeline["model.npz"], bad, edit)
    with pytest.raises(CheckpointError, match=re.escape(bad)):
        ParserModel.load(bad)
    assert cli.main(["parse", "--model", bad, "--input", pipeline["heldout.sdp"],
                     "--out", str(tmp_path / "pred.sdp")]) == 2
    assert not (tmp_path / "pred.sdp").exists()


def _version_1(meta, arrays):
    """A checkpoint as version 1 wrote it: its config held `context_dim`."""
    meta["checkpoint_version"] = 1
    meta["config"]["context_dim"] = 0


def _version_2(meta, arrays):
    """A checkpoint as version 2 wrote it: its config held `char_emb_dim`."""
    meta["checkpoint_version"] = 2
    meta["config"]["char_emb_dim"] = 0


def _version_3(good, bad):
    """`good` as version 3 wrote it: each parameter a member of its own."""
    arrays, meta = read_checkpoint(good)
    meta["checkpoint_version"] = 3
    del arrays["parameters"]
    arrays.update({name: p.data for name, p in ParserModel.load(str(good)).params.items()})
    write_checkpoint(bad, arrays, meta)


def _version_4(meta, arrays):
    """A checkpoint as version 4 wrote it: the fixed pretrained table a member
    of its own, beside a word table that did not hold it."""
    meta["checkpoint_version"] = 4
    arrays["pretrained"] = np.zeros((len(meta["vocab"]["word"]), meta["config"]["word_dim"]))


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
     r"\('other', 5\)"),
    (lambda good, bad: _rewrite_checkpoint(good, bad, _version_1), r"\('sdpkit-parser', 1\)"),
    (lambda good, bad: _rewrite_checkpoint(good, bad, _version_2), r"\('sdpkit-parser', 2\)"),
    (_version_3, r"\('sdpkit-parser', 3\)"),
    (lambda good, bad: _rewrite_checkpoint(good, bad, _version_4), r"\('sdpkit-parser', 4\)"),
    (lambda good, bad: _rewrite_checkpoint(good, bad,
                                           lambda m, a: m.update(checkpoint_version=6)),
     r"\('sdpkit-parser', 6\)"),
], ids=["missing-file", "empty", "not-a-zip", "truncated", "plain-array", "no-metadata",
        "metadata-not-json", "metadata-not-an-object", "wrong-kind", "version-1",
        "version-2", "version-3", "version-4", "wrong-version"])
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
    table = tmp_path / "buckets.tsv"
    assert cli.main(["analyze", "--buckets", "--gold", held, "--pred", held,
                     "--out", str(table)]) == 0
    assert "config: " in capsys.readouterr().err
    with open(str(table) + ".manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    assert manifest["command"] == "analyze"
    assert list(manifest["inputs"]) == [held]


def test_manifests_differing_in_a_thread_variable_differ_only_there_and_in_the_wall_time(
        pipeline, tmp_path, monkeypatch):
    out = str(tmp_path / "model.npz")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    manifests = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                         pipeline["heldout.sdp"], "--config", pipeline["tiny.json"],
                         "--epochs", "1", "--seed", "3", "--out", out]) == 0
        with open(out + ".manifest.json", encoding="utf-8") as f:
            manifests.append(json.load(f))
    first, second = manifests
    assert first["numpy"] == second["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert first["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert first["threads_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                    "MKL_NUM_THREADS": None}
    assert second["threads_env"] == {**first["threads_env"], "OPENBLAS_NUM_THREADS": "2"}
    assert all(0.0 < manifest["wall_s"] < 60.0 for manifest in manifests)
    assert {key for key in first if first[key] != second[key]} <= {"threads_env", "wall_s"}
    assert first.keys() == second.keys() == {"command", "inputs", "outputs", "config", "numpy",
                                             "blas", "threads_env", "wall_s",
                                             "heldout_in_syntactic"}


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_a_manifest_records_no_blas_where_numpy_cannot_report_it(pipeline, tmp_path,
                                                                 monkeypatch, error):
    # numpy before 1.26 has no show_config(mode="dicts"): TypeError
    def show_config(mode="stdout"):
        if error is TypeError:
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")
        return {"Build Dependencies": {}}

    monkeypatch.setattr(np, "show_config", show_config)
    held, report = pipeline["heldout.sdp"], str(tmp_path / "score.txt")
    assert cli.main(["score", "--pred", held, "--gold", held, "--out", report]) == 0
    with open(report + ".manifest.json", encoding="utf-8") as f:
        assert json.load(f)["blas"] is None


@pytest.mark.parametrize("trees", ["none", "disjoint", "all"])
def test_train_manifest_counts_heldout_sentences_the_syntactic_task_trains_on(
        pipeline, tmp_path, trees):
    # reported, not refused: the synth trees hold every held-out sentence
    with open(pipeline["heldout.sdp"], encoding="utf-8") as f:
        held = {tuple(t.form for t in g.sentence) for g in read_sdp(f).graphs()}
    conllu = os.path.join(pipeline["corpus"], "target.conllu")
    flags = []
    if trees != "none":
        if trees == "disjoint":
            with open(conllu, encoding="utf-8") as f:
                kept = [t for t in read_conllu(f) if tuple(x.form for x in t.sentence) not in held]
            conllu = str(tmp_path / "disjoint.conllu")
            with open(conllu, "w", encoding="utf-8") as f:
                write_conllu(kept, f)
        flags = ["--syntactic", conllu, "--tasks", "sem,syn"]
    out = str(tmp_path / "model.npz")
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", pipeline["tiny.json"], "--epochs", "1",
                     "--out", out, *flags]) == 0
    with open(out + ".manifest.json", encoding="utf-8") as f:
        overlap = json.load(f)["heldout_in_syntactic"]
    assert len(held) == 3 and overlap == (3 if trees == "all" else 0)


def test_score_prints_the_decided_cell_lf_after_the_full_one(pipeline, tmp_path, capsys):
    held = pipeline["heldout.sdp"]
    with open(held, encoding="utf-8") as f:
        gold = read_sdp(f)
    # one more top, at a token that no alignment decides
    sid, partial = next((sid, g) for sid, g in gold if len(g.aligned) <= g.graph.n)
    j = min(set(range(1, partial.graph.n + 1)) - partial.aligned)
    extra = SemanticGraph(partial.sentence, partial.graph.edges | {Edge(0, j, TOP_LABEL)})
    pred = str(tmp_path / "pred.sdp")
    with open(pred, "w", encoding="utf-8") as f:
        write_sdp(SdpDocument(tuple((s, extra if s == sid else g.graph) for s, g in gold)), f)
    lfs = []
    for path in (held, pred):
        assert cli.main(["score", "--pred", path, "--gold", held]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert re.search(r"\blf=", first).start() < first.index("decided_lf=")
        values = dict(kv.split("=") for kv in first.split())
        lfs.append((float(values["lf"]), float(values["decided_lf"])))
    assert lfs[0] == (1.0, 1.0) and lfs[1][0] < 1.0 == lfs[1][1]


def test_parse_manifest_counts_the_edges_and_tops_it_wrote(pipeline, tmp_path):
    out = str(tmp_path / "pred.sdp")
    assert cli.main(["parse", "--model", pipeline["model.npz"], "--input",
                     pipeline["heldout.sdp"], "--out", out]) == 0
    with open(out, encoding="utf-8") as f:
        written = read_sdp(f).semantic_graphs()
    with open(out + ".manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    tops = [len(g.tops) for g in written]
    assert manifest["edges_per_token"] == pytest.approx(
        sum(len(g.edges) for g in written) / sum(g.n for g in written), rel=1e-15)
    assert manifest["top_counts"] == {str(k): tops.count(k) for k in sorted(set(tops))}
    assert sum(manifest["top_counts"].values()) == len(written) == 3
    empty = tmp_path / "empty.sdp"
    empty.write_text("")
    assert cli.main(["parse", "--model", pipeline["model.npz"], "--input", str(empty),
                     "--out", out]) == 0
    with open(out + ".manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    assert manifest["edges_per_token"] is None and manifest["top_counts"] == {}


def test_manifest_is_indented_json_with_the_inputs_sha256(pipeline, tmp_path):
    held = pipeline["heldout.sdp"]
    report = tmp_path / "score.txt"
    assert cli.main(["score", "--pred", held, "--gold", held, "--out", str(report)]) == 0
    with open(f"{report}.manifest.json", encoding="utf-8") as f:
        text = f.read()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    with open(held, "rb") as f:
        assert manifest["inputs"] == {held: hashlib.sha256(f.read()).hexdigest()}


def test_analyze_series_and_order(pipeline, tmp_path, capsys, monkeypatch):
    gold = os.path.join(pipeline["corpus"], "target.gold.sdp")
    trees = os.path.join(pipeline["corpus"], "target.conllu")
    printed = {}
    for mode, inputs in (("buckets", ["--pred", pipeline["proj.sdp"]]),
                         ("headmatch", ["--trees", trees, "--pred-a", gold,
                                        "--pred-b", pipeline["proj.sdp"]]),
                         ("contribution", ["--trees", trees, "--pred-multi", gold,
                                           "--pred-single", pipeline["proj.sdp"]])):
        out = tmp_path / f"{mode}.tsv"
        capsys.readouterr()
        assert cli.main(["analyze", f"--{mode}", "--gold", gold, *inputs,
                         "--out", str(out)]) == 0
        printed[mode] = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == printed[mode]  # --out holds what was printed
    buckets = [line.split("\t")[0] for line in printed["buckets"].splitlines()]
    assert buckets[0] == "bucket" and len(buckets) > 2
    assert buckets[1:] == [b for b in ("1", "2", "3", "4", "5-9", ">=10") if b in buckets]
    # full gold against the projected graphs: A is right wherever B is, so
    # b_improved is empty and its rates print as "-"
    assert [line.split("\t")[:2] for line in printed["headmatch"].splitlines()] == \
        [["mode", "set"]] + [[mode, key] for mode in ("labeled", "unlabeled")
                             for key in ("a_improved", "b_improved")]
    assert all(line.endswith("\t0\t-\t-") for line in printed["headmatch"].splitlines()
               if "\tb_improved\t" in line)
    rows = [line.split("\t") for line in printed["contribution"].splitlines()[1:]]
    assert len(rows) > 1
    assert rows == sorted(rows, key=lambda r: (-float(r[1]), r[0]))
    # equal percentages go in deprel order
    monkeypatch.setattr(cli, "label_contribution", lambda *args: {"b": 25.0, "c": 50.0, "a": 25.0})
    assert cli.main(["analyze", "--contribution", "--gold", gold, "--trees", trees,
                     "--pred-multi", gold, "--pred-single", pipeline["proj.sdp"]]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["c\t50.000000", "a\t25.000000",
                                                        "b\t25.000000"]


def _refused_argv(case, p, inp, out):
    """The argv of one refused invocation; inputs it needs are written to `inp`."""
    conllu = os.path.join(p["corpus"], "target.conllu")
    train = ["train", "--train", p["train.sdp"], "--heldout", p["heldout.sdp"],
             "--epochs", "1", "--out", str(out / "model.npz")]
    configs = {"config-not-an-object": "[1]", "section-not-an-object": '{"network": []}',
               "unknown-config-key": '{"bogus": 1}', "config-not-json": "{",
               "context-dim-config-key": '{"network": {"context_dim": 3}}',
               "char-emb-dim-config-key": '{"network": {"char_emb_dim": 50}}'}
    if case in configs:
        config = inp / "bad.json"
        config.write_text(configs[case])
        return train + ["--config", str(config)]
    if case == "intersect-lengths-differ":
        with open(p["inter.align"], encoding="utf-8") as f:
            (inp / "short.align").write_text("".join(f.readlines()[1:]))
        return ["intersect", "--forward", p["inter.align"], "--backward", str(inp / "short.align"),
                "--out", str(out / "inter.align")]
    if case == "project-sizes-differ":
        with open(p["inter.align"], encoding="utf-8") as f:
            (inp / "short.align").write_text("".join(f.readlines()[1:]))
        return ["project", "--source", os.path.join(p["corpus"], "source.sdp"),
                "--alignments", str(inp / "short.align"), "--target", conllu,
                "--out", str(out / "proj.sdp")]
    if case == "project-not-one-to-one":
        with open(p["inter.align"], encoding="utf-8") as f:
            lines = f.readlines()
        (inp / "many.align").write_text("".join(["0-0 1-0 2-2\n", *lines[1:]]))
        return ["project", "--source", os.path.join(p["corpus"], "source.sdp"),
                "--alignments", str(inp / "many.align"), "--target", conllu,
                "--out", str(out / "proj.sdp")]
    if case == "syntactic-without-syn":
        return train + ["--config", p["tiny.json"], "--syntactic", conllu]
    if case == "unknown-share-flag":
        return train + ["--config", p["tiny.json"], "--syntactic", conllu, "--tasks", "sem,syn",
                        "--share", "rnn,bogus"]
    tasks = {"no-semantic-task": "syn", "duplicate-task": "sem,sem", "syn-without-trees": "sem,syn",
             "unknown-task": "sem,bogus"}
    if case in tasks:
        return train + ["--config", p["tiny.json"], "--tasks", tasks[case]]
    if case == "empty-train":
        (inp / "empty.sdp").write_text("")
        return [*train[:2], str(inp / "empty.sdp"), *train[3:], "--config", p["tiny.json"]]
    if case == "train-out-directory-missing":  # the metrics' directory exists
        return [*train[:-1], str(out / "nodir" / "model.npz"), "--config", p["tiny.json"],
                "--metrics", str(out / "metrics.txt")]
    if case == "train-out-is-metrics":
        return train + ["--config", p["tiny.json"], "--metrics", str(out / "model.npz")]
    if case == "split-outputs-collide":  # the same file, named two ways
        return ["split", "--input", p["proj.sdp"], "--train-out", str(out / "x.sdp"),
                "--heldout-out", str(out / ".." / out.name / "x.sdp")]
    if case in ("parse-out-is-model", "manifest-is-input"):
        (inp / "model.npz").write_bytes(Path(p["model.npz"]).read_bytes())
        (inp / "held.sdp").write_bytes(Path(p["heldout.sdp"]).read_bytes())
        if case == "manifest-is-input":
            return ["score", "--pred", str(inp / "held.sdp"), "--gold", str(inp / "held.sdp"),
                    "--out", str(out / "score.txt"), "--manifest", str(inp / "held.sdp")]
        return ["parse", "--model", str(inp / "model.npz"), "--input", str(inp / "held.sdp"),
                "--out", str(inp / "model.npz")]
    if case == "empty-syntactic":
        (inp / "empty.conllu").write_text("")
        return train + ["--config", p["tiny.json"], "--tasks", "sem,syn",
                        "--syntactic", str(inp / "empty.conllu")]
    modes = {"analyze-no-mode": [], "analyze-two-modes": ["--buckets", "--headmatch"]}[case]
    return ["analyze", *modes, "--gold", p["heldout.sdp"], "--pred", p["heldout.sdp"],
            "--out", str(out / "analysis.tsv")]


_REFUSALS = {  # each case `_refused_argv` builds, and its message
    "config-not-an-object": "bad.json: configuration must be a JSON object",
    "section-not-an-object": "config section 'network' must be an object",
    "unknown-config-key": "bad.json: unknown config keys ['bogus']",
    "config-not-json": "bad.json: invalid JSON",
    "context-dim-config-key": "config section 'network' has unknown keys ['context_dim']",
    "char-emb-dim-config-key": "config section 'network' has unknown keys ['char_emb_dim']",
    "intersect-lengths-differ": "alignment files differ in length: 12 vs 11 sentence pairs",
    "no-semantic-task": "the semantic task is required",
    "duplicate-task": "duplicate task names",
    "unknown-task": "unknown task 'bogus'; expected sem[,syn]",
    "syn-without-trees": "--syntactic FILE is required for the syn task",
    "project-sizes-differ":
        "corpus sizes differ: 12 source graphs, 11 alignment lines, 12 target sentences",
    "project-not-one-to-one":
        "many.align: line 1: intersected alignment must be one-to-one",
    "syntactic-without-syn": "--syntactic given but the syn task is not enabled",
    "empty-train": "semantic corpus must be non-empty",
    "empty-syntactic": "syntactic corpus must be non-empty",
    "unknown-share-flag": "unknown sharing flag 'bogus'; expected rnn[,fnn][,taskrnn]",
    "analyze-no-mode": "exactly one of --buckets/--headmatch/--contribution is required",
    "analyze-two-modes": "exactly one of --buckets/--headmatch/--contribution is required",
    "train-out-directory-missing": f"{os.sep}nodir{os.sep}model.npz: output directory ",
    "train-out-is-metrics": f"{os.sep}model.npz, another output of this command",
    "split-outputs-collide": f"{os.sep}x.sdp, another output of this command",
    "parse-out-is-model": f"{os.sep}model.npz, an input of this command",
    "manifest-is-input": f"{os.sep}held.sdp, an input of this command",
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refused_invocation_exits_2_and_writes_nothing(pipeline, tmp_path, capsys, case):
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    assert cli.main(_refused_argv(case, pipeline, inp, out)) == 2
    assert _REFUSALS[case] in capsys.readouterr().err
    assert os.listdir(out) == []
    if os.path.exists(inp / "model.npz"):  # nothing it names as an input was overwritten
        assert (inp / "model.npz").read_bytes() == Path(pipeline["model.npz"]).read_bytes()
        assert (inp / "held.sdp").read_bytes() == Path(pipeline["heldout.sdp"]).read_bytes()


def test_train_whose_save_fails_leaves_neither_file(pipeline, tmp_path, monkeypatch, capsys):
    def failing_save(self, path):
        raise OSError(f"{path}: no space left on device")

    monkeypatch.setattr(ParserModel, "save", failing_save)
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", pipeline["tiny.json"],
                     "--epochs", "1", "--out", str(out)]) == 2
    assert "no space left on device" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command,flag", [
    ("train", "--context"), ("train", "--heldout-context"), ("parse", "--context"),
], ids=["train-context", "train-heldout-context", "parse-context"])
def test_context_flags_are_unrecognized(pipeline, tmp_path, capsys, command, flag):
    if command == "train":
        argv = ["train", "--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                "--config", pipeline["tiny.json"], "--epochs", "1",
                "--out", str(tmp_path / "model.npz")]
    else:
        argv = ["parse", "--model", pipeline["model.npz"], "--input", pipeline["heldout.sdp"],
                "--out", str(tmp_path / "pred.sdp")]
    with pytest.raises(SystemExit) as stop:
        cli.main(argv + [flag, "x.vec"])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag} x.vec" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
    table = tmp_path / "analysis.tsv"
    assert cli.main(argv + ["--out", str(table)]) == 2
    assert f"analyze --{mode} needs {missing}" in capsys.readouterr().err
    assert not table.exists()


@pytest.mark.parametrize("biaffine_bias", [False, True])
def test_gradcheck(monkeypatch, biaffine_bias):
    if biaffine_bias:
        monkeypatch.setattr(cli, "NetworkConfig",
                            lambda **kw: NetworkConfig(biaffine_bias=True, **kw))
    shapes = {}
    check = ad.gradient_check

    settings = []

    def spy(closure, params, **kwargs):
        shapes.update((p.name, p.shape) for p in params)
        settings.append(kwargs)
        return check(closure, params, **kwargs)

    monkeypatch.setattr(ad, "gradient_check", spy)
    seeds = []
    model = cli.ParserModel
    monkeypatch.setattr(cli, "ParserModel", lambda *a, **kw: seeds.append(kw["seed"]) or
                        model(*a, **kw))
    report = cli.run_gradcheck()
    assert report.max_rel_error <= 1e-4, str(report)
    # the defaults are seed 0, epsilon 1e-5 and tolerance 1e-4, and the check
    # covers three encoder layers
    assert seeds == [0] and settings == [{"epsilon": 1e-5, "tolerance": 1e-4}]
    assert {name.split("/")[2] for name in shapes if name.startswith("rnn/")} == \
        {"layer0", "layer1", "layer2"}
    # at toy widths: words 4, so the char BiLSTM 2 per direction, and POS 2
    assert (shapes["emb/word"][1], shapes["emb/char"][1], shapes["char_rnn/fw/u"][0],
            shapes["emb/pos"][1]) == (4, 2, 2, 2)
    # the bias is a border of the edge weight (fnn_size 4), checked with it
    edge = 5 if biaffine_bias else 4
    assert shapes["scorer/semantic/edge"] == (edge, edge)
    assert "scorer/semantic/edge" in report.per_param


@pytest.mark.parametrize("passed", [True, False])
def test_gradcheck_exit_status_is_its_verdict(monkeypatch, capsys, passed):
    report = ad.GradCheckReport(0.0 if passed else 1.0, 1e-4, "w")
    configs = []
    monkeypatch.setattr(cli, "run_gradcheck", lambda **config: configs.append(config) or report)
    assert cli.main(["gradcheck"]) == (0 if passed else 1)
    assert ("PASS" if passed else "FAIL") in capsys.readouterr().out
    assert configs == [{"seed": 0, "epsilon": 1e-5, "tolerance": 1e-4}]


@pytest.mark.parametrize("flag,got", [
    ("--epsilon=0", "epsilon=0.0, tolerance=0.0001"),
    ("--epsilon=nan", "epsilon=nan, tolerance=0.0001"),
    ("--epsilon=-1e-5", "epsilon=-1e-05, tolerance=0.0001"),
    ("--tolerance=-1", "epsilon=1e-05, tolerance=-1.0"),
    ("--tolerance=inf", "epsilon=1e-05, tolerance=inf")])
def test_gradcheck_refuses_invalid_settings(capsys, flag, got):
    assert cli.main(["gradcheck", flag]) == 2
    assert capsys.readouterr() == ("", "sdpkit: error: gradient check needs a finite epsilon > 0 "
                                       f"and a finite tolerance >= 0, got {got}\n")


def test_input_that_is_not_utf8_is_refused_naming_the_file(pipeline, tmp_path, capsys):
    held = pipeline["heldout.sdp"]
    latin = tmp_path / "latin.sdp"
    latin.write_bytes(Path(held).read_bytes().replace(b"\t", b"\xe9\t", 1))
    report = tmp_path / "score.txt"
    assert cli.main(["score", "--pred", str(latin), "--gold", held, "--out", str(report)]) == 2
    assert capsys.readouterr().err == f"sdpkit: error: {latin}: not UTF-8 text (byte 0xe9)\n"
    config = tmp_path / "config.json"
    config.write_bytes(b'{"network": {}}\xff')
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout", held,
                     "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"sdpkit: error: {config}: not UTF-8 text (byte 0xff)\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "latin.sdp"]


def test_sample_and_split_flag_defaults():
    parse = cli.build_parser().parse_args
    assert parse(["sample", "--input", "a", "--out", "b", "--size", "2"]).threshold == 0.8
    split = parse(["split", "--input", "a", "--train-out", "b", "--heldout-out", "c"])
    assert split.heldout == 0.05


def test_synth_flag_defaults_are_the_config_defaults(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path), "--sentences", "2"]) == 0
    with open(tmp_path / "source.sdp.manifest.json", encoding="utf-8") as f:
        assert json.load(f)["config"]["synth"] == asdict(SynthConfig(sentences=2))


def test_semantic_weight_config_key_rejected(pipeline, tmp_path, capsys):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"network": TINY, "train": {"semantic_weight": 0.975}}))
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", str(config), "--out", str(out)]) == 2
    assert "unknown keys ['semantic_weight']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,key,value,kind", [
    ("train", "lr", "fast", "float"), ("network", "word_dim", 8.0, "int"),
    ("network", "rnn_layers", True, "int"), ("train", "max_epochs", 2.5, "int"),
    ("train", "combined_steps", 1, "bool"), ("sharing", "shared_fnn", "yes", "bool"),
    ("network", "edge_dropout", False, "float"),
])
def test_config_value_of_the_wrong_type_rejected(pipeline, tmp_path, capsys,
                                                 section, key, value, kind):
    raw = {"network": dict(TINY), "train": {"label_interp": 0.5}, "sharing": {}}
    raw[section][key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--syntactic",
                     os.path.join(pipeline["corpus"], "target.conllu"), "--tasks", "sem,syn",
                     "--config", str(config), "--epochs", "1",
                     "--out", str(tmp_path / "model.npz")]) == 2
    assert (f"config section {section!r} key {key!r} must be of type {kind}, "
            f"got {json.dumps(value)}" in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["bad.json"]


def test_config_float_field_takes_an_int(pipeline, tmp_path):
    config = tmp_path / "int.json"
    config.write_text(json.dumps({"network": TINY, "train": {"syntactic_weight": 0}}),
                      encoding="utf-8")
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", str(config), "--epochs", "1",
                     "--out", str(out)]) == 0
    with open(f"{out}.manifest.json", encoding="utf-8") as f:
        assert json.load(f)["config"]["train"]["syntactic_weight"] == 0


def test_train_without_a_config_file_uses_the_defaults(pipeline, tmp_path, monkeypatch):
    # flags only: the network is NetworkConfig's defaults, the paper's dimensions
    calls = []

    def spy(model, corpora, heldout, cfg, metrics_out=None):  # no training, for speed
        calls.append((model.config, cfg))
        return TrainResult([{"epoch": 1, "heldout_lf": 0.5}])

    monkeypatch.setattr(cli, "train", spy)
    out = tmp_path / "model.npz"
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--seed", "5", "--lr", "0.01", "--epochs", "7",
                     "--patience", "2", "--token-budget", "300", "--out", str(out)]) == 0
    train_cfg = TrainConfig(lr=0.01, max_epochs=7, patience=2, token_budget=300, seed=5)
    assert calls == [(NetworkConfig(), train_cfg)]
    with open(f"{out}.manifest.json", encoding="utf-8") as f:
        config = json.load(f)["config"]
    assert config["network"] == asdict(NetworkConfig())
    assert (config["seed"], config["train"]) == (5, asdict(train_cfg))


def _ids_and_sentences(path):
    with open(path, encoding="utf-8") as f:
        doc = read_sdp(f)
    return [sid for sid, _ in doc], [g.sentence for g in doc.semantic_graphs()]


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "count-dim-header"])
def test_train_with_word_vectors(pipeline, tmp_path, monkeypatch, header):
    forms = sorted({t.form for s in _ids_and_sentences(pipeline["train.sdp"])[1] for t in s})
    dim = TINY["word_dim"]
    table = {form: np.arange(dim) + k for k, form in enumerate(forms[:3])}
    table["not-in-the-corpus"] = np.ones(dim)
    vectors = tmp_path / "words.vec"
    lines = [f"{form} " + " ".join(map(str, vec)) for form, vec in table.items()]
    vectors.write_text("\n".join([f"{len(table)} {dim}"] * header + lines) + "\n",
                       encoding="utf-8")
    out = str(tmp_path / "model.npz")
    initial, train = {}, cli.train

    def recording_train(model, *args, **kwargs):
        initial["word"] = model.params["emb/word"].data.copy()
        return train(model, *args, **kwargs)

    monkeypatch.setattr(cli, "train", recording_train)
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                     "--config", pipeline["tiny.json"], "--epochs", "1",
                     "--word-vectors", str(vectors), "--out", out]) == 0
    with open(out + ".manifest.json", encoding="utf-8") as f:
        assert str(vectors) in json.load(f)["inputs"]
    model = ParserModel.load(out)
    # training starts from the drawn word table plus the vectors; a word with
    # no vector keeps its draw
    drawn = ParserModel(model.config, model.tasks, model.word_vocab, model.char_vocab,
                        model.pos_vocab, seed=model.seed).params["emb/word"].data
    for k, word in enumerate(model.word_vocab.items):
        np.testing.assert_array_equal(initial["word"][k],
                                      drawn[k] + table.get(word, np.zeros(dim)))
    pred = str(tmp_path / "pred.sdp")
    assert cli.main(["parse", "--model", out, "--input", pipeline["heldout.sdp"],
                     "--out", pred]) == 0
    assert _ids_and_sentences(pred) == _ids_and_sentences(pipeline["heldout.sdp"])


def test_train_leaves_the_unknown_row_at_its_draw_plus_the_unk_vector(pipeline, tmp_path):
    # every training form is in the vocabulary, so no training token reads row
    # 0: its gradient and Adam update are zero, while the other rows move
    dim = TINY["word_dim"]
    unk = np.linspace(-1.0, 1.0, dim)
    vectors = tmp_path / "words.vec"
    vectors.write_text("<unk> " + " ".join(map(str, unk)) + "\n", encoding="utf-8")
    out = str(tmp_path / "model.npz")
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                     "--config", pipeline["tiny.json"], "--epochs", "2",
                     "--word-vectors", str(vectors), "--out", out]) == 0
    model = ParserModel.load(out)
    drawn = ParserModel(model.config, model.tasks, model.word_vocab, model.char_vocab,
                        model.pos_vocab, seed=model.seed).params["emb/word"].data
    trained = model.params["emb/word"].data
    np.testing.assert_array_equal(trained[0], drawn[0] + unk)
    assert np.all(np.any(trained[1:] != drawn[1:], axis=1))


def test_train_holds_no_word_vector_while_it_trains(pipeline, tmp_path, monkeypatch):
    dim = TINY["word_dim"]
    forms = sorted({t.form for s in _ids_and_sentences(pipeline["train.sdp"])[1] for t in s})
    vectors = tmp_path / "words.vec"
    vectors.write_text("".join(f"{form} {' '.join(['0.5'] * dim)}\n"
                               for form in [*forms[:4], "outside-1", "outside-2"]),
                       encoding="utf-8")
    refs, alive, read, train = [], [], cli.read_word_vectors, cli.train

    def read_word_vectors(*args):
        table = read(*args)
        refs.extend(weakref.ref(vector) for vector in table.values())
        return table

    def counting_train(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "read_word_vectors", read_word_vectors)
    monkeypatch.setattr(cli, "train", counting_train)
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                     "--config", pipeline["tiny.json"], "--epochs", "1",
                     "--word-vectors", str(vectors), "--out", str(tmp_path / "model.npz")]) == 0
    assert len(refs) == 4 and alive == [0]  # the two words outside the vocabulary are not kept


def test_train_ignores_the_vectors_of_words_outside_the_vocabulary(pipeline, tmp_path):
    dim = TINY["word_dim"]
    forms = sorted({t.form for s in _ids_and_sentences(pipeline["train.sdp"])[1] for t in s})
    kept = [f"{form} {' '.join([str(k / 4)] * dim)}" for k, form in enumerate(forms[:5])]
    outside = [f"outside-{k} {' '.join([str(k)] * dim)}" for k in (1, 2)]
    members = []
    for lines in (kept, [outside[0], *kept, outside[1]]):
        vectors, out = tmp_path / "words.vec", tmp_path / f"model{len(members)}.npz"
        vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                         pipeline["heldout.sdp"], "--config", pipeline["tiny.json"],
                         "--epochs", "1", "--word-vectors", str(vectors),
                         "--out", str(out)]) == 0
        with np.load(out) as npz:
            members.append({name: npz[name].tobytes() for name in npz.files})
    assert members[0] == members[1]


def test_train_seed_config_key_rejected(pipeline, tmp_path, capsys):
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"network": TINY, "train": {"seed": 5}}))
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", str(config), "--epochs", "1",
                     "--out", str(tmp_path / "model.npz")]) == 2
    assert ("config section 'train' key 'seed' is not read; set the seed with the "
            "top-level 'seed' key or --seed" in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["seed.json"]


@pytest.mark.parametrize("command", ["synth", "split", "sample", "train", "gradcheck"])
def test_negative_seed_flag_rejected(pipeline, tmp_path, capsys, command):
    out = str(tmp_path / "out")
    argv = {"synth": ["--out", out, "--sentences", "2"],
            "split": ["--input", pipeline["train.sdp"], "--train-out", out,
                      "--heldout-out", str(tmp_path / "held.sdp")],
            "sample": ["--input", pipeline["train.sdp"], "--out", out, "--size", "2"],
            "train": ["--train", pipeline["train.sdp"], "--heldout", pipeline["heldout.sdp"],
                      "--config", pipeline["tiny.json"], "--epochs", "1", "--out", out],
            "gradcheck": ["--manifest", out]}[command]
    assert cli.main([command, *argv, "--seed", "-1"]) == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("seed", [True, -1, "3"])
def test_config_seed_must_be_a_non_negative_integer(pipeline, tmp_path, capsys, seed):
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"network": TINY, "seed": seed}))
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", str(config), "--epochs", "1",
                     "--out", str(tmp_path / "model.npz")]) == 2
    assert (f"config key 'seed' must be a non-negative integer, got {json.dumps(seed)}"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["seed.json"]


@pytest.mark.parametrize("sharing,flags,given", [
    ({"shared_fnn": True}, [], "config section 'sharing'"),
    ({}, ["--share", "fnn"], "--share"),
], ids=["config-section", "flag"])
def test_single_task_train_refuses_sharing(pipeline, tmp_path, capsys, sharing, flags, given):
    config = tmp_path / "share.json"
    config.write_text(json.dumps({"network": TINY, "sharing": sharing}))
    assert cli.main(["train", "--train", pipeline["train.sdp"], "--heldout",
                     pipeline["heldout.sdp"], "--config", str(config), "--epochs", "1",
                     "--out", str(tmp_path / "model.npz"), *flags]) == 2
    assert f"{given} given but the syn task is not enabled" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["share.json"]


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
                    "--pred-a", held, "--pred-b", held, "--out", out],
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


def _fail(*args, **kwargs):
    raise AssertionError("the model was loaded or run")


@pytest.mark.parametrize("sent_id,message", [
    ("s00002", "sentence ids ['s00002'] occur more than once"),
    ("aligned: 1", "sentence id 'aligned: 1' would not read back"),
], ids=["repeated", "aligned"])
def test_parse_checks_ids_before_loading_the_model(pipeline, tmp_path, capsys, monkeypatch,
                                                   sent_id, message):
    with open(os.path.join(pipeline["corpus"], "target.conllu"), encoding="utf-8") as f:
        trees = read_conllu(f)
    # the second tree has no sent_id, so it is numbered s00002
    trees = [replace(trees[0], comments=(f"# sent_id = {sent_id}",)),
             replace(trees[1], comments=())] + trees[2:]
    bad = tmp_path / "in.conllu"
    with open(bad, "w", encoding="utf-8") as f:
        write_conllu(trees, f)
    monkeypatch.setattr(cli.ParserModel, "load", _fail)
    monkeypatch.setattr(cli, "parse_semantic", _fail)
    assert cli.main(["parse", "--model", pipeline["model.npz"], "--input", str(bad),
                     "--out", str(tmp_path / "pred.sdp")]) == 2
    assert f"sdpkit: error: {bad}: {message}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["in.conllu"]


def _without_a_form(src, dst) -> int:
    """Copy the file at `src` to `dst` with the FORM of its first token line
    emptied; returns that line's number."""
    with open(src, encoding="utf-8") as f:
        lines = f.read().split("\n")
    k = next(k for k, line in enumerate(lines) if line and not line.startswith("#"))
    cols = lines[k].split("\t")
    lines[k] = "\t".join(cols[:1] + [""] + cols[2:])
    dst.write_text("\n".join(lines), encoding="utf-8")
    return k + 1


@pytest.mark.parametrize("command,flag,fmt", [
    ("train", "--train", "sdp"), ("train", "--heldout", "sdp"),
    ("train", "--syntactic", "conllu"), ("parse", "--input", "sdp"),
    ("parse", "--input", "conllu"),
])
def test_empty_form_refused_before_the_model_runs(pipeline, tmp_path, capsys, monkeypatch,
                                                  command, flag, fmt):
    src = (os.path.join(pipeline["corpus"], "target.conllu") if fmt == "conllu"
           else pipeline[f"{flag[2:]}.sdp" if command == "train" else "heldout.sdp"])
    bad = tmp_path / f"bad.{fmt}"
    line = _without_a_form(src, bad)
    monkeypatch.setattr(ad, "lstm_seq", _fail)
    out = str(tmp_path / "out")
    argv = {"train": ["train", "--train", pipeline["train.sdp"], "--heldout",
                      pipeline["heldout.sdp"], "--config", pipeline["tiny.json"],
                      "--epochs", "1", "--out", out],
            "parse": ["parse", "--model", pipeline["model.npz"], "--input", str(bad),
                      "--out", out]}[command]
    if flag == "--syntactic":
        argv += ["--syntactic", str(bad), "--tasks", "sem,syn"]
    elif command == "train":
        argv[argv.index(flag) + 1] = str(bad)
    assert cli.main(argv) == 2
    assert (f"sdpkit: error: {bad}: line {line}: token 1 has an empty form"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == [bad.name]


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


# The golden pipeline's held-out LF against partial gold, measured on seeds 0-11
# (CHANGES.md lists them), ranged 0.311-0.457 with mean 0.393 and standard
# deviation 0.049; one epoch gives 0. The floor is the mean minus three
# standard deviations (0.246), rounded down. The seed was fixed before measuring.
# The decided-cell LF that `score` prints beside it, on the same runs: 0.462963,
# 0.387755, 0.473684, 0.515625, 0.388889, 0.436364, 0.456790, 0.413793,
# 0.552381, 0.433962, 0.537815, 0.459459 (mean 0.460, standard deviation 0.054);
# its floor is taken the same way (0.299). Early stopping reads the full LF.
GOLDEN_SEED = 0
GOLDEN_LF_FLOOR = 0.24
GOLDEN_DECIDED_LF_FLOOR = 0.29


def test_golden_pipeline_clears_its_lf_floor(tmp_path, capsys):
    p = {name: str(tmp_path / name) for name in (
        "corpus", "desk.json", "inter.align", "proj.sdp", "train.sdp", "heldout.sdp",
        "model.npz", "pred.sdp")}
    with open(p["desk.json"], "w", encoding="utf-8") as f:
        json.dump({"network": {**TINY, "word_dim": 32, "pos_dim": 16, "rnn_size": 64,
                               "fnn_size": 64}}, f)
    corpus = os.path.join(p["corpus"], "{}")
    seed = str(GOLDEN_SEED)
    for argv in (
            ["synth", "--out", p["corpus"], "--sentences", "60", "--seed", seed],
            ["intersect", "--forward", corpus.format("forward.align"),
             "--backward", corpus.format("backward.align"), "--out", p["inter.align"]],
            ["project", "--source", corpus.format("source.sdp"), "--alignments", p["inter.align"],
             "--target", corpus.format("target.conllu"), "--out", p["proj.sdp"]],
            ["split", "--input", p["proj.sdp"], "--train-out", p["train.sdp"],
             "--heldout-out", p["heldout.sdp"], "--heldout", "0.2", "--seed", seed],
            ["train", "--train", p["train.sdp"], "--heldout", p["heldout.sdp"],
             "--config", p["desk.json"], "--seed", seed, "--lr", "0.01", "--epochs", "15",
             "--token-budget", "30", "--patience", "15", "--out", p["model.npz"]],
            ["parse", "--model", p["model.npz"], "--input", p["heldout.sdp"],
             "--out", p["pred.sdp"]],
            ["score", "--pred", p["pred.sdp"], "--gold", p["heldout.sdp"]]):
        assert cli.main(argv) == 0, argv
    out = capsys.readouterr().out
    best = float(re.search(r"best_heldout_lf=([0-9.]+)", out).group(1))
    lf, decided_lf = map(float, re.search(r"^lp=\S+ lr=\S+ lf=([0-9.]+) .*\bdecided_lf=([0-9.]+)",
                                          out, re.M).groups())
    assert lf == best  # the parsed checkpoint is the epoch early stopping kept
    assert lf >= GOLDEN_LF_FLOOR
    assert decided_lf >= GOLDEN_DECIDED_LF_FLOOR


# Two sentences in the SemEval 2015 layout (ID FORM LEMMA POS TOP PRED FRAME,
# then one ARG column per predicate), written by hand: the first has two tops
# (2 and 4), a token with two heads (5, from 2 and 4), FRAME values and a row
# in no edge (3); in the second, token 2 has two heads.
SDP_2015_SOURCE = """#SDP 2015
#20001001
1\tPierre\tPierre\tNNP\t-\t-\t_\tcompound\t_
2\tVinken\tVinken\tNNP\t+\t+\tnamed:x-c\t_\tARG1
3\t,\t_\t,\t-\t-\t_\t_\t_
4\tjoins\tjoin\tVBZ\t+\t+\tv:e-i-p\t_\t_
5\tboards\tboard\tNNS\t-\t-\t_\tposs\tARG2

#20001002
1\tMr.\tMr.\tNNP\t-\t+\tn:x\t_\t_
2\tVinken\tVinken\tNNP\t-\t-\t_\tcompound\tARG1
3\tchairs\tchair\tVBZ\t+\t+\tv:e-i\t_\t_
"""
SDP_2015_TARGET = """# sent_id = 20001001
1\tPierre\tPierre\tPROPN\tNNP\t_\t2\tcompound\t_\t_
2\tVinken\tVinken\tPROPN\tNNP\t_\t4\tnsubj\t_\t_
3\t,\t,\tPUNCT\t,\t_\t2\tpunct\t_\t_
4\tjoins\tjoin\tVERB\tVBZ\t_\t0\troot\t_\t_
5\tboards\tboard\tNOUN\tNNS\t_\t4\tobj\t_\t_

# sent_id = 20001002
1\tMr.\tMr.\tPROPN\tNNP\t_\t2\tcompound\t_\t_
2\tVinken\tVinken\tPROPN\tNNP\t_\t3\tnsubj\t_\t_
3\tchairs\tchair\tVERB\tVBZ\t_\t0\troot\t_\t_
"""


def test_a_2015_file_runs_project_train_parse_and_score(tmp_path, capsys):
    p = {name: str(tmp_path / name) for name in (
        "source.sdp", "target.conllu", "identity.align", "tiny.json", "proj.sdp",
        "model.npz", "pred.sdp")}
    for name, text in (("source.sdp", SDP_2015_SOURCE), ("target.conllu", SDP_2015_TARGET),
                       ("identity.align", "0-0 1-1 2-2 3-3 4-4\n0-0 1-1 2-2\n"),
                       ("tiny.json", json.dumps({"network": TINY}))):
        Path(p[name]).write_text(text, encoding="utf-8")
    for argv in (
            ["project", "--source", p["source.sdp"], "--alignments", p["identity.align"],
             "--target", p["target.conllu"], "--out", p["proj.sdp"]],
            ["train", "--train", p["proj.sdp"], "--heldout", p["proj.sdp"],
             "--config", p["tiny.json"], "--epochs", "1", "--seed", "3", "--out", p["model.npz"]],
            ["parse", "--model", p["model.npz"], "--input", p["target.conllu"],
             "--out", p["pred.sdp"]],
            ["score", "--pred", p["pred.sdp"], "--gold", p["source.sdp"]]):
        assert cli.main(argv) == 0, argv
    source = _read_sdp_file(p["source.sdp"])
    first = source.graphs()[0]
    assert first.tops == {2, 4}
    assert {t.index: t.frame for t in first.sentence if t.frame} == {2: "named:x-c",
                                                                     4: "v:e-i-p"}
    assert sorted(h for h, d, _ in first.edges if d == 5) == [2, 4]
    assert all(3 not in (h, d) for h, d, _ in first.edges)
    projected = _read_sdp_file(p["proj.sdp"])  # identity links transfer every edge
    assert [(sid, g.graph.edges) for sid, g in projected] == [
        (sid, g.edges) for sid, g in source]
    pred = _read_sdp_file(p["pred.sdp"])
    assert [(sid, [t.form for t in g.sentence]) for sid, g in pred] == [
        (sid, [t.form for t in g.sentence]) for sid, g in source]
    assert re.search(r"^lp=\S+ lr=\S+ lf=", capsys.readouterr().out, re.M)


def _read_sdp_file(path: str) -> SdpDocument:
    with open(path, encoding="utf-8") as f:
        return read_sdp(f)
