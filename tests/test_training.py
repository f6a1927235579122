import gc
import io
import json
import re
import weakref
import zipfile
from dataclasses import replace

import numpy as np
import pytest
from helpers import (LABELS, adam_state, random_sentence, read_checkpoint,
                     reference_acyclic_decode, reference_decode_semantic,
                     reference_semantic_loss, reference_syntactic_loss, write_checkpoint)
from hypothesis import given, settings, strategies as st

from sdpkit import autodiff as ad
from sdpkit import network, training
from sdpkit.errors import CheckpointError, ConfigError, TrainingDiverged
from sdpkit.evaluation import ScoreReport
from sdpkit.formats import SdpDocument, read_sdp, write_sdp
from sdpkit.graph import PartialGraph, SemanticGraph, is_acyclic
from sdpkit.network import (SEMANTIC, SYNTACTIC, NetworkConfig, ParserModel, SharingTopology,
                            Vocab, build_vocabs, semantic_label_vocab)
from sdpkit.synth import DEFAULT_DEPRELS, DEFAULT_LABELS, SynthConfig, synth_corpus

TINY = NetworkConfig(word_dim=8, pos_dim=4, rnn_size=8, rnn_layers=2, fnn_size=8)


def _corpus(sentences: int, seed: int = 5):
    corpus = synth_corpus(SynthConfig(sentences=sentences, seed=seed))
    return corpus.target_gold.graphs(), corpus.trees


def _model(graphs, trees=(), seed: int = 5, config: NetworkConfig = TINY) -> ParserModel:
    words, chars, pos = build_vocabs([g.sentence for g in graphs])
    tasks = {SEMANTIC: semantic_label_vocab(DEFAULT_LABELS)}
    topology = None
    if trees:
        tasks[SYNTACTIC] = Vocab(DEFAULT_DEPRELS, unk=False)
        topology = SharingTopology(shared_rnn=True, task_rnn=True)
    return ParserModel(config, tasks, words, chars, pos, topology=topology, seed=seed)


@pytest.mark.parametrize("max_epochs", [1, 3], ids=["max_epochs=1", "max_epochs=3"])
def test_divergence_in_the_first_epoch_keeps_the_last_finished_step(monkeypatch, max_epochs):
    # no epoch has completed, so there is no snapshot to restore: the model
    # keeps what step 1 made of it, and the NaN step never updates it
    graphs, _ = _corpus(4)
    model = _model(graphs)
    real_loss = training.semantic_loss
    calls, before_nan = [], []

    def nan_at_second_step(*args, **kwargs):
        calls.append(1)
        loss = real_loss(*args, **kwargs)
        if len(calls) < 2:
            return loss
        before_nan.append(model.param_data.copy())
        return ad.scale(loss, float("nan"))

    copyto, full_copies = np.copyto, []

    def counted(dst, src, *args, **kwargs):
        full_copies.append(dst.size == model.param_data.size)
        return copyto(dst, src, *args, **kwargs)

    monkeypatch.setattr(training, "semantic_loss", nan_at_second_step)
    monkeypatch.setattr(np, "copyto", counted)
    cfg = training.TrainConfig(token_budget=1, max_epochs=max_epochs)  # one sentence per step
    with pytest.raises(TrainingDiverged, match="epoch 1, step 2"):
        training.train(model, {SEMANTIC: [(g.sentence, g) for g in graphs]},
                       [(g.sentence, g) for g in graphs], cfg)
    assert np.isfinite(model.param_data).all()
    np.testing.assert_array_equal(model.param_data, before_nan[0])
    assert not any(full_copies)


def _train_one_sentence_per_step(model, graphs, max_epochs: int):
    items = [(g.sentence, g) for g in graphs]
    cfg = training.TrainConfig(token_budget=1, max_epochs=max_epochs, patience=5, lr=0.01)
    return training.train(model, {SEMANTIC: items}, items, cfg)


def test_divergence_after_epoch_one_restores_the_epoch_one_snapshot(monkeypatch):
    graphs, _ = _corpus(4)
    epoch_one = _model(graphs)
    _train_one_sentence_per_step(epoch_one, graphs, max_epochs=1)
    real_loss = training.semantic_loss
    calls = []

    def nan_at_third_step_of_epoch_two(*args, **kwargs):
        calls.append(1)
        loss = real_loss(*args, **kwargs)
        return ad.scale(loss, float("nan")) if len(calls) == len(graphs) + 3 else loss

    monkeypatch.setattr(training, "semantic_loss", nan_at_third_step_of_epoch_two)
    model = _model(graphs)
    initial = model.params["emb/word"].data.copy()
    # two Adam steps of epoch 2 have moved the parameters before the NaN
    with pytest.raises(TrainingDiverged, match="epoch 2, step 3"):
        _train_one_sentence_per_step(model, graphs, max_epochs=2)
    assert not np.array_equal(model.params["emb/word"].data, initial)
    for name, p in epoch_one.params.items():
        assert np.array_equal(model.params[name].data, p.data), name


@pytest.mark.parametrize("lfs,best", [((5, 4), 1), ((4, 5, 3), 2), ((4, 6, 6), 2)],
                         ids=["epoch-1-best", "epoch-2-best", "tie-keeps-the-first"])
def test_train_ends_holding_the_best_epoch(monkeypatch, lfs, best):
    graphs, _ = _corpus(4)
    scores = iter(lfs)
    seen = []  # the parameters each epoch ended with

    def scored(model, corpus):
        seen.append({name: p.data.copy() for name, p in model.params.items()})
        correct = next(scores)  # labeled F1 is correct / 10
        report = ScoreReport(10, 10, correct, 10, 10, correct)
        return report, report

    monkeypatch.setattr(training, "evaluate_semantic", scored)
    model = _model(graphs)
    result = _train_one_sentence_per_step(model, graphs, max_epochs=len(lfs))
    assert result.epochs_run == len(lfs) and result.best_epoch == best
    assert result.best_lf == max(lfs) / 10
    assert not np.array_equal(seen[best - 1]["emb/word"], seen[-1]["emb/word"])
    for name, p in model.params.items():
        assert np.array_equal(p.data, seen[best - 1][name]), name


@pytest.mark.parametrize("lfs,copies", [((5,), 0), ((5, 4), 2), ((4, 5), 1), ((4, 5, 3), 3)],
                         ids=["one-epoch", "best-then-worse", "best-last", "best-in-between"])
def test_train_copies_the_snapshot_only_when_it_can_be_read(monkeypatch, lfs, copies):
    # a best epoch is copied only if another epoch can follow, and the
    # snapshot copied back only if a step has moved the model since its best
    graphs, _ = _corpus(4)
    scores = iter(lfs)
    monkeypatch.setattr(training, "evaluate_semantic", lambda model, corpus: (ScoreReport(
        10, 10, next(scores), 10, 10, 0),) * 2)
    model = _model(graphs)
    copyto, calls = np.copyto, []

    def counted(dst, src, *args, **kwargs):
        calls.append(dst.size == model.param_data.size)
        return copyto(dst, src, *args, **kwargs)

    monkeypatch.setattr(np, "copyto", counted)
    _train_one_sentence_per_step(model, graphs, max_epochs=len(lfs))
    assert calls.count(True) == copies


def test_train_stops_once_patience_runs_out(monkeypatch):
    graphs, _ = _corpus(2)
    scores = iter([5, 4, 4] + [9] * 7)
    decided = iter(range(1, 11))  # rising every epoch, and not read by early stopping
    monkeypatch.setattr(training, "evaluate_semantic", lambda model, corpus: (ScoreReport(
        10, 10, next(scores), 10, 10, 0), ScoreReport(10, 10, next(decided), 10, 10, 0)))
    items = [(g.sentence, g) for g in graphs]
    cfg = training.TrainConfig(max_epochs=10, patience=1)
    result = training.train(_model(graphs), {SEMANTIC: items}, items, cfg)
    assert (result.epochs_run, result.best_epoch, result.best_lf) == (3, 1, 0.5)


@pytest.mark.parametrize("multitask", [False, True], ids=["single-task", "multitask"])
def test_the_metrics_line_is_pinned(monkeypatch, multitask):
    graphs, trees = _corpus(3)
    monkeypatch.setattr(training, "evaluate_semantic", lambda model, corpus: (
        ScoreReport(3, 3, 2, 4, 4, 2), ScoreReport(3, 2, 2, 4, 4, 2)))
    items = [(g.sentence, g) for g in graphs]
    corpora = {SEMANTIC: items}
    if multitask:
        corpora[SYNTACTIC] = [(t.sentence, t) for t in trees]
    out = io.StringIO()
    result = training.train(_model(graphs, trees), corpora, items,
                            training.TrainConfig(max_epochs=2), out)
    lines = []
    for entry in result.metrics:
        losses = [f"loss_{task}={entry[f'loss_{task}']:.6f}" for task in sorted(corpora)]
        # LF 2/3, UF 1/2 and decided-cell LF 4/5, each to six decimals; the
        # epoch is an integer
        lines.append(" ".join([f"epoch={entry['epoch']}", *losses, "heldout_lf=0.666667 "
                               "heldout_uf=0.500000 heldout_decided_lf=0.800000"]) + "\n")
    assert lines[0].startswith("epoch=1 loss_semantic=")
    assert out.getvalue() == "".join(lines) and len(lines) == 2


def test_the_decided_cell_lf_is_the_heldout_lf_on_fully_decided_gold():
    graphs, _ = _corpus(4)
    items = [(g.sentence, g) for g in graphs]
    result = training.train(_model(graphs), {SEMANTIC: items}, items,
                            training.TrainConfig(max_epochs=1))
    entry = result.metrics[0]
    assert entry["heldout_decided_lf"] == entry["heldout_lf"] > 0.0


def test_combined_steps_leave_a_single_task_run_unchanged():
    graphs, _ = _corpus(6)
    items = [(g.sentence, g) for g in graphs]
    runs = []
    for combined in (False, True):
        model = _model(graphs)
        cfg = training.TrainConfig(token_budget=20, max_epochs=2, lr=0.01,
                                   combined_steps=combined)
        runs.append((model, training.train(model, {SEMANTIC: items}, items[:2], cfg)))
    (alternating, alternating_result), (combined, combined_result) = runs
    assert combined_result.metrics == alternating_result.metrics
    for name, p in alternating.params.items():
        assert np.array_equal(combined.params[name].data, p.data), name


def test_metrics_report_the_mean_loss_per_token():
    graphs, _ = _corpus(3)
    items = [(g.sentence, g) for g in graphs]
    cfg = training.TrainConfig(max_epochs=1)  # one step: every sentence in one batch
    result = training.train(_model(graphs), {SEMANTIC: items}, items, cfg)
    batch = [items[i] for i in training._shuffle_rng(cfg.seed, 1, SEMANTIC).permutation(3)]
    fresh = _model(graphs)
    s_edge, s_label = fresh.forward([s for s, _ in batch], SEMANTIC,
                                    training._dropout_rng(cfg.seed, 1, SEMANTIC, 0))
    loss = training.semantic_loss(s_edge, s_label, [g for _, g in batch],
                                  fresh.tasks[SEMANTIC], cfg.label_interp)
    assert result.metrics[0]["loss_semantic"] == float(loss.data) / sum(g.n for g in graphs)


@pytest.mark.parametrize("task", [SEMANTIC, SYNTACTIC])
def test_a_single_task_step_scales_the_loss_by_its_tokens_alone(task):
    # one epoch of one minibatch is one Adam step on the batch loss over its tokens
    graphs, trees = _corpus(3)
    golds = graphs if task == SEMANTIC else trees
    items = [(g.sentence, g) for g in golds]
    cfg = training.TrainConfig(max_epochs=1)
    model = _model(graphs, trees)
    training.train(model, {task: items}, [(g.sentence, g) for g in graphs], cfg)
    batch = [items[i] for i in training._shuffle_rng(cfg.seed, 1, task).permutation(3)]
    fresh = _model(graphs, trees)
    s_edge, s_label = fresh.forward([s for s, _ in batch], task,
                                    training._dropout_rng(cfg.seed, 1, task, 0))
    loss = (training.semantic_loss if task == SEMANTIC else training.syntactic_loss)(
        s_edge, s_label, [g for _, g in batch], fresh.tasks[task], cfg.label_interp)
    ad.adam_step(ad.scale(loss, 1.0 / sum(len(s) for s, _ in batch)),
                 ad.Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.eps))
    for name, p in fresh.params.items():
        assert np.array_equal(model.params[name].data, p.data), name


def test_a_syntactic_weight_of_one_never_trains_the_semantic_task(monkeypatch):
    graphs, trees = _corpus(2)
    model = _model(graphs, trees)
    forward = model.forward
    trained = []

    def spy(sentences, task, rng=None):
        if rng is not None:  # a training step, not the held-out evaluation
            trained.append(task)
        return forward(sentences, task, rng)

    monkeypatch.setattr(model, "forward", spy)
    items = [(g.sentence, g) for g in graphs]
    training.train(model, {SEMANTIC: items, SYNTACTIC: [(t.sentence, t) for t in trees]}, items,
                   training.TrainConfig(max_epochs=1, syntactic_weight=1.0))
    assert trained and set(trained) == {SYNTACTIC}


def test_checkpoint_round_trip(tmp_path):
    graphs, trees = _corpus(6)
    model = _model(graphs, trees)
    path = str(tmp_path / "model.npz")
    model.save(path)
    loaded = ParserModel.load(path)
    for attr in ("word_vocab", "char_vocab", "pos_vocab"):
        assert getattr(loaded, attr).items == getattr(model, attr).items
    assert {t: v.items for t, v in loaded.tasks.items()} == \
        {t: v.items for t, v in model.tasks.items()}
    assert loaded.config == model.config and loaded.topology == model.topology
    assert set(loaded.params) == set(model.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data, err_msg=name)
    sentences = [g.sentence for g in graphs]
    assert training.parse_semantic(loaded, sentences) == \
        training.parse_semantic(model, sentences)


def test_checkpoint_file_layout(tmp_path):
    """The layout `ParserModel.save` documents, which files already written rely on."""
    graphs, trees = _corpus(4)
    model = _model(graphs, trees)
    path = tmp_path / "model.npz"
    model.save(str(path))
    with zipfile.ZipFile(path) as archive:
        assert archive.namelist() == ["__meta__.npy", "parameters.npy"]
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
    arrays, meta = read_checkpoint(path)
    assert (meta["kind"], meta["checkpoint_version"]) == ("sdpkit-parser",
                                                          network.CHECKPOINT_VERSION)
    assert "context_dim" not in meta["config"]
    with np.load(path) as npz:
        raw = npz["__meta__"]
    assert raw.dtype == np.uint8
    assert raw.tobytes() == json.dumps(meta, sort_keys=True).encode("utf-8")
    assert {a.dtype for a in arrays.values()} == {np.dtype(np.float64)}
    # every parameter flattened, in sorted-name order
    assert arrays["parameters"].tobytes() == b"".join(
        model.params[name].data.tobytes() for name in sorted(model.params))


def test_load_draws_no_random_initialisation(tmp_path, monkeypatch):
    graphs, trees = _corpus(6)
    model = _model(graphs, trees)
    path = str(tmp_path / "model.npz")
    model.save(path)

    def no_draws(seed, name):
        raise AssertionError(f"load drew initial values for {name}")

    monkeypatch.setattr(network, "_rng_for", no_draws)
    loaded = ParserModel.load(path)
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data, err_msg=name)
        assert loaded.params[name].data.dtype == np.float64


def test_load_takes_an_integer_for_a_float_setting_and_no_float_for_an_integer(tmp_path):
    # a config file may give a dropout rate as 0, and save writes it back as 0
    graphs, _ = _corpus(4)
    path = str(tmp_path / "model.npz")
    _model(graphs).save(path)
    arrays, meta = read_checkpoint(path)
    meta["config"]["word_dropout"] = 0
    write_checkpoint(path, arrays, meta)
    assert ParserModel.load(path).config.word_dropout == 0
    meta["config"]["rnn_layers"] = 2.0
    write_checkpoint(path, arrays, meta)
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: malformed checkpoint metadata (ConfigError: NetworkConfig key "
            "'rnn_layers' must be of type int, got 2.0)")):
        ParserModel.load(path)


def _old_bias_layout(arrays, meta):
    """The biaffine bias switched on over parameters saved without it: the
    edge weight is (f, f), not (f+1, f+1), so the member is too small."""
    meta["config"]["biaffine_bias"] = True


# `{n}` in a message stands for the size of the saved parameters member
@pytest.mark.parametrize("edit,message", [
    (lambda arrays, meta: arrays.pop("parameters"), r"missing tensors \['parameters'\]"),
    (lambda arrays, meta: arrays.update(parameters=arrays["parameters"][1:]),
     r"parameter_set: data is float64 of shape \({short},\), expected float64 of shape \({n},\)"),
    (lambda arrays, meta: arrays.update(parameters=arrays["parameters"][None]),
     r"parameter_set: data is float64 of shape \(1, {n}\), expected float64 of shape \({n},\)"),
    (lambda arrays, meta: arrays.update(parameters=arrays["parameters"].astype(np.float32)),
     r"parameter_set: data is float32 of shape \({n},\), expected float64 of shape \({n},\)"),
    (_old_bias_layout,
     r"parameter_set: data is float64 of shape \({n},\), expected float64 of shape"),
], ids=["missing-parameters", "wrong-size", "two-dimensional", "float32", "old-bias-layout"])
def test_load_rejects_bad_tensors(tmp_path, edit, message):
    graphs, _ = _corpus(4)
    path = str(tmp_path / "model.npz")
    _model(graphs).save(path)
    arrays, meta = read_checkpoint(path)
    n = arrays["parameters"].size
    edit(arrays, meta)
    write_checkpoint(path, arrays, meta)
    with pytest.raises(CheckpointError, match=message.format(n=n, short=n - 1)) as excinfo:
        ParserModel.load(path)
    assert path in str(excinfo.value)


def test_zero_syntactic_weight_follows_the_single_task_trajectory():
    graphs, trees = _corpus(8)
    semantic = [(g.sentence, g) for g in graphs]
    heldout = semantic[:2]
    cfg = training.TrainConfig(token_budget=20, max_epochs=2, syntactic_weight=0.0, lr=0.01)
    single, multi = _model(graphs, trees), _model(graphs, trees)
    single_result = training.train(single, {SEMANTIC: semantic}, heldout, cfg)
    multi_result = training.train(
        multi, {SEMANTIC: semantic, SYNTACTIC: [(t.sentence, t) for t in trees]}, heldout, cfg)
    assert multi_result.metrics == single_result.metrics
    for name, p in single.params.items():
        assert np.array_equal(multi.params[name].data, p.data), name


def test_config_defaults_are_pinned():
    # Adam's are Kingma & Ba's; a changed default changes every run that relies on it
    assert training.TrainConfig() == training.TrainConfig(
        lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8, token_budget=1000, label_interp=0.5,
        syntactic_weight=0.025, max_epochs=100, patience=5, seed=0, combined_steps=False)


def test_losses_default_to_the_config_interpolation():
    graphs, trees = _corpus(2)
    model = _model(graphs, trees)
    sentences = [g.sentence for g in graphs]
    for task, loss, golds in ((SEMANTIC, training.semantic_loss, graphs),
                              (SYNTACTIC, training.syntactic_loss, trees)):
        s_edge, s_label = model.forward(sentences, task)
        labels = model.tasks[task]
        assert float(loss(s_edge, s_label, golds, labels).data) == float(
            loss(s_edge, s_label, golds, labels, training.TrainConfig().label_interp).data)


def test_train_refuses_missing_corpora():
    graphs, trees = _corpus(2)
    items = [(g.sentence, g) for g in graphs]
    cfg = training.TrainConfig(max_epochs=1)
    for corpora, heldout, message in (
            ({}, items, "at least one task corpus is required"),
            ({SEMANTIC: items}, [], "heldout corpus must be non-empty"),
            ({SYNTACTIC: [(t.sentence, t) for t in trees]}, items,
             r"corpora given for tasks the model lacks: \['syntactic'\]")):
        with pytest.raises(ConfigError, match=message):
            training.train(_model(graphs), corpora, heldout, cfg)


@pytest.mark.parametrize("case", ["no-corpus", "empty-heldout", "task-the-model-lacks"])
def test_refused_corpora_take_no_step_and_write_no_metrics(monkeypatch, case):
    graphs, trees = _corpus(2)
    monkeypatch.setattr(ad, "adam_step", lambda *args: pytest.fail("no step expected"))
    items = [(g.sentence, g) for g in graphs]
    corpora, heldout = {
        "no-corpus": ({}, items),
        "empty-heldout": ({SEMANTIC: items}, []),
        "task-the-model-lacks": ({SEMANTIC: items, SYNTACTIC: [(t.sentence, t) for t in trees]},
                                 items),
    }[case]
    model = _model(graphs)
    before = {name: p.data.copy() for name, p in model.params.items()}
    metrics = io.StringIO()
    with pytest.raises(ConfigError):
        training.train(model, corpora, heldout, training.TrainConfig(max_epochs=1), metrics)
    assert metrics.getvalue() == ""
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_losses_match_a_cell_by_cell_reference():
    graphs, trees = _corpus(4)
    model = _model(graphs, trees)
    rng = np.random.default_rng(2)
    partial = []  # about a third of the tokens undecided
    for g in graphs:
        aligned = frozenset(j for j in range(1, g.n + 1) if rng.random() < 0.7)
        edges = frozenset(e for e in g.edges if {e.head, e.dependent} <= aligned | {0})
        partial.append(PartialGraph(SemanticGraph(g.sentence, edges), aligned))
    # the same batch with its shortest sentence wholly undecided: no cell of it counts
    undecided = [PartialGraph(SemanticGraph(p.sentence, frozenset()), frozenset())
                 if p.graph.n == 5 else p for p in partial]
    sentences = [g.sentence for g in graphs]
    assert sorted(len(s) for s in sentences) == [5, 7, 8, 9]  # shorter sentences are padded
    for task, loss, reference, golds in (
            (SEMANTIC, training.semantic_loss, reference_semantic_loss, partial),
            (SEMANTIC, training.semantic_loss, reference_semantic_loss, undecided),
            (SYNTACTIC, training.syntactic_loss, reference_syntactic_loss, trees)):
        s_edge, s_label = model.forward(sentences, task)
        labels = model.tasks[task]
        got = float(loss(s_edge, s_label, golds, labels, 0.3).data)
        assert got == pytest.approx(reference(s_edge.data, s_label.data, golds, labels, 0.3),
                                    rel=1e-12, abs=0.0), task


def test_losses_refuse_scores_of_another_shape():
    graphs, trees = _corpus(2)
    model = _model(graphs, trees)
    sentences = [g.sentence for g in graphs]
    longest = max(len(s) for s in sentences)
    for task, loss, golds in ((SEMANTIC, training.semantic_loss, graphs),
                              (SYNTACTIC, training.syntactic_loss, trees)):
        s_edge, s_label = model.forward(sentences, task)
        labels = model.tasks[task]
        with pytest.raises(ConfigError, match=rf"edge scores \(2, {longest}, {longest}\) do not "
                                              rf"match 2 sentences of at most {longest} tokens"):
            loss(ad.constant(s_edge.data[:, 1:]), s_label, golds, labels)
        with pytest.raises(ConfigError, match=r"do not match 1 sentences"):
            loss(s_edge, s_label, golds[:1], labels)


def test_decode_semantic_refuses_scores_of_another_length():
    sentence = random_sentence(np.random.default_rng(0), 3)
    with pytest.raises(ConfigError, match=r"edge scores \(3, 2\) do not match sentence length 3"):
        training.decode_semantic(np.zeros((3, 2)), np.zeros((1, 3, 2)),
                                 semantic_label_vocab(LABELS), sentence)


def test_each_task_draws_its_own_streams():
    for rng in (training._shuffle_rng, lambda *a: training._dropout_rng(*a, 0)):
        assert rng(1, 1, SEMANTIC).random() != rng(1, 1, SYNTACTIC).random()


def test_shuffle_and_dropout_streams_are_pinned():
    # the minibatch order and dropout masks of every earlier run come from these seeds
    for task, code in ((SEMANTIC, 0), (SYNTACTIC, 1)):
        assert (training._shuffle_rng(7, 3, task).random(4).tolist()
                == np.random.default_rng([7, 0xB41C, 3, code]).random(4).tolist())
        assert (training._dropout_rng(7, 3, task, 2).random(4).tolist()
                == np.random.default_rng([7, 0xD20F, 3, code, 2]).random(4).tolist())


@pytest.mark.parametrize("weight", [-0.1, 1.5])
def test_syntactic_weight_outside_unit_interval_rejected(weight):
    with pytest.raises(ConfigError, match=r"syntactic_weight must be in \[0,1\]"):
        training.TrainConfig(syntactic_weight=weight)


def test_boundary_settings_accepted():
    cfg = training.TrainConfig(syntactic_weight=1.0, token_budget=1, max_epochs=1, patience=0,
                               beta1=0.0, beta2=0.0)
    assert (cfg.syntactic_weight, cfg.token_budget, cfg.max_epochs, cfg.patience, cfg.beta1,
            cfg.beta2) == (1.0, 1, 1, 0, 0.0, 0.0)


def test_schedule_interleaves_task_queues_by_their_midpoints():
    # minibatch k of a queue of m sits at (k + 0.5) / m; ties go to the task name
    queues = {SEMANTIC: [[0]], SYNTACTIC: [[0], [1]]}
    assert training._steps(queues, False) == [[(SYNTACTIC, 0)], [(SEMANTIC, 0)],
                                              [(SYNTACTIC, 1)]]
    queues = {SEMANTIC: [[0], [1]], SYNTACTIC: [[0], [1]]}
    assert training._steps(queues, False) == [[(SEMANTIC, 0)], [(SYNTACTIC, 0)],
                                              [(SEMANTIC, 1)], [(SYNTACTIC, 1)]]


def test_an_empty_task_corpus_is_refused_before_any_step(monkeypatch):
    graphs, trees = _corpus(2)
    monkeypatch.setattr(ad, "adam_step", lambda *args: pytest.fail("no step expected"))
    items = [(g.sentence, g) for g in graphs]
    tree_items = [(t.sentence, t) for t in trees]
    cfg = training.TrainConfig(max_epochs=1)
    for corpora, task in (({SEMANTIC: []}, SEMANTIC),
                          ({SEMANTIC: items, SYNTACTIC: []}, SYNTACTIC),
                          ({SEMANTIC: [], SYNTACTIC: tree_items}, SEMANTIC)):
        metrics = io.StringIO()
        with pytest.raises(ConfigError, match=f"^{task} corpus must be non-empty$"):
            training.train(_model(graphs, trees), corpora, items, cfg, metrics)
        assert metrics.getvalue() == ""


def test_a_sentence_longer_than_the_budget_is_a_run_of_its_own():
    assert training._chunks([5, 1, 4, 1], 3) == [range(0, 1), range(1, 2), range(2, 3),
                                                 range(3, 4)]


def test_parse_runs_are_greedy_within_the_budget():
    assert training._chunks([2, 2, 1], 4) == [range(0, 2), range(2, 3)]  # exactly the budget
    rng = np.random.default_rng(4)
    for _ in range(200):
        sizes = rng.integers(1, 12, int(rng.integers(1, 20))).tolist()
        budget = int(rng.integers(1, 60))
        runs = training._chunks(sizes, budget)
        assert [i for run in runs for i in run] == list(range(len(sizes)))
        for k, run in enumerate(runs):
            assert len(run) * max(sizes[i] for i in run) <= budget or len(run) == 1
            if k + 1 < len(runs):  # greedy: the next sentence did not fit
                assert (len(run) + 1) * max(sizes[run.start:run.stop + 1]) > budget


def test_semantic_loss_of_an_undecided_sentence_is_zero():
    graphs, _ = _corpus(1)
    model = _model(graphs)
    s_edge, s_label = model.forward([graphs[0].sentence], SEMANTIC)
    gold = PartialGraph(SemanticGraph(graphs[0].sentence, frozenset()), frozenset())
    assert float(training.semantic_loss(s_edge, s_label, [gold], model.tasks[SEMANTIC]).data) == 0.0


@pytest.mark.parametrize("setting,message", [
    ({"label_interp": 0.0}, r"label_interp must be in \(0,1\)"),
    ({"label_interp": 1.0}, r"label_interp must be in \(0,1\)"),
    ({"token_budget": 0}, "token_budget/max_epochs must be >= 1 and patience >= 0"),
    ({"max_epochs": 0}, "token_budget/max_epochs must be >= 1 and patience >= 0"),
    ({"patience": -1}, "token_budget/max_epochs must be >= 1 and patience >= 0"),
], ids=["label_interp-0", "label_interp-1", "token_budget", "max_epochs", "patience"])
def test_schedule_settings_out_of_range_rejected(setting, message):
    with pytest.raises(ConfigError, match=message):
        training.TrainConfig(**setting)


@pytest.mark.parametrize("setting", [
    {"lr": -1.0}, {"lr": 0.0}, {"lr": float("nan")}, {"beta1": 1.0}, {"beta1": -0.1},
    {"beta2": 1.5}, {"beta2": 1.0}, {"eps": 0.0}, {"eps": -1.0},
], ids=["lr-negative", "lr-zero", "lr-nan", "beta1-one", "beta1-negative", "beta2-above-one",
        "beta2-one", "eps-zero", "eps-negative"])
def test_optimizer_settings_that_cannot_train_rejected(setting):
    (name, value), = setting.items()
    with pytest.raises(ConfigError, match=f"{name}={value}"):
        training.TrainConfig(**setting)


@pytest.mark.parametrize("top", [True, False], ids=["with-top", "top-only-vocab"])
def test_decode_semantic_matches_the_cell_loop(top):
    rng = np.random.default_rng(8)
    labels = semantic_label_vocab(LABELS) if top else network.Vocab(["TOP"], unk=False)
    zeros = ties = top_wins = 0
    cyclic = []
    for _ in range(30):
        n = int(rng.integers(1, 9))
        sentence = random_sentence(rng, n)
        # scores on a coarse grid: exact zeros on the decision boundary, label ties
        s_edge = rng.integers(-2, 3, (n + 1, n)).astype(float)
        s_label = rng.integers(0, 3, (len(labels), n + 1, n)).astype(float)
        got = training.decode_semantic(s_edge, s_label, labels, sentence)
        sign = reference_decode_semantic(s_edge, s_label, labels, sentence)
        # an acyclic sign decode is the result as it stands; a cyclic one is repaired
        cyclic.append(not is_acyclic(sign))
        assert got == (reference_acyclic_decode(s_edge, s_label, labels, sentence)
                       if cyclic[-1] else sign)
        zeros += int((s_edge == 0.0).sum())
        ties += int(((s_label == s_label.max(axis=0)).sum(axis=0) > 1).sum())
        top_wins += int((s_label[labels.id("TOP")] > np.delete(s_label, labels.id("TOP"),
                                                               axis=0).max(axis=0)).sum()
                        if len(labels) > 1 else 0)
    # decisions at 0.0, ties and a TOP label that must be passed over all occur
    assert zeros > 0 and (ties > 0 and top_wins > 0 or len(labels) == 1)
    assert any(cyclic) and not all(cyclic)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 25), seed=st.integers(0, 2**32 - 1), shift=st.floats(-1.0, 2.0))
def test_decode_semantic_is_acyclic_writable_and_maximal(n, seed, shift):
    rng = np.random.default_rng(seed)
    labels = network.semantic_label_vocab(LABELS)
    sentence = random_sentence(rng, n)
    s_edge = rng.standard_normal((n + 1, n)) + shift  # dense for shift > 0
    s_label = rng.standard_normal((len(labels), n + 1, n))
    got = training.decode_semantic(s_edge, s_label, labels, sentence)
    sign = reference_decode_semantic(s_edge, s_label, labels, sentence)
    assert is_acyclic(got) and got.edges <= sign.edges
    # the repair keeps every edge that would not close a cycle
    for edge in sign.edges - got.edges:
        assert not is_acyclic(SemanticGraph(got.sentence, got.edges | {edge}))
    buf = io.StringIO()
    write_sdp(SdpDocument((("s1", got),)), buf)
    assert read_sdp(io.StringIO(buf.getvalue())).graphs() == [got]


@pytest.mark.parametrize("cycle", [[(1, 2), (2, 3), (3, 1)], [(1, 3), (3, 2), (2, 1)]],
                         ids=["forward", "backward"])
def test_decode_semantic_repair_breaks_score_ties_by_head(cycle):
    # a three-cycle of equal scores plus a top. Among tied edges of one head the
    # dependent order cannot change which edges are kept, so only heads are pinned.
    labels = network.semantic_label_vocab(LABELS)
    sentence = random_sentence(np.random.default_rng(0), 3)
    s_edge = np.full((4, 3), -1.0)
    s_edge[0, 0] = 0.5
    for h, d in cycle:
        s_edge[h, d - 1] = 2.0
    s_label = np.zeros((len(labels), 4, 3))
    got = training.decode_semantic(s_edge, s_label, labels, sentence)
    # the tied edge with the largest head comes last, and it is the one dropped
    h, d = max(cycle)
    assert got.unlabeled() == {(0, 1)} | set(cycle) - {(h, d)}
    # a higher score outranks the tie order
    s_edge[h, d - 1] = 3.0
    got = training.decode_semantic(s_edge, s_label, labels, sentence)
    assert (h, d) in got.unlabeled() and len(got.edges) == 3


def test_combined_schedule_cycles_short_queues_and_alternating_sums_them():
    queues = {SEMANTIC: [[0], [1], [2]], SYNTACTIC: [[0]]}
    assert training._steps(queues, True) == [
        [(SEMANTIC, 0), (SYNTACTIC, 0)], [(SEMANTIC, 1), (SYNTACTIC, 0)],
        [(SEMANTIC, 2), (SYNTACTIC, 0)]]
    assert sorted(training._steps(queues, False)) == [
        [(SEMANTIC, 0)], [(SEMANTIC, 1)], [(SEMANTIC, 2)], [(SYNTACTIC, 0)]]


def _logging(log: list, name: str, func):
    """`func`, appending `name` to `log` on every call."""
    def wrapper(*args, **kwargs):
        log.append(name)
        return func(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("combined", [True, False], ids=["combined", "alternating"])
def test_epoch_step_count_follows_the_task_queues(monkeypatch, combined):
    graphs, trees = _corpus(5)
    semantic = [(g.sentence, g) for g in graphs[:4]]
    syntactic = [(t.sentence, t) for t in trees[:2]]
    calls = []
    monkeypatch.setattr(ad, "adam_step", _logging(calls, "step", ad.adam_step))
    for name in ("semantic_loss", "syntactic_loss"):
        monkeypatch.setattr(training, name, _logging(calls, name, getattr(training, name)))
    # a budget of one token makes every sentence a minibatch: queues of 4 and 2
    cfg = training.TrainConfig(token_budget=1, max_epochs=1, combined_steps=combined)
    training.train(_model(graphs, trees), {SEMANTIC: semantic, SYNTACTIC: syntactic},
                   semantic[:1], cfg)
    counts = [calls.count(name) for name in ("step", "semantic_loss", "syntactic_loss")]
    # combined: one step per semantic batch, each with a (cycled) syntactic
    # batch; alternating: one step per batch of either task
    assert counts == ([4, 4, 4] if combined else [6, 4, 2])


def test_each_parameter_steps_once_per_optimizer_step_whose_loss_reaches_it(monkeypatch):
    # alternating steps: 4 semantic and 2 syntactic; without word dropout no
    # loss reaches the unknown-word and unknown-POS embeddings. `train` drops
    # its `Adam` as it returns, so the counts are read after its last step.
    graphs, trees = _corpus(5)
    model = _model(graphs, trees, config=replace(TINY, word_dropout=0.0))
    adam_step, seen = ad.adam_step, {}

    def stepped(loss, adam):
        adam_step(loss, adam)
        for name, p in model.params.items():
            step, m, v = adam_state(adam, p)
            seen[name] = (p.grad, step, m.any() or v.any())

    monkeypatch.setattr(ad, "adam_step", stepped)
    cfg = training.TrainConfig(token_budget=1, max_epochs=1, combined_steps=False)
    training.train(model, {SEMANTIC: [(g.sentence, g) for g in graphs[:4]],
                           SYNTACTIC: [(t.sentence, t) for t in trees[:2]]},
                   [(graphs[4].sentence, graphs[4])], cfg)
    assert seen.keys() == model.params.keys()
    for name, (grad, step, moved) in seen.items():
        assert grad is None, name
        parts = name.split("/")
        if name in ("emb/unk_word", "emb/unk_pos"):
            assert step == 0 and not moved, name
        else:
            assert step == (4 if SEMANTIC in parts else 2 if SYNTACTIC in parts else 6), name
    own = {name.split("/")[0] for name in model.params
           if SEMANTIC in name.split("/") or SYNTACTIC in name.split("/")}
    assert own == {"fnn", "scorer", "rnn_task"}


@pytest.mark.parametrize("nan_at", [None, 2, 6], ids=["returns", "raises-in-epoch-1",
                                                      "raises-in-epoch-2"])
def test_train_frees_adams_state_as_it_returns_or_raises(monkeypatch, nan_at):
    # every step gets the one `Adam` that the call made; it and the moments
    # it mapped are freed as `train` returns, or as it raises while the
    # exception is still held. The model keeps only its flat data.
    graphs, _ = _corpus(4)
    model = _model(graphs)
    real_loss, adam_step, calls, adams = training.semantic_loss, ad.adam_step, [], []

    def loss(*args, **kwargs):
        calls.append(1)
        value = real_loss(*args, **kwargs)
        return ad.scale(value, float("nan")) if len(calls) == nan_at else value

    def stepped(loss, adam):
        adam_step(loss, adam)
        assert adam.steps[model.params["emb/word"]] == len(calls)
        adams.append(adam)

    monkeypatch.setattr(training, "semantic_loss", loss)
    monkeypatch.setattr(ad, "adam_step", stepped)
    if nan_at is None:
        _train_one_sentence_per_step(model, graphs, max_epochs=2)
    else:
        # held to the end: its traceback holds `train`'s frame and locals
        with pytest.raises(TrainingDiverged) as raised:
            _train_one_sentence_per_step(model, graphs, max_epochs=2)
        assert raised.tb is not None
    assert len(calls) == (nan_at or 8) and all(adam is adams[0] for adam in adams)
    ((_, m, v),) = adams[0].moments.values()
    assert m.any() and v.any()
    written = [weakref.ref(a) for a in (adams[0], m, v)]
    adams.clear()
    del m, v
    gc.collect()
    assert all(ref() is None for ref in written)
    assert all(p._flat is model.param_data for p in model.params.values())


def test_a_second_train_takes_the_steps_of_save_load_train(tmp_path):
    graphs, _ = _corpus(4)
    items = [(g.sentence, g) for g in graphs]
    cfg = training.TrainConfig(token_budget=5, max_epochs=2, patience=5, lr=0.01)
    model = _model(graphs)
    training.train(model, {SEMANTIC: items}, items, cfg)
    model.save(tmp_path / "model.npz")
    loaded, saved = ParserModel.load(tmp_path / "model.npz"), model.param_data.copy()
    again = training.train(model, {SEMANTIC: items}, items, cfg)
    assert training.train(loaded, {SEMANTIC: items}, items, cfg).metrics == again.metrics
    assert not np.array_equal(model.param_data, saved)
    assert np.array_equal(model.param_data, loaded.param_data)


def test_combined_zero_syntactic_weight_follows_the_single_task_trajectory():
    graphs, trees = _corpus(8)
    semantic = [(g.sentence, g) for g in graphs]
    heldout = semantic[:2]
    cfg = training.TrainConfig(token_budget=20, max_epochs=2, syntactic_weight=0.0, lr=0.01,
                               combined_steps=True)
    single, multi = _model(graphs, trees), _model(graphs, trees)
    single_result = training.train(single, {SEMANTIC: semantic}, heldout, cfg)
    multi_result = training.train(
        multi, {SEMANTIC: semantic, SYNTACTIC: [(t.sentence, t) for t in trees]}, heldout, cfg)
    assert multi_result.metrics == single_result.metrics
    for name, p in single.params.items():
        assert np.array_equal(multi.params[name].data, p.data), name


def test_pack_minibatches_is_greedy_and_keeps_the_order():
    lengths = [3, 4, 10, 2, 2, 5]
    order = [5, 0, 1, 2, 3, 4]
    # 5 | 0 1 (7 tokens: exactly the budget) | 2 (alone over budget) | 3 4
    assert training.pack_minibatches(lengths, order, 7) == [[5], [0, 1], [2], [3, 4]]
    rng = np.random.default_rng(3)
    for _ in range(100):
        lengths = rng.integers(1, 12, int(rng.integers(1, 20))).tolist()
        order = rng.permutation(len(lengths)).tolist()
        budget = int(rng.integers(1, 25))
        batches = training.pack_minibatches(lengths, order, budget)
        assert [i for batch in batches for i in batch] == order
        for k, batch in enumerate(batches):
            used = sum(lengths[i] for i in batch)
            assert used <= budget or len(batch) == 1
            if k + 1 < len(batches):  # greedy: the next sentence did not fit
                assert used + lengths[batches[k + 1][0]] > budget


def test_parse_semantic_of_no_sentences_calls_nothing(monkeypatch):
    graphs, _ = _corpus(2)
    model = _model(graphs)
    monkeypatch.setattr(model, "forward", lambda *args: pytest.fail("no forward expected"))
    assert training.parse_semantic(model, []) == []


def test_parse_semantic_runs_stay_within_the_token_budget_in_input_order(monkeypatch):
    rng = np.random.default_rng(6)
    sizes = [3, 7, 2, 25, 6, 6, 1, 9, 4]
    sentences = [random_sentence(rng, n) for n in sizes]
    words, chars, pos = build_vocabs(sentences)
    model = ParserModel(TINY, {SEMANTIC: semantic_label_vocab(LABELS)}, words, chars, pos)
    calls = []
    forward = model.forward

    def recording(part, *args, **kwargs):
        calls.append(list(part))
        return forward(part, *args, **kwargs)

    monkeypatch.setattr(model, "forward", recording)
    monkeypatch.setattr(training, "PARSE_BATCH_TOKENS", 20)
    graphs = training.parse_semantic(model, sentences)
    assert [s for call in calls for s in call] == sentences
    assert [g.sentence for g in graphs] == sentences
    assert len(calls) > 1
    for call in calls:
        padded = len(call) * max(len(s) for s in call)
        assert padded <= 20 or len(call) == 1
    # the sentence over the budget is a run of its own
    assert [[len(s) for s in call] for call in calls if 25 in map(len, call)] == [[25]]
