import numpy as np
import pytest
from helpers import LABELS, random_sentence, reference_decode_semantic

from sdpkit import autodiff as ad
from sdpkit import network, training
from sdpkit.errors import CheckpointError, ConfigError, TrainingDiverged
from sdpkit.network import (SEMANTIC, SYNTACTIC, NetworkConfig, ParserModel, SharingTopology,
                            build_vocabs, semantic_label_vocab, syntactic_label_vocab)
from sdpkit.synth import DEFAULT_DEPRELS, DEFAULT_LABELS, SynthConfig, synth_corpus

TINY = NetworkConfig(word_dim=8, pos_dim=4, rnn_size=8, rnn_layers=2, fnn_size=8)


def _corpus(sentences: int, seed: int = 5):
    corpus = synth_corpus(SynthConfig(sentences=sentences, seed=seed))
    return corpus.target_gold.graphs(), corpus.trees


def _model(graphs, trees=(), seed: int = 5) -> ParserModel:
    words, chars, pos = build_vocabs([g.sentence for g in graphs])
    tasks = {SEMANTIC: semantic_label_vocab(DEFAULT_LABELS)}
    topology = None
    if trees:
        tasks[SYNTACTIC] = syntactic_label_vocab(DEFAULT_DEPRELS)
        topology = SharingTopology(shared_rnn=True, task_rnn=True)
    return ParserModel(TINY, tasks, words, chars, pos, topology=topology, seed=seed)


def test_divergence_restores_best_snapshot(monkeypatch):
    graphs, _ = _corpus(4)
    model = _model(graphs)
    initial = {name: p.data.copy() for name, p in model.params.items()}
    real_loss = training.semantic_loss
    calls = []

    def nan_at_second_step(*args, **kwargs):
        calls.append(1)
        loss = real_loss(*args, **kwargs)
        return loss * float("nan") if len(calls) == 2 else loss

    monkeypatch.setattr(training, "semantic_loss", nan_at_second_step)
    cfg = training.TrainConfig(token_budget=1, max_epochs=1)  # one sentence per step
    with pytest.raises(TrainingDiverged, match="epoch 1, step 2"):
        training.train(model, {SEMANTIC: [(g.sentence, g) for g in graphs]},
                       [(g.sentence, g) for g in graphs], cfg)
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, initial[name], err_msg=name)


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


@pytest.mark.parametrize("edit,message", [
    (lambda arrays: arrays.pop("scorer/semantic/edge"), "missing tensors"),
    (lambda arrays: arrays.update({"fnn/semantic/edge_dep/b": np.zeros(3)}), "has shape"),
], ids=["missing-tensor", "wrong-shape"])
def test_load_rejects_bad_tensors(tmp_path, edit, message):
    graphs, _ = _corpus(4)
    path = str(tmp_path / "model.npz")
    _model(graphs).save(path)
    arrays, meta = ad.load_arrays(path)
    edit(arrays)
    ad.save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match=message):
        ParserModel.load(path)


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


@pytest.mark.parametrize("weight", [-0.1, 1.5])
def test_syntactic_weight_outside_unit_interval_rejected(weight):
    with pytest.raises(ConfigError, match=r"syntactic_weight must be in \[0,1\]"):
        training.TrainConfig(syntactic_weight=weight)


@pytest.mark.parametrize("context_dim,which,message", [
    (3, "heldout", "heldout item 1 has no context vectors"),
    (3, "semantic", "semantic item 2 has no context vectors"),
    (0, "heldout", "heldout item 1 has context vectors"),
], ids=["heldout-missing", "train-missing", "given-without-channel"])
def test_train_checks_context_vectors_before_the_first_step(monkeypatch, context_dim, which,
                                                            message):
    graphs, _ = _corpus(4)
    words, chars, pos = build_vocabs([g.sentence for g in graphs])
    model = ParserModel(NetworkConfig(word_dim=8, pos_dim=4, rnn_size=8, rnn_layers=1,
                                      fnn_size=8, context_dim=context_dim),
                        {SEMANTIC: semantic_label_vocab(DEFAULT_LABELS)}, words, chars, pos)
    rng = np.random.default_rng(0)
    items = [(g.sentence, g, rng.standard_normal((g.n, 3)) if context_dim else None)
             for g in graphs]
    corpus, heldout = list(items), list(items[:2])
    if context_dim:  # drop one context
        target = heldout if which == "heldout" else corpus
        k = 0 if which == "heldout" else 1
        target[k] = target[k][:2]
    else:
        heldout[0] = heldout[0][:2] + (rng.standard_normal((graphs[0].n, 3)),)
    steps = []
    monkeypatch.setattr(ad, "adam_step", lambda *args, **kwargs: steps.append(1))
    with pytest.raises(ConfigError, match=message):
        training.train(model, {SEMANTIC: corpus}, heldout, training.TrainConfig(max_epochs=1))
    assert steps == []


@pytest.mark.parametrize("top", [True, False], ids=["with-top", "top-only-vocab"])
def test_decode_semantic_matches_the_cell_loop(top):
    rng = np.random.default_rng(8)
    labels = semantic_label_vocab(LABELS) if top else network.Vocab(["TOP"], unk=False)
    zeros = ties = top_wins = 0
    for _ in range(30):
        n = int(rng.integers(1, 9))
        sentence = random_sentence(rng, n)
        # scores on a coarse grid: exact zeros on the decision boundary, label ties
        s_edge = rng.integers(-2, 3, (n + 1, n)).astype(float)
        s_label = rng.integers(0, 3, (len(labels), n + 1, n)).astype(float)
        got = training.decode_semantic(s_edge, s_label, labels, sentence)
        assert got == reference_decode_semantic(s_edge, s_label, labels, sentence)
        zeros += int((s_edge == 0.0).sum())
        ties += int(((s_label == s_label.max(axis=0)).sum(axis=0) > 1).sum())
        top_wins += int((s_label[labels.id("TOP")] > np.delete(s_label, labels.id("TOP"),
                                                               axis=0).max(axis=0)).sum()
                        if len(labels) > 1 else 0)
    # decisions at 0.0, ties and a TOP label that must be passed over all occur
    assert zeros > 0 and (ties > 0 and top_wins > 0 or len(labels) == 1)
