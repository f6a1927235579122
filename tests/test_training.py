import numpy as np
import pytest

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
