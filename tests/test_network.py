import numpy as np
import pytest

from sdpkit import autodiff as ad
from sdpkit.graph import PartialGraph, SemanticGraph
from sdpkit.network import (SEMANTIC, SYNTACTIC, NetworkConfig, ParserModel, SharingTopology,
                            build_vocabs, semantic_label_vocab, syntactic_label_vocab)
from sdpkit.synth import DEFAULT_DEPRELS, DEFAULT_LABELS, SynthConfig, synth_corpus
from sdpkit.training import semantic_loss

TINY = NetworkConfig(word_dim=8, pos_dim=4, rnn_size=8, rnn_layers=2, fnn_size=8,
                     biaffine_bias=True)


@pytest.fixture(scope="module")
def graphs():
    return synth_corpus(SynthConfig(sentences=6, seed=11)).target_gold.graphs()


def _model(graphs, tasks=(SEMANTIC,), topology=None, seed: int = 4) -> ParserModel:
    vocabs = {SEMANTIC: semantic_label_vocab(DEFAULT_LABELS),
              SYNTACTIC: syntactic_label_vocab(DEFAULT_DEPRELS)}
    words, chars, pos = build_vocabs([g.sentence for g in graphs])
    return ParserModel(TINY, {task: vocabs[task] for task in tasks}, words, chars, pos,
                       topology=topology, seed=seed)


def _arrays(scores):
    return [(s_edge.data, s_label.data) for s_edge, s_label in scores]


def test_batch_call_equals_one_sentence_calls(graphs):
    model = _model(graphs)
    sentences = [g.sentence for g in graphs]
    with ad.no_grad():
        batched = _arrays(model.forward(sentences, SEMANTIC))
        single = [pair for s in sentences for pair in _arrays(model.forward([s], SEMANTIC))]
    assert len(batched) == len(sentences)
    for (edge, label), (edge_1, label_1), s in zip(batched, single, sentences):
        assert edge.shape == (len(s) + 1, len(s))
        assert np.array_equal(edge, edge_1) and np.array_equal(label, label_1)


def test_char_vector_runs_once_per_distinct_form_per_call(graphs, monkeypatch):
    model = _model(graphs)
    sentences = [g.sentence for g in graphs]
    forms = [tok.form for s in sentences for tok in s]
    assert len(set(forms)) < len(forms)  # the corpus repeats forms
    runs = []
    char_vector = model._char_vector

    def counted(form):
        runs.append(form)
        return char_vector(form)

    monkeypatch.setattr(model, "_char_vector", counted)
    for _ in range(2):
        runs.clear()
        with ad.no_grad():
            list(model.forward(sentences, SEMANTIC))
        assert sorted(runs) == sorted(set(forms))


def test_equal_seeded_rngs_give_equal_train_scores(graphs):
    model = _model(graphs)
    sentences = [g.sentence for g in graphs]
    first = _arrays(model.forward(sentences, SEMANTIC, np.random.default_rng(7)))
    second = _arrays(model.forward(sentences, SEMANTIC, np.random.default_rng(7)))
    with ad.no_grad():
        evaluated = _arrays(model.forward(sentences, SEMANTIC))
    for (edge, label), (edge_2, label_2) in zip(first, second):
        assert np.array_equal(edge, edge_2) and np.array_equal(label, label_2)
    # an rng switches dropout on
    assert not all(np.array_equal(a[0], b[0]) for a, b in zip(first, evaluated))


@pytest.mark.parametrize("topology", [
    SharingTopology(shared_rnn=True),
    SharingTopology(shared_rnn=False, shared_fnn=True),
    SharingTopology(shared_rnn=True, shared_fnn=True, task_rnn=True),
], ids=["shared-rnn", "shared-fnn", "task-rnn"])
def test_common_parameters_initialise_identically(graphs, topology):
    single = _model(graphs)
    multi = _model(graphs, (SEMANTIC, SYNTACTIC), topology)
    common = set(single.params) & set(multi.params)
    assert {"emb/word", "char_rnn/fw/w", "scorer/semantic/label",
            "scorer/semantic/edge_bias"} <= common
    if not topology.shared_rnn:
        assert "rnn/semantic/layer1/bw/u" in common
    if not topology.shared_fnn:
        assert "fnn/semantic/label_head/w" in common
    for name in sorted(common):
        assert np.array_equal(single.params[name].data, multi.params[name].data), name


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_undecided_cells_get_exactly_zero_gradient(graphs, train):
    graph = max(graphs, key=lambda g: g.n)
    n = graph.n
    aligned = frozenset(range(1, n + 1, 2)) | {n}
    edges = frozenset(e for e in graph.edges if {e.head, e.dependent} <= aligned | {0})
    gold = PartialGraph(SemanticGraph(graph.sentence, edges), aligned)
    model = _model(graphs)
    labels = model.tasks[SEMANTIC]
    rng = np.random.default_rng(2) if train else None
    (s_edge, s_label), = model.forward([graph.sentence], SEMANTIC, rng)
    semantic_loss(s_edge, s_label, gold, labels).backward()

    decided = np.array([[gold.decided(i, j) and i != j for j in range(1, n + 1)]
                        for i in range(n + 1)])
    gold_cells = np.zeros((n + 1, n), dtype=bool)
    for h, d, _ in edges:
        gold_cells[h, d - 1] = True
    assert 0 < decided.sum() < decided.size and gold_cells.any()
    assert np.all(s_edge.grad[~decided] == 0.0)
    assert np.all(s_edge.grad[decided] != 0.0)
    assert np.all(s_label.grad[:, ~gold_cells] == 0.0)
    assert np.all(np.any(s_label.grad[:, gold_cells] != 0.0, axis=0))
