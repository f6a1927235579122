from dataclasses import asdict, replace

import numpy as np
import pytest
from helpers import adam_step, reference_folded_adam_step

from sdpkit import autodiff as ad
from sdpkit import network
from sdpkit.errors import ConfigError
from sdpkit.graph import PartialGraph, SemanticGraph
from sdpkit.network import (SEMANTIC, SYNTACTIC, NetworkConfig, ParserModel, SharingTopology,
                            Vocab, build_vocabs, pretrained_table, semantic_label_vocab,
                            syntactic_label_vocab)
from sdpkit.synth import DEFAULT_DEPRELS, DEFAULT_LABELS, SynthConfig, synth_corpus
from sdpkit.training import edge_cells, semantic_loss, syntactic_loss

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


def _close(got, want, rtol):
    """Equal to `rtol` of the largest entry of `want`."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_config_defaults_are_the_paper_settings():
    # the paper's dimensions (bench/workloads.py's PAPER) with Dozat & Manning's dropout rates
    assert asdict(NetworkConfig()) == {
        "word_dim": 100, "pos_dim": 100, "rnn_size": 600, "rnn_layers": 3, "fnn_size": 600,
        "char_emb_dim": 0, "word_dropout": 0.2, "recurrent_dropout": 0.25,
        "edge_dropout": 0.25, "label_dropout": 0.33, "biaffine_bias": False}
    assert NetworkConfig().char_dim == 50
    assert asdict(SharingTopology()) == {"shared_rnn": True, "shared_fnn": False,
                                         "task_rnn": False}


@pytest.mark.parametrize("settings,message", [
    ({"rnn_layers": 0}, "rnn_layers must be positive"),
    ({"word_dim": 0}, "word_dim must be positive"),
    ({"pos_dim": 0}, "pos_dim must be positive"),
    ({"rnn_size": 0}, "rnn_size must be positive"),
    ({"fnn_size": -2}, "fnn_size must be positive"),
    ({"word_dim": 3}, r"word_dim must be even \(char BiLSTM"),
    ({"rnn_size": 5}, r"rnn_size must be even \(half per direction\)"),
    ({"char_emb_dim": -1}, "dims must be non-negative"),
    ({"label_dropout": 1.0}, r"label_dropout must be in \[0,1\), got 1.0"),
    ({"word_dropout": -0.1}, r"word_dropout must be in \[0,1\), got -0.1"),
    ({"recurrent_dropout": 1.5}, r"recurrent_dropout must be in \[0,1\), got 1.5"),
    ({"edge_dropout": -0.25}, r"edge_dropout must be in \[0,1\), got -0.25"),
], ids=["rnn_layers", "word_dim-zero", "pos_dim-zero", "rnn_size-zero", "fnn_size-negative",
        "word_dim", "rnn_size", "char_emb_dim", "label_dropout", "word_dropout",
        "recurrent_dropout", "edge_dropout"])
def test_network_config_refuses_invalid_settings(settings, message):
    with pytest.raises(ConfigError, match=message):
        NetworkConfig(**settings)


def test_glorot_draws_fill_their_limit():
    # Glorot & Bengio's uniform limit sqrt(6 / (fan_in + fan_out))
    limit = np.sqrt(6.0 / 500)
    w = np.abs(network._glorot(np.random.default_rng(0), (200, 300)))
    assert 0.999 * limit < w.max() <= limit


def test_embeddings_start_normal_with_scale_0_1(graphs):
    for name, p in _model(graphs).params.items():
        if name.startswith("emb/"):
            assert 0.05 < p.data.std() < 0.2 and np.abs(p.data).max() < 0.6, name


def test_word_dropout_swaps_in_the_unknown_embeddings(graphs):
    model = _model(graphs)
    model.config = replace(TINY, word_dropout=0.5)
    batch = model.batch([graphs[0].sentence])
    n, w = graphs[0].n, TINY.word_dim
    kept = model.embed_tokens(batch).data
    dropped = model.embed_tokens(batch, np.random.default_rng(0)).data
    # one uniform per token for the word part, then one per token for the POS part
    draws = np.random.default_rng(0).random(2 * n)
    for k, unk, cols in ((0, "emb/unk_word", slice(0, w)), (1, "emb/unk_pos", slice(w, None))):
        keep = draws[k * n:(k + 1) * n] >= 0.5
        assert 0 < keep.sum() < n
        np.testing.assert_array_equal(dropped[keep, cols], kept[keep, cols])
        for row in dropped[~keep, cols]:
            np.testing.assert_array_equal(row, model.params[unk].data)


NO_DROPOUT = dict(word_dropout=0.0, recurrent_dropout=0.0, edge_dropout=0.0, label_dropout=0.0)


def test_a_zero_word_dropout_draws_nothing(graphs):
    model = _model(graphs)
    model.config = replace(TINY, **NO_DROPOUT)
    rng = np.random.default_rng(0)
    model.embed_tokens(model.batch([graphs[0].sentence]), rng)
    assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize("layers", [1, 2])
def test_recurrent_dropout_runs_between_layers_only(graphs, layers):
    model = _model(graphs)
    model.config = replace(TINY, **{**NO_DROPOUT, "recurrent_dropout": 0.5}, rnn_layers=layers)
    model = ParserModel(model.config, model.tasks, model.word_vocab, model.char_vocab,
                        model.pos_vocab)
    batch = model.batch([g.sentence for g in graphs])
    x = model.embed_tokens(batch)
    train = model.encode(x, batch, SEMANTIC, np.random.default_rng(0)).data
    assert np.array_equal(train, model.encode(x, batch, SEMANTIC).data) == (layers == 1)


def test_edge_and_label_dropout_act_on_their_own_heads(graphs):
    model = _model(graphs)
    model.config = replace(TINY, **{**NO_DROPOUT, "edge_dropout": 0.5})
    sentences = [g.sentence for g in graphs]
    s_edge, s_label = model.forward(sentences, SEMANTIC, np.random.default_rng(0))
    e_edge, e_label = model.forward(sentences, SEMANTIC)
    assert not np.array_equal(s_edge.data, e_edge.data)
    assert np.array_equal(s_label.data, e_label.data)


def test_each_seed_draws_its_own_parameters(graphs):
    a, b = _model(graphs, seed=0), _model(graphs, seed=1)
    assert not np.array_equal(a.params["emb/word"].data, b.params["emb/word"].data)


def test_model_checks_its_tasks_and_inputs(graphs):
    model = _model(graphs)
    sentence = graphs[0].sentence
    for sentences in ([], [sentence, ()]):
        with pytest.raises(ConfigError, match="cannot embed an empty sentence"):
            model.forward(sentences, SEMANTIC)
    with pytest.raises(ConfigError,
                       match=r"model has no task 'syntactic' \(tasks: \['semantic'\]\)"):
        model.forward([sentence], SYNTACTIC)
    vocabs = (model.word_vocab, model.char_vocab, model.pos_vocab)
    for tasks, message in (({"bogus": model.tasks[SEMANTIC]}, r"unknown tasks \['bogus'\]"),
                           ({}, "at least one task is required"),
                           ({SEMANTIC: model.tasks[SEMANTIC],
                             SYNTACTIC: syntactic_label_vocab(DEFAULT_DEPRELS)},
                            "multitask models need a SharingTopology")):
        with pytest.raises(ConfigError, match=message):
            ParserModel(TINY, tasks, *vocabs)
    with pytest.raises(ConfigError, match="task_rnn requires shared_rnn"):
        SharingTopology(shared_rnn=False, task_rnn=True)


def test_an_open_vocabulary_maps_unknown_items_to_unk_and_a_closed_one_refuses_them():
    assert Vocab(["b", "a"]).id("zzz") == 0 and Vocab(["b", "a"]).items[0] == "<unk>"
    with pytest.raises(ConfigError, match="unknown item 'B' in a closed vocabulary"):
        semantic_label_vocab(["A"]).id("B")


def test_single_task_model_ignores_a_topology_and_seeds_0_by_default(graphs):
    model = _model(graphs, seed=0)
    plain = ParserModel(TINY, model.tasks, model.word_vocab, model.char_vocab, model.pos_vocab,
                        topology=SharingTopology(shared_rnn=True, shared_fnn=True))
    assert plain.topology is None
    assert list(plain.params) == list(model.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(plain.params[name].data, p.data)


def test_a_token_vector_is_its_word_part_then_its_pos_part(graphs):
    # the word part sums the trainable row, the fixed pretrained row and the
    # char BiLSTM vector; the POS part is the POS row
    model = _model(graphs)
    w = TINY.word_dim
    pretrained = np.random.default_rng(3).standard_normal((len(model.word_vocab), w))
    shifted = ParserModel(TINY, model.tasks, model.word_vocab, model.char_vocab, model.pos_vocab,
                          seed=4, pretrained=pretrained)
    batch = model.batch([g.sentence for g in graphs])
    x, y = model.embed_tokens(batch).data, shifted.embed_tokens(batch).data
    assert x.shape == (batch.word_ids.size, TINY.input_dim) == (batch.word_ids.size, w + 4)
    np.testing.assert_array_equal(x[:, w:], model.params["emb/pos"].data[batch.pos_ids])
    np.testing.assert_array_equal(y[:, w:], x[:, w:])
    np.testing.assert_allclose(y[:, :w] - x[:, :w], pretrained[batch.word_ids], atol=1e-12)


def test_pretrained_table_rows_follow_the_vocabulary():
    vocab = Vocab(["b", "a"])
    table = pretrained_table({"a": np.array([1.0, 2.0]), "z": np.array([3.0, 4.0])}, vocab, 2)
    np.testing.assert_array_equal(table, [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])  # <unk>, a, b
    with pytest.raises(ConfigError, match=r"pretrained vector for 'a' has shape \(3,\)"):
        pretrained_table({"a": np.ones(3)}, vocab, 2)


def test_batch_call_equals_one_sentence_calls(graphs):
    model = _model(graphs)
    sentences = [g.sentence for g in graphs]
    longest = max(len(s) for s in sentences)
    assert min(len(s) for s in sentences) < longest  # the batch is padded
    with ad.no_grad():
        s_edge, s_label = model.forward(sentences, SEMANTIC)
        single = [model.forward([s], SEMANTIC) for s in sentences]
    assert s_edge.shape == (len(sentences), longest + 1, longest)
    assert s_label.shape == (len(sentences), len(model.tasks[SEMANTIC]), longest + 1, longest)
    for b, (s, (edge_1, label_1)) in enumerate(zip(sentences, single)):
        n = len(s)
        assert edge_1.shape == (1, n + 1, n)
        # every cell of the block is scored as it stands, the diagonal included
        _close(s_edge.data[b, :n + 1, :n], edge_1.data[0], 1e-12)
        assert np.all(np.diag(edge_1.data[0], k=-1) != 0.0)
        _close(s_label.data[b, :, :n + 1, :n], label_1.data[0], 1e-12)
        # and the padding holds 0
        for scores in (s_edge.data[b], s_label.data[b].transpose(1, 2, 0)):
            assert np.all(scores[n + 1:] == 0.0) and np.all(scores[:, n:] == 0.0)


def test_char_vector_runs_once_per_distinct_form_per_call(graphs, monkeypatch):
    model = _model(graphs)
    sentences = [g.sentence for g in graphs]
    forms = [tok.form for s in sentences for tok in s]
    assert len(set(forms)) < len(forms)  # the corpus repeats forms
    char_calls = []
    lstm_seq = ad.lstm_seq

    def counted(x, w, u, b, lengths, reverse=False, *, bw=None):
        if w.name.startswith("char_rnn/"):
            char_calls.append((w.name, x.shape[0], sorted(lengths), reverse))
        return lstm_seq(x, w, u, b, lengths, reverse, bw=bw)

    monkeypatch.setattr(ad, "lstm_seq", counted)
    lengths = sorted(len(form) for form in set(forms))
    for _ in range(2):
        char_calls.clear()
        with ad.no_grad():
            model.forward(sentences, SEMANTIC)
        # one call per direction, each over every distinct form of the call, packed
        assert char_calls == [("char_rnn/fw/w", sum(lengths), lengths, False),
                              ("char_rnn/bw/w", sum(lengths), lengths, True)]


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_fnn_heads_run_on_real_rows_only(graphs, monkeypatch, train):
    model = _model(graphs)
    sentences = [g.sentence for g in graphs]
    sizes = [len(s) for s in sentences]
    assert len(set(sizes)) > 1  # the batch is padded
    rows = {}
    matmul = ad.matmul

    def recorded(a, b):
        if getattr(b, "name", "").startswith("fnn/"):
            rows[b.name.split("/")[2]] = a.shape[0]
        return matmul(a, b)

    monkeypatch.setattr(ad, "matmul", recorded)
    model.forward(sentences, SEMANTIC, np.random.default_rng(3) if train else None)
    heads, deps = sum(sizes) + len(sizes), sum(sizes)
    assert rows == {"edge_head": heads, "label_head": heads, "edge_dep": deps, "label_dep": deps}


def test_equal_seeded_rngs_give_equal_train_scores(graphs):
    model = _model(graphs)
    sentences = [g.sentence for g in graphs]
    first = model.forward(sentences, SEMANTIC, np.random.default_rng(7))
    second = model.forward(sentences, SEMANTIC, np.random.default_rng(7))
    with ad.no_grad():
        evaluated = model.forward(sentences, SEMANTIC)
    for a, b in zip(first, second):
        assert np.array_equal(a.data, b.data)
    # an rng switches dropout on
    assert not np.array_equal(first[0].data, evaluated[0].data)


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
            "scorer/semantic/edge"} <= common
    if not topology.shared_rnn:
        assert "rnn/semantic/layer1/bw/u" in common
    if not topology.shared_fnn:
        assert "fnn/semantic/label_head/w" in common
    for name in sorted(common):
        assert np.array_equal(single.params[name].data, multi.params[name].data), name


def test_biaffine_bias_is_the_border_of_the_edge_weight(graphs):
    # x'W'y' with ones appended to both row sets is dep W head + dep a + b head + c
    model = _model(graphs)
    f = TINY.fnn_size
    edge = model.params["scorer/semantic/edge"].data
    plain = ParserModel(replace(TINY, biaffine_bias=False), model.tasks, model.word_vocab,
                        model.char_vocab, model.pos_vocab, seed=4)
    # a fresh model starts from the bias-off Glorot values and a zero border
    assert edge.shape == (f + 1, f + 1)
    assert np.array_equal(edge[:f, :f], plain.params["scorer/semantic/edge"].data)
    assert not edge[f].any() and not edge[:, f].any()
    rng = np.random.default_rng(3)
    edge[f] = rng.standard_normal(f + 1)
    edge[:f, f] = rng.standard_normal(f)
    w, a, b, c = edge[:f, :f], edge[:f, f], edge[f, :f], edge[f, f]
    assert a.all() and b.all() and c != 0.0
    sentences = [g.sentence for g in graphs]
    with ad.no_grad():
        batch = model.batch(sentences)
        states = model.encode(model.embed_tokens(batch), batch, SEMANTIC).data
        s_edge = model.score_edges_labels(ad.constant(states), batch, SEMANTIC)[0].data

    def fnn(kind, rows):
        return np.tanh(rows @ model.params[f"fnn/semantic/{kind}/w"].data
                       + model.params[f"fnn/semantic/{kind}/b"].data)

    heads, deps = fnn("edge_head", states), fnn("edge_dep", states[batch.token_rows])
    valid = edge_cells(batch.sizes).astype(bool)
    for k, n in enumerate(batch.sizes):
        first = batch.sizes[:k].sum()  # tokens before sentence k, and k roots
        head, dep = heads[first + k:][:n + 1], deps[first:][:n]
        want = head @ w.T @ dep.T + (dep @ a)[None] + (head @ b)[:, None] + c
        cells = valid[k, :n + 1, :n]
        _close(s_edge[k, :n + 1, :n][cells], want[cells], 1e-12)


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
    s_edge, s_label = model.forward([graph.sentence], SEMANTIC, rng)
    semantic_loss(s_edge, s_label, [gold], labels).backward()

    decided = np.array([[{i, j} <= gold.aligned and i != j for j in range(1, n + 1)]
                        for i in range(n + 1)])
    gold_cells = np.zeros((n + 1, n), dtype=bool)
    for h, d, _ in edges:
        gold_cells[h, d - 1] = True
    assert 0 < decided.sum() < decided.size and gold_cells.any()
    edge_grad, label_grad = s_edge.grad[0], s_label.grad[0]
    assert np.all(edge_grad[~decided] == 0.0)
    assert np.all(edge_grad[decided] != 0.0)
    assert np.all(label_grad[:, ~gold_cells] == 0.0)
    assert np.all(np.any(label_grad[:, gold_cells] != 0.0, axis=0))


def _loss_and_grads(model, task, sentences, golds):
    loss_of = semantic_loss if task == SEMANTIC else syntactic_loss
    ad.clear_grads(model.parameters())
    s_edge, s_label = model.forward(sentences, task)
    loss = loss_of(s_edge, s_label, golds, model.tasks[task])
    loss.backward()
    # the gradient buffers are reused by the next backward
    grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for name, p in model.params.items()}
    ad.clear_grads(model.parameters())
    return float(loss.data), grads, (s_edge, s_label)


@pytest.mark.parametrize("task", [SEMANTIC, SYNTACTIC])
def test_batch_loss_equals_sum_of_one_sentence_losses(task):
    corpus = synth_corpus(SynthConfig(sentences=5, seed=12))
    golds = corpus.target_gold.graphs() if task == SEMANTIC else corpus.trees
    if task == SEMANTIC:  # partial gold: every third token undecided
        golds = [PartialGraph(SemanticGraph(g.sentence, frozenset(
            e for e in g.edges if e.head % 3 != 2 and e.dependent % 3 != 2)),
            frozenset(j for j in range(1, g.n + 1) if j % 3 != 2)) for g in golds]
    sentences = [g.graph.sentence if task == SEMANTIC else g.sentence for g in golds]
    assert len({len(s) for s in sentences}) > 1
    model = _model(corpus.target_gold.graphs(), (SEMANTIC, SYNTACTIC),
                   SharingTopology(shared_rnn=True))
    loss, grads, _ = _loss_and_grads(model, task, sentences, golds)
    parts = [_loss_and_grads(model, task, [s], [g]) for s, g in zip(sentences, golds)]
    assert abs(loss - sum(p[0] for p in parts)) <= 1e-10 * abs(loss)
    wants = {name: sum(p[1][name] for p in parts) for name in grads}
    # gradients that vanish mathematically (a bias constant across a head
    # softmax) hold only round-off, so the absolute floor is the largest entry
    scale = max(np.abs(want).max() for want in wants.values())
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, wants[name], rtol=1e-10, atol=1e-10 * scale,
                                   err_msg=name)


@pytest.mark.parametrize("task", [SEMANTIC, SYNTACTIC])
def test_padded_cells_get_exactly_zero_gradient(task):
    corpus = synth_corpus(SynthConfig(sentences=5, seed=12))
    golds = corpus.target_gold.graphs() if task == SEMANTIC else corpus.trees
    sentences = [g.sentence for g in golds]
    model = _model(corpus.target_gold.graphs(), (SEMANTIC, SYNTACTIC),
                   SharingTopology(shared_rnn=True))
    _, _, (s_edge, s_label) = _loss_and_grads(model, task, sentences, golds)
    longest = max(len(s) for s in sentences)
    padded = 0
    for b, s in enumerate(sentences):
        n = len(s)
        pad = np.ones((longest + 1, longest), dtype=bool)
        pad[:n + 1, :n] = False
        padded += pad.sum()
        assert np.all(s_edge.grad[b][pad] == 0.0)
        assert np.all(s_label.grad[b][:, pad] == 0.0)
    assert padded > 0


def test_syntactic_loss_reads_no_diagonal_or_padding_score():
    trees = synth_corpus(SynthConfig(sentences=5, seed=12)).trees
    sizes = [t.n for t in trees]
    longest = max(sizes)
    labels = syntactic_label_vocab(DEFAULT_DEPRELS)
    rng = np.random.default_rng(3)
    edge = rng.standard_normal((len(trees), longest + 1, longest))
    label = rng.standard_normal((len(trees), len(labels), longest + 1, longest))
    outside = edge_cells(sizes) == 0.0
    assert outside.sum() > len(trees) * longest  # the diagonal and some padding

    def loss_and_grads(edge):
        s_edge = ad.Tensor(edge, requires_grad=True)
        s_label = ad.Tensor(label, requires_grad=True)
        loss = syntactic_loss(s_edge, s_label, trees, labels)
        loss.backward()
        return float(loss.data), s_edge.grad, s_label.grad

    want = loss_and_grads(edge)
    for fill in (0.0, 1e3, -1e3):
        changed = edge.copy()
        changed[outside] = fill
        got = loss_and_grads(changed)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    assert np.all(want[1][outside] == 0.0)


def _two_task():
    corpus = synth_corpus(SynthConfig(sentences=5, seed=12))
    graphs = corpus.target_gold.graphs()
    model = _model(graphs, (SEMANTIC, SYNTACTIC), SharingTopology(shared_rnn=True))
    return model, {SEMANTIC: graphs, SYNTACTIC: corpus.trees}


def _task_loss(model, task, golds, weight: float = 1.0):
    loss_of = semantic_loss if task == SEMANTIC else syntactic_loss
    s_edge, s_label = model.forward([g.sentence for g in golds], task)
    return ad.scale(loss_of(s_edge, s_label, golds, model.tasks[task]), weight)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_parameter_state_is_three_flat_arrays_in_sorted_name_order(graphs, tmp_path, loaded):
    model = _model(graphs)
    if loaded:
        model.save(str(tmp_path / "model.npz"))
        model = ParserModel.load(str(tmp_path / "model.npz"))
    s_edge, s_label = model.forward([g.sentence for g in graphs], SEMANTIC,
                                    np.random.default_rng(1))
    semantic_loss(s_edge, s_label, graphs, model.tasks[SEMANTIC]).backward()
    params = [model.params[name] for name in sorted(model.params)]
    assert all(p.grad is not None for p in params)  # train mode reaches every parameter
    flats = []
    for role in ("grad", "m", "v"):
        views = [getattr(p, role) for p in params]
        flat = views[0].base
        assert flat.ndim == 1 and flat.size == sum(p.data.size for p in params), role
        offset = 0
        for p, view in zip(params, views):
            assert view.base is flat and np.shares_memory(view, flat), (role, p.name)
            assert view.shape == p.shape and view.flags.c_contiguous, (role, p.name)
            # the views tile the flat array in sorted-name order
            assert (view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
                    == offset * flat.itemsize), (role, p.name)
            offset += p.data.size
        flats.append(flat)
    grads, m, v = flats
    assert not (np.shares_memory(grads, m) or np.shares_memory(grads, v)
                or np.shares_memory(m, v))
    assert not any(np.shares_memory(p.data, flat) for p in params for flat in flats)


def test_backward_overwrites_the_gradient_buffers(graphs):
    model = _model(graphs)
    params = model.parameters()

    def backward():
        ad.clear_grads(params)
        s_edge, s_label = model.forward([g.sentence for g in graphs], SEMANTIC,
                                        np.random.default_rng(5))
        semantic_loss(s_edge, s_label, graphs, model.tasks[SEMANTIC]).backward()
        return {p.name: p.grad for p in params}

    first = backward()
    flat = params[0].grad.base
    assert all(grad.base is flat for grad in first.values())
    kept = {name: grad.copy() for name, grad in first.items()}
    flat.fill(np.nan)  # stale contents, such as an Adam update left in the buffer
    second = backward()
    for name, grad in second.items():
        assert grad.base is flat and np.shares_memory(grad, first[name]), name
        assert np.array_equal(grad, kept[name]), name


def test_combined_step_gradients_are_the_sum_of_each_task():
    model, golds = _two_task()
    params = model.parameters()

    def grads(tasks):
        ad.clear_grads(params)
        total = None
        for task, weight in tasks:
            part = _task_loss(model, task, golds[task], weight)
            total = part if total is None else ad.add(total, part)
        total.backward()
        return {p.name: None if p.grad is None else p.grad.copy() for p in params}

    semantic, syntactic = (SEMANTIC, 0.975 / 40), (SYNTACTIC, 0.025 / 40)
    alone = [grads([semantic]), grads([syntactic])]
    both = grads([semantic, syntactic])
    shared = {name for name in both if all(g[name] is not None for g in alone)}
    assert {"emb/word", "char_rnn/fw/w", "rnn/shared/layer0/fw/u"} <= shared
    for name, grad in both.items():
        parts = [g[name] for g in alone if g[name] is not None]
        if not parts:
            assert grad is None, name
            continue
        assert np.array_equal(grad, parts[0] if len(parts) == 1 else parts[0] + parts[1]), name


def test_adam_over_a_two_task_model_matches_the_textbook_form(monkeypatch):
    # bit for bit against `reference_folded_adam_step`, the per-parameter form
    # of the kernel's folded arithmetic
    model, golds = _two_task()
    params = model.parameters()
    # the reference on copies; it rebinds its moments to fresh arrays
    reference = [ad.Parameter(p.data.copy(), name=p.name) for p in params]
    runs = []
    adam_run = ad._adam_run

    def counted(run, *args):
        runs[-1].append(len(run))
        return adam_run(run, *args)

    monkeypatch.setattr(ad, "_adam_run", counted)
    for task in (SEMANTIC, SYNTACTIC, SEMANTIC, SYNTACTIC, SEMANTIC):
        ad.clear_grads(params)
        _task_loss(model, task, golds[task], 1.0 / 40).backward()
        for p, q in zip(params, reference):
            q.grad = None if p.grad is None else p.grad.copy()
        runs.append([])
        adam_step(params, lr=0.01)
        assert sum(runs[-1]) == sum(q.grad is not None for q in reference)
        reference_folded_adam_step(reference, lr=0.01)
        for p, q in zip(params, reference):
            for attr in ("data", "m", "v"):
                assert np.array_equal(getattr(p, attr), getattr(q, attr)), (task, p.name, attr)
            assert p.step == q.step and p.grad is None, p.name
    # one pass per run of adjacent parameters at one step count: the unused
    # emb/unk_* and the other task's parameters split them
    assert [len(step) for step in runs] == [3, 5, 5, 5, 5]
