import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from helpers import adam_state, kingma_ba, reference_folded_adam_step, reference_initial_params

from sdpkit import autodiff as ad
from sdpkit import network
from sdpkit.errors import ConfigError
from sdpkit.graph import PartialGraph, SemanticGraph, make_sentence
from sdpkit.network import (SEMANTIC, SYNTACTIC, NetworkConfig, ParserModel, SharingTopology,
                            Vocab, build_vocabs, semantic_label_vocab)
from sdpkit.synth import DEFAULT_DEPRELS, DEFAULT_LABELS, SynthConfig, synth_corpus
from sdpkit.training import edge_cells, semantic_loss, syntactic_loss

TINY = NetworkConfig(word_dim=8, pos_dim=4, rnn_size=8, rnn_layers=2, fnn_size=8,
                     biaffine_bias=True)


@pytest.fixture(scope="module")
def graphs():
    return synth_corpus(SynthConfig(sentences=6, seed=11)).target_gold.graphs()


def _model(graphs, tasks=(SEMANTIC,), topology=None, seed: int = 4,
           config: NetworkConfig = TINY) -> ParserModel:
    vocabs = {SEMANTIC: semantic_label_vocab(DEFAULT_LABELS),
              SYNTACTIC: Vocab(DEFAULT_DEPRELS, unk=False)}
    words, chars, pos = build_vocabs([g.sentence for g in graphs])
    return ParserModel(config, {task: vocabs[task] for task in tasks}, words, chars, pos,
                       topology=topology, seed=seed)


def _close(got, want, rtol):
    """Equal to `rtol` of the largest entry of `want`."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_config_defaults_are_the_paper_settings(graphs):
    # the paper's dimensions (bench/workloads.py's PAPER) with Dozat & Manning's dropout rates
    assert asdict(NetworkConfig()) == {
        "word_dim": 100, "pos_dim": 100, "rnn_size": 600, "rnn_layers": 3, "fnn_size": 600,
        "word_dropout": 0.2, "recurrent_dropout": 0.25, "edge_dropout": 0.25,
        "label_dropout": 0.33, "biaffine_bias": False}
    # the char embedding and each char BiLSTM direction are half the word dimension
    words, chars, pos = build_vocabs([g.sentence for g in graphs])
    model = ParserModel(NetworkConfig(), {SEMANTIC: semantic_label_vocab(DEFAULT_LABELS)},
                        words, chars, pos)
    assert model.params["emb/char"].shape == (len(chars), 50)
    assert model.params["char_rnn/fw/w"].shape == (50, 200)
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
    ({"label_dropout": 1.0}, r"label_dropout must be in \[0,1\), got 1.0"),
    ({"word_dropout": -0.1}, r"word_dropout must be in \[0,1\), got -0.1"),
    ({"recurrent_dropout": 1.5}, r"recurrent_dropout must be in \[0,1\), got 1.5"),
    ({"edge_dropout": -0.25}, r"edge_dropout must be in \[0,1\), got -0.25"),
], ids=["rnn_layers", "word_dim-zero", "pos_dim-zero", "rnn_size-zero", "fnn_size-negative",
        "word_dim", "rnn_size", "label_dropout", "word_dropout",
        "recurrent_dropout", "edge_dropout"])
def test_network_config_refuses_invalid_settings(settings, message):
    with pytest.raises(ConfigError, match=message):
        NetworkConfig(**settings)


def test_glorot_draws_fill_their_limit():
    # Glorot & Bengio's uniform limit sqrt(6 / (fan_in + fan_out))
    limit = np.sqrt(6.0 / 500)
    w = np.empty((200, 300))
    network._glorot(np.random.default_rng(0), w)
    assert 0.999 * limit < np.abs(w).max() <= limit


@pytest.mark.parametrize("tasks,topology,config", [
    ((SEMANTIC,), None, replace(TINY, biaffine_bias=False)),
    ((SEMANTIC, SYNTACTIC), SharingTopology(shared_rnn=True, shared_fnn=True, task_rnn=True),
     replace(TINY, biaffine_bias=False)),
    ((SEMANTIC,), None, TINY),
], ids=["single-task", "two-task", "biaffine-bias"])
def test_in_place_draws_match_the_per_tensor_draws(graphs, tasks, topology, config):
    model = _model(graphs, tasks, topology, seed=9, config=config)
    want = reference_initial_params(model)
    assert set(want) == set(model.params)
    for name, p in model.params.items():
        assert p.data.tobytes() == want[name].tobytes(), name


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
    x = model.embed_tokens(batch, np.random.default_rng(0))
    weights = np.random.default_rng(1).standard_normal(x.shape)
    ad.sum_all(ad.mul(x, ad.constant(weights))).backward()
    dropped = x.data
    # one uniform per token for the word part, then one per token for the POS part
    draws = np.random.default_rng(0).random(2 * n)
    for k, unk, cols in ((0, "emb/unk_word", slice(0, w)), (1, "emb/unk_pos", slice(w, None))):
        keep = draws[k * n:(k + 1) * n] >= 0.5
        assert 0 < keep.sum() < n
        np.testing.assert_array_equal(dropped[keep, cols], kept[keep, cols])
        for row in dropped[~keep, cols]:
            np.testing.assert_array_equal(row, model.params[unk].data[0])
        # the unknown row takes the gradients of the tokens that selected it
        np.testing.assert_allclose(model.params[unk].grad,
                                   weights[~keep, cols].sum(axis=0, keepdims=True), rtol=1e-12)
    # a word table row that only dropped tokens read gets no gradient
    touched = np.zeros(len(model.word_vocab), dtype=bool)
    touched[batch.word_ids[draws[:n] >= 0.5]] = True
    assert not model.params["emb/word"].grad[~touched].any()


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


@pytest.mark.parametrize("other", [1, 2**31], ids=["1", "2**31"])
def test_each_seed_draws_its_own_parameters(graphs, other):
    # no bit of a seed is dropped: 2**31 was drawn as 0 when seeds were masked to 31 bits
    a, b = _model(graphs, seed=0), _model(graphs, seed=other)
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
                             SYNTACTIC: Vocab(DEFAULT_DEPRELS, unk=False)},
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
    # the word part sums the word table row, which starts as the draw plus the
    # word's pretrained vector, and the char BiLSTM vector; the POS part is the POS row
    model = _model(graphs)
    w = TINY.word_dim
    table = np.random.default_rng(3).standard_normal((len(model.word_vocab), w))
    shifted = ParserModel(TINY, model.tasks, model.word_vocab, model.char_vocab, model.pos_vocab,
                          seed=4, pretrained=dict(zip(model.word_vocab.items, table)))
    np.testing.assert_array_equal(shifted.params["emb/word"].data,
                                  model.params["emb/word"].data + table)
    for name, p in model.params.items():
        if name != "emb/word":
            np.testing.assert_array_equal(shifted.params[name].data, p.data, err_msg=name)
    batch = model.batch([g.sentence for g in graphs])
    x, y = model.embed_tokens(batch).data, shifted.embed_tokens(batch).data
    assert x.shape == (batch.word_ids.size, TINY.input_dim) == (batch.word_ids.size, w + 4)
    np.testing.assert_array_equal(x[:, w:], model.params["emb/pos"].data[batch.pos_ids])
    np.testing.assert_array_equal(y[:, w:], x[:, w:])
    np.testing.assert_allclose(y[:, :w] - x[:, :w], table[batch.word_ids], atol=1e-12)


def test_pretrained_vectors_move_only_their_vocabulary_words_rows(graphs):
    model = _model(graphs)
    vocab, w = model.word_vocab, TINY.word_dim
    word = vocab.items[2]
    # a word outside the vocabulary is ignored, whatever its vector's shape
    vectors = {word: np.arange(1.0, w + 1), "not-in-the-vocabulary": np.ones(w + 3)}
    shifted = ParserModel(TINY, model.tasks, vocab, model.char_vocab, model.pos_vocab,
                          seed=4, pretrained=vectors)
    drawn, got = model.params["emb/word"].data, shifted.params["emb/word"].data
    np.testing.assert_array_equal(got[2], drawn[2] + vectors[word])
    moved = np.any(got != drawn, axis=1)
    assert moved.tolist() == [row == 2 for row in range(len(vocab))]  # <unk> keeps its draw
    for shape in ((w + 1,), (1, w), ()):
        with pytest.raises(ConfigError, match=re.escape(
                f"pretrained vector for {word!r} has shape {shape}, expected ({w},)")):
            ParserModel(TINY, model.tasks, vocab, model.char_vocab, model.pos_vocab,
                        pretrained={**vectors, word: np.zeros(shape)})


def test_an_unk_vector_moves_the_unknown_row_that_out_of_vocabulary_forms_read(graphs):
    model = _model(graphs)
    vector = np.arange(1.0, TINY.word_dim + 1)
    shifted = ParserModel(TINY, model.tasks, model.word_vocab, model.char_vocab,
                          model.pos_vocab, seed=4, pretrained={"<unk>": vector})
    drawn, got = model.params["emb/word"].data, shifted.params["emb/word"].data
    np.testing.assert_array_equal(got[0], drawn[0] + vector)
    np.testing.assert_array_equal(got[1:], drawn[1:])
    assert shifted.batch([make_sentence(["never-seen"])]).word_ids.tolist() == [0]


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
    ad.clear_grads(model.params.values())
    s_edge, s_label = model.forward(sentences, task)
    loss = loss_of(s_edge, s_label, golds, model.tasks[task])
    loss.backward()
    grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for name, p in model.params.items()}
    ad.clear_grads(model.params.values())
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
    labels = Vocab(DEFAULT_DEPRELS, unk=False)
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
def test_the_data_and_adams_moments_are_flat_arrays_in_sorted_name_order(graphs, tmp_path,
                                                                          loaded, monkeypatch):
    # a built or loaded model holds one flat array, its data; an Adam step
    # over it maps one flat M and one flat V beside it
    model = _model(graphs)
    if loaded:
        model.save(str(tmp_path / "model.npz"))
        read = {}
        get = np.lib.npyio.NpzFile.__getitem__

        def spy(npz, key):
            read[key] = get(npz, key)
            return read[key]

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", spy)
        model = ParserModel.load(str(tmp_path / "model.npz"))
        assert model.param_data is read["parameters"]  # adopted as read, with no copy
    params = list(model.params.values())
    assert list(model.params) == sorted(model.params)
    assert all(p._flat is model.param_data for p in params)
    s_edge, s_label = model.forward([g.sentence for g in graphs], SEMANTIC,
                                    np.random.default_rng(1))
    adam = kingma_ba()
    ad.adam_step(semantic_loss(s_edge, s_label, graphs, model.tasks[SEMANTIC]), adam)
    assert adam.steps == dict.fromkeys(params, 1)  # train mode reaches every parameter
    assert list(adam.moments) == [id(model.param_data)]
    flats = []
    for role in range(3):
        views = [(p.data, *adam_state(adam, p)[1:])[role] for p in params]
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
    # the data views tile the model's flat array (for a loaded model its base
    # may be the buffer numpy read the member into)
    assert (model.param_data.shape == flats[0].shape and model.param_data.__array_interface__
            == flats[0].__array_interface__)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(flats) for b in flats[i + 1:])


# One BiLSTM layer of 64 units per direction: each direction's recurrent weight
# (64, 256) is exactly one Adam block, and every other parameter is smaller.
ONE_BLOCK_RNN = replace(TINY, rnn_size=128, rnn_layers=1)


def _train_style_steps(model, golds, tasks, steps: int = 3):
    """`steps` optimizer steps as `training.train` takes them, each one
    `adam_step` on the sum of one scaled loss per task; returns their `Adam`."""
    adam = kingma_ba(0.01)
    for step in range(steps):
        total = None
        for k, (task, weight) in enumerate(tasks):
            s_edge, s_label = model.forward([g.sentence for g in golds[task]], task,
                                            np.random.default_rng([step, k]))
            loss_of = semantic_loss if task == SEMANTIC else syntactic_loss
            part = ad.scale(loss_of(s_edge, s_label, golds[task], model.tasks[task]), weight)
            total = part if total is None else ad.add(total, part)
        ad.adam_step(total, adam)
    return adam


@pytest.mark.parametrize("two_task", [False, True], ids=["single-task", "two-task-combined"])
def test_stepping_large_parameters_during_backward_changes_no_bit(graphs, two_task,
                                                                  monkeypatch):
    # against `late`, whose block is larger than any parameter, so every
    # parameter steps after the walk
    if two_task:
        corpus = synth_corpus(SynthConfig(sentences=5, seed=12))
        golds = {SEMANTIC: corpus.target_gold.graphs(), SYNTACTIC: corpus.trees}
        tasks = [(SEMANTIC, 0.975 / 40), (SYNTACTIC, 0.025 / 40)]
        build = lambda: _model(golds[SEMANTIC], (SEMANTIC, SYNTACTIC),
                               SharingTopology(shared_rnn=True), config=ONE_BLOCK_RNN)
    else:
        golds, tasks = {SEMANTIC: graphs}, [(SEMANTIC, 1.0 / 40)]
        build = lambda: _model(graphs, config=ONE_BLOCK_RNN)
    late, early = build(), build()
    sizes = {p.name: p.data.size for p in early.params.values()}
    assert max(sizes.values()) == ad._ADAM_BLOCK and min(sizes.values()) < ad._ADAM_BLOCK
    with monkeypatch.context() as patch:
        patch.setattr(ad, "_ADAM_BLOCK", 1 << 62)
        late_adam = _train_style_steps(late, golds, tasks)
    early_adam = _train_style_steps(early, golds, tasks)
    assert early.param_data.tobytes() != build().param_data.tobytes()
    for p, q in zip(late.params.values(), early.params.values()):
        (step, *moments), (other, *others) = adam_state(late_adam, p), adam_state(early_adam, q)
        for got, want, what in zip((p.data, *moments), (q.data, *others), "dmv"):
            assert got.tobytes() == want.tobytes(), (p.name, what)
        assert step == other == 3 and p.grad is None and q.grad is None, p.name


def test_adam_step_steps_the_large_parameters_in_the_walk_and_the_small_after_it(
        graphs, monkeypatch):
    model = _model(graphs, config=ONE_BLOCK_RNN)
    s_edge, s_label = model.forward([g.sentence for g in graphs], SEMANTIC,
                                    np.random.default_rng(5))
    loss = semantic_loss(s_edge, s_label, graphs, model.tasks[SEMANTIC])
    runs, after_walk, adam = [], {}, kingma_ba(0.01)
    adam_run, backward = ad._adam_run, ad.Tensor.backward
    monkeypatch.setattr(ad, "_adam_run", lambda run, *args: (
        runs.append((not after_walk, [p.name for p in run])), adam_run(run, *args)))

    def walk(loss, complete):
        backward(loss, complete)
        for p in model.params.values():
            step, m, _ = adam_state(adam, p)
            after_walk[p.name] = (p.grad is not None, step, bool(np.any(m)))

    monkeypatch.setattr(ad.Tensor, "backward", walk)
    ad.adam_step(loss, adam)
    large = [p.name for p in model.params.values() if p.data.size >= ad._ADAM_BLOCK]
    assert large == ["rnn/semantic/layer0/bw/u", "rnn/semantic/layer0/fw/u"]
    # during the walk: each large parameter alone; after it: the others, in the
    # runs of layout order that the large ones split
    names = list(model.params)
    cut = [names.index(name) for name in large]
    assert runs == [(True, [large[0]]), (True, [large[1]]), (False, names[:cut[0]]),
                    (False, names[cut[0] + 1:cut[1]]), (False, names[cut[1] + 1:])]
    for name, (has_grad, step, moved) in after_walk.items():
        assert (has_grad, step, moved) == ((False, 1, True) if name in large
                                           else (True, 0, False)), name
    for p in model.params.values():
        assert p.grad is None and adam.steps[p] == 1, p.name


def test_combined_step_gradients_are_the_sum_of_each_task():
    model, golds = _two_task()
    params = model.params.values()

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
    params = model.params.values()
    # the reference on copies, with moments of its own
    reference = [ad.Parameter(p.data.copy(), name=p.name) for p in params]
    runs, adam, state = [], kingma_ba(0.01), {}
    adam_run = ad._adam_run

    def counted(run, *args):
        runs[-1].append(len(run))
        return adam_run(run, *args)

    monkeypatch.setattr(ad, "_adam_run", counted)
    for task in (SEMANTIC, SYNTACTIC, SEMANTIC, SYNTACTIC, SEMANTIC):
        # the same deterministic loss twice: once for the reference's gradients
        _task_loss(model, task, golds[task], 1.0 / 40).backward()
        for p, q in zip(params, reference):
            q.grad = None if p.grad is None else p.grad.copy()
        ad.clear_grads(params)
        runs.append([])
        ad.adam_step(_task_loss(model, task, golds[task], 1.0 / 40), adam)
        assert sum(runs[-1]) == sum(q.grad is not None for q in reference)
        reference_folded_adam_step(reference, state, lr=0.01)
        for p, q in zip(params, reference):
            (step, *moments), (want, *expected) = adam_state(adam, p), state[q]
            for got, wanted, what in zip((p.data, *moments), (q.data, *expected), "dmv"):
                assert np.array_equal(got, wanted), (task, p.name, what)
            assert step == want and p.grad is None, p.name
    # one pass per run of adjacent parameters at one step count: the unused
    # emb/unk_* and the other task's parameters split them
    assert [len(step) for step in runs] == [3, 5, 5, 5, 5]
