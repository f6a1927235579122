import numpy as np
import pytest
from helpers import reference_adam_step

from sdpkit import autodiff as ad
from sdpkit.graph import PartialGraph, SemanticGraph
from sdpkit.network import (NEG_SCORE, SEMANTIC, SYNTACTIC, NetworkConfig, ParserModel,
                            SharingTopology, build_vocabs, semantic_label_vocab,
                            syntactic_label_vocab)
from sdpkit.synth import DEFAULT_DEPRELS, DEFAULT_LABELS, SynthConfig, synth_corpus
from sdpkit.training import semantic_loss, syntactic_loss

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
        edge, edge_1 = s_edge.data[b, :n + 1, :n], edge_1.data[0]
        assert edge_1.shape == (n + 1, n)
        diagonal = np.eye(n + 1, n, k=-1, dtype=bool)
        assert np.all(edge[diagonal] == NEG_SCORE) and np.all(edge_1[diagonal] == NEG_SCORE)
        _close(edge[~diagonal], edge_1[~diagonal], 1e-12)
        _close(s_label.data[b, :, :n + 1, :n], label_1.data[0], 1e-12)
        # padding is masked like the diagonal
        assert np.all(s_edge.data[b, n + 1:] == NEG_SCORE)
        assert np.all(s_edge.data[b, :, n:] == NEG_SCORE)


def test_char_vector_runs_once_per_distinct_form_per_call(graphs, monkeypatch):
    model = _model(graphs)
    sentences = [g.sentence for g in graphs]
    forms = [tok.form for s in sentences for tok in s]
    assert len(set(forms)) < len(forms)  # the corpus repeats forms
    char_calls = []
    lstm_seq = ad.lstm_seq

    def counted(x, w, u, b, lengths, reverse=False):
        if w.name.startswith("char_rnn/"):
            char_calls.append((w.name, x.shape[0], sorted(lengths), reverse))
        return lstm_seq(x, w, u, b, lengths, reverse)

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


def _two_task():
    corpus = synth_corpus(SynthConfig(sentences=5, seed=12))
    graphs = corpus.target_gold.graphs()
    model = _model(graphs, (SEMANTIC, SYNTACTIC), SharingTopology(shared_rnn=True))
    return model, {SEMANTIC: graphs, SYNTACTIC: corpus.trees}


def _task_loss(model, task, golds, weight: float = 1.0):
    loss_of = semantic_loss if task == SEMANTIC else syntactic_loss
    s_edge, s_label = model.forward([g.sentence for g in golds], task)
    return loss_of(s_edge, s_label, golds, model.tasks[task]) * weight


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
            total = part if total is None else total + part
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
    model, golds = _two_task()
    params = model.parameters()
    # the textbook form on copies; it rebinds its moments to fresh arrays
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
        ad.adam_step(params, lr=0.01)
        assert sum(runs[-1]) == sum(q.grad is not None for q in reference)
        reference_adam_step(reference, lr=0.01)
        for p, q in zip(params, reference):
            for attr in ("data", "m", "v"):
                assert np.array_equal(getattr(p, attr), getattr(q, attr)), (task, p.name, attr)
            assert p.step == q.step and p.grad is None, p.name
    # one pass per run of adjacent parameters at one step count: the unused
    # emb/unk_* and the other task's parameters split them
    assert [len(step) for step in runs] == [3, 5, 5, 5, 5]
