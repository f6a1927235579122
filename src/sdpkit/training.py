"""Loss construction, decoding, minibatch scheduling, and the training loops.

The semantic edge loss is a sigmoid cross-entropy summed over decided cells
only: undecided cells are multiplied by a zero mask, which cancels
backpropagation for those directions exactly. The label loss is a softmax
cross-entropy gathered at decided gold-edge cells. The syntactic auxiliary
task uses per-dependent softmaxes over candidate heads. Within a task the two
losses are interpolated by `label_interp`. In multitask mode the syntactic
loss is scaled by `syntactic_weight` and the semantic loss by one minus it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, TrainingDiverged
from .evaluation import ScoreReport, score_graphs
from .graph import (ROOT, TOP_LABEL, Edge, PartialGraph, SemanticGraph,
                    SyntacticTree, Token, as_partial)
from .network import SEMANTIC, SYNTACTIC, ParserModel, Vocab, check_contexts

_TASK_CODE = {SEMANTIC: 0, SYNTACTIC: 1}

# Padded tokens (sentences times the longest) of one model call in
# `parse_semantic`; bounds the score arrays a call holds.
PARSE_BATCH_TOKENS = 512


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    token_budget: int = 1000
    label_interp: float = 0.5       # label vs edge loss within a task
    syntactic_weight: float = 0.025  # multitask only; the semantic weight is 1 minus it
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    combined_steps: bool = False    # False: alternate task minibatches

    def __post_init__(self):
        if not 0.0 < self.label_interp < 1.0:
            raise ConfigError("label_interp must be in (0,1)")
        if not 0.0 <= self.syntactic_weight <= 1.0:
            raise ConfigError("syntactic_weight must be in [0,1]")
        if self.token_budget < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ConfigError("token_budget/max_epochs must be >= 1 and patience >= 0")


# ---------------------------------------------------------------------------
# losses


def _check_scores(s_edge: Tensor, sizes: list[int]):
    longest = max(sizes)
    if s_edge.shape != (len(sizes), longest + 1, longest):
        raise ConfigError(f"edge scores {s_edge.shape} do not match {len(sizes)} sentences "
                          f"of at most {longest} tokens")


def semantic_loss(s_edge: Tensor, s_label: Tensor,
                  golds: Sequence[PartialGraph | SemanticGraph], labels: Vocab,
                  label_interp: float = 0.5) -> Tensor:
    """Masked interpolated loss, summed over a batch, against (partial) gold graphs.

    Scores are a batch from `ParserModel.forward`; `golds` are in its input
    order. Cells outside decided x decided, the self-loop diagonal and the
    padding of sentences shorter than the longest contribute exactly zero to
    the loss and to every gradient; a `PartialGraph` has gold edges at
    decided cells only, so every gold edge is a target.
    """
    golds = [as_partial(g) for g in golds]
    _check_scores(s_edge, [gold.graph.n for gold in golds])
    mask = np.zeros(s_edge.shape)
    edges = []  # (sentence, head, dependent - 1, label id)
    for b, gold in enumerate(golds):
        decided = np.zeros(gold.graph.n + 1)
        decided[list(gold.aligned)] = 1.0
        mask[b, :len(decided), :len(decided) - 1] = np.outer(decided, decided[1:])
        edges.extend((b, h, d - 1, labels.id(label)) for h, d, label in gold.graph.sorted_edges())
    longest = s_edge.shape[2]
    mask[:, np.arange(1, longest + 1), np.arange(longest)] = 0.0  # self-loops
    b, h, d, ids = np.array(edges, dtype=np.int64).reshape(-1, 4).T
    targets = np.zeros(s_edge.shape)
    targets[b, h, d] = 1.0

    edge_loss = ad.sum_all(ad.mul(ad.sigmoid_cross_entropy(s_edge, targets),
                                  ad.constant(mask)))
    if edges:
        label_loss = ad.sum_all(ad.softmax_cross_entropy(ad.pick_cells(s_label, b, h, d), ids))
    else:
        label_loss = ad.constant(0.0)
    return label_interp * label_loss + (1.0 - label_interp) * edge_loss


def syntactic_loss(s_edge: Tensor, s_label: Tensor, golds: Sequence[SyntacticTree],
                   labels: Vocab, label_interp: float = 0.5) -> Tensor:
    """Head-selection softmax per token plus label softmax at the gold head, summed
    over a batch. Masked heads score `NEG_SCORE`, so each softmax is exact over its
    own sentence's candidate heads; padded dependents carry a zero loss mask."""
    sizes = [gold.n for gold in golds]
    _check_scores(s_edge, sizes)
    rows, steps, longest = s_edge.shape
    head_ids = np.zeros((rows, longest), dtype=np.int64)
    real = np.zeros((rows, longest))
    for b, gold in enumerate(golds):
        head_ids[b, :gold.n] = gold.heads
        real[b, :gold.n] = 1.0
    logits = ad.reshape(ad.transpose(s_edge, (0, 2, 1)), (rows * longest, steps))
    head_loss = ad.sum_all(ad.mul(ad.softmax_cross_entropy(logits, head_ids.reshape(-1)),
                                  ad.constant(real.reshape(-1))))
    b, d = np.nonzero(real)
    picked = ad.pick_cells(s_label, b, head_ids[b, d], d)
    deprel_ids = np.array([labels.id(r) for gold in golds for r in gold.deprels], dtype=np.int64)
    label_loss = ad.sum_all(ad.softmax_cross_entropy(picked, deprel_ids))
    return label_interp * label_loss + (1.0 - label_interp) * head_loss


# ---------------------------------------------------------------------------
# decoding


def decode_semantic(s_edge: np.ndarray, s_label: np.ndarray, labels: Vocab,
                    sentence: Sequence[Token]) -> SemanticGraph:
    """Sign-function decoding: an edge exists wherever its score is >= 0.

    Takes one sentence's score arrays, edge (n+1, n) and label (|L|, n+1, n).
    Root-row edges become tops (label TOP). Other edges take the highest
    scoring non-TOP label; exact ties go to the lowest label index in the
    vocabulary's canonical (sorted) order.
    """
    sentence = tuple(sentence)
    n = len(sentence)
    if s_edge.shape != (n + 1, n):
        raise ConfigError(f"edge scores {s_edge.shape} do not match sentence length {n}")
    chosen = s_edge >= 0
    chosen[np.arange(1, n + 1), np.arange(n)] = False  # self-loops
    heads, deps = np.nonzero(chosen)
    label_scores = s_label[:, heads, deps]
    if TOP_LABEL in labels and len(labels) > 1:
        label_scores[labels.id(TOP_LABEL)] = -np.inf
    best = label_scores.argmax(axis=0)
    names = labels.items
    edges = frozenset(Edge(i, j, TOP_LABEL if i == ROOT else names[k])
                      for i, j, k in zip(heads.tolist(), (deps + 1).tolist(), best.tolist()))
    return SemanticGraph(sentence, edges)


# ---------------------------------------------------------------------------
# corpora and batching


class Example(NamedTuple):
    """One corpus item; a (sentence, gold) or (sentence, gold, context) tuple
    unpacks into it as `Example(*item)`."""

    sentence: Sequence[Token]
    gold: PartialGraph | SemanticGraph | SyntacticTree
    context: np.ndarray | None = None


def _examples(items, context_dim: int, what: str) -> list[Example]:
    """The items as `Example`s, each with context vectors exactly when the model uses them."""
    examples = [Example(*item) for item in items]
    for k, example in enumerate(examples, 1):
        if context_dim and example.context is None:
            raise ConfigError(f"{what} item {k} has no context vectors, but the model "
                              f"has context_dim {context_dim}")
        if not context_dim and example.context is not None:
            raise ConfigError(f"{what} item {k} has context vectors, but the model "
                              "has context_dim 0")
    return examples


def pack_minibatches(lengths: Sequence[int], order: Sequence[int],
                     token_budget: int) -> list[list[int]]:
    """Greedy packing of sentence indices up to roughly token_budget tokens.

    A sentence longer than the budget forms a singleton minibatch.
    """
    batches: list[list[int]] = []
    current: list[int] = []
    used = 0
    for idx in order:
        n = lengths[idx]
        if current and used + n > token_budget:
            batches.append(current)
            current, used = [], 0
        current.append(idx)
        used += n
    if current:
        batches.append(current)
    return batches


def _schedule(task_batches: dict[str, list[list[int]]]) -> list[tuple[str, int]]:
    """Proportional deterministic interleave of per-task minibatch queues."""
    keyed = []
    for task in sorted(task_batches):
        total = len(task_batches[task])
        for k in range(total):
            keyed.append(((k + 0.5) / total, task, k))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [(task, k) for _, task, k in keyed]


@dataclass
class TrainResult:
    metrics: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_lf: float = 0.0
    epochs_run: int = 0


def _shuffle_rng(seed: int, epoch: int, task: str) -> np.random.Generator:
    return np.random.default_rng([seed, 0xB41C, epoch, _TASK_CODE[task]])


def _dropout_rng(seed: int, epoch: int, task: str, batch: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0xD20F, epoch, _TASK_CODE[task], batch])


def train(model: ParserModel, corpora: dict[str, list], heldout: list,
          cfg: TrainConfig, metrics_out: TextIO | None = None) -> TrainResult:
    """Train (single- or multi-task) with early stopping on heldout labeled F1.

    `corpora` maps task ids to lists of (sentence, gold) or
    (sentence, gold, context) items; `heldout` holds semantic items. Every
    item must carry context vectors if the model has a context channel and
    must not otherwise; this is checked before the first step. The model is
    left holding the best checkpoint seen, also when training
    stops by raising (such as `TrainingDiverged`). In multitask mode the
    semantic weight is `1 - cfg.syntactic_weight`, and a task with weight
    zero is skipped entirely, so a multitask run with a zero syntactic
    weight follows the single-task trajectory exactly.
    """
    if not corpora:
        raise ConfigError("at least one task corpus is required")
    unknown = set(corpora) - set(model.tasks)
    if unknown:
        raise ConfigError(f"corpora given for tasks the model lacks: {sorted(unknown)}")
    if not heldout:
        raise ConfigError("heldout corpus must be non-empty")
    multitask = len(corpora) > 1
    weights = {SEMANTIC: 1.0 - cfg.syntactic_weight if multitask else 1.0,
               SYNTACTIC: cfg.syntactic_weight if multitask else 1.0}
    context_dim = model.config.context_dim
    examples = {task: _examples(items, context_dim, task) for task, items in corpora.items()}
    heldout = _examples(heldout, context_dim, "heldout")
    data = {task: items for task, items in examples.items()
            if (weights[task] > 0 or not multitask)}
    params = model.parameters()

    result = TrainResult()
    # allocated once and overwritten in place on every improving epoch
    best_snapshot = {name: p.data.copy() for name, p in model.params.items()}
    best_lf = -1.0
    since_improve = 0

    try:
        for epoch in range(1, cfg.max_epochs + 1):
            task_batches = {}
            for task in sorted(data):
                items = data[task]
                order = _shuffle_rng(cfg.seed, epoch, task).permutation(len(items))
                lengths = [len(example.sentence) for example in items]
                task_batches[task] = pack_minibatches(lengths, order.tolist(), cfg.token_budget)

            loss_sums = {task: 0.0 for task in data}
            token_sums = {task: 0 for task in data}

            if cfg.combined_steps and multitask:
                steps = _combined_schedule(task_batches)
            else:
                steps = [[pair] for pair in _schedule(task_batches)]

            for step_index, step in enumerate(steps):
                total: Tensor | None = None
                for task, batch_index in step:
                    batch = [data[task][idx] for idx in task_batches[task][batch_index]]
                    sentences, golds, contexts = zip(*batch)
                    rng = _dropout_rng(cfg.seed, epoch, task, batch_index)
                    task_loss = semantic_loss if task == SEMANTIC else syntactic_loss
                    s_edge, s_label = model.forward(sentences, task, rng, contexts)
                    part = task_loss(s_edge, s_label, golds, model.tasks[task],
                                     cfg.label_interp)
                    tokens = sum(len(sentence) for sentence in sentences)
                    loss_sums[task] += float(part.data)
                    token_sums[task] += tokens
                    scaled = part * (weights[task] / tokens)
                    total = scaled if total is None else total + scaled
                value = float(total.data)
                if math.isnan(value) or math.isinf(value):
                    raise TrainingDiverged(f"loss became {value} at epoch {epoch}, "
                                           f"step {step_index + 1}")
                total.backward()
                ad.adam_step(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)

            report = evaluate_semantic(model, heldout)
            entry = {"epoch": epoch}
            for task in sorted(data):
                entry[f"loss_{task}"] = (loss_sums[task] / token_sums[task]
                                         if token_sums[task] else 0.0)
            entry["heldout_lf"] = report.lf
            entry["heldout_uf"] = report.uf
            line = " ".join(f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                            for k, v in entry.items())
            result.metrics.append(entry)
            if metrics_out is not None:
                metrics_out.write(line + "\n")

            if report.lf > best_lf:
                best_lf = report.lf
                result.best_epoch = epoch
                for name, p in model.params.items():
                    np.copyto(best_snapshot[name], p.data)
                since_improve = 0
            else:
                since_improve += 1
            result.epochs_run = epoch
            if since_improve > cfg.patience:
                break
    finally:
        for name, p in model.params.items():
            p.data = best_snapshot[name]
    result.best_lf = best_lf if best_lf >= 0 else 0.0
    return result


def _combined_schedule(task_batches: dict[str, list[list[int]]]
                       ) -> list[list[tuple[str, int]]]:
    """One optimizer step per index, pairing task queues (short queues cycle)."""
    longest = max(len(b) for b in task_batches.values())
    steps = []
    for k in range(longest):
        step = []
        for task in sorted(task_batches):
            step.append((task, k % len(task_batches[task])))
        steps.append(step)
    return steps


# ---------------------------------------------------------------------------
# inference helpers


def _chunks(sizes: Sequence[int], budget: int) -> list[range]:
    """Consecutive runs of sentences whose padded size (count times longest)
    stays within `budget`; a longer sentence is a run of its own."""
    runs, start, longest = [], 0, 0
    for i, n in enumerate(sizes):
        if i > start and (i - start + 1) * max(longest, n) > budget:
            runs.append(range(start, i))
            start, longest = i, 0
        longest = max(longest, n)
    if sizes:
        runs.append(range(start, len(sizes)))
    return runs


def parse_semantic(model: ParserModel, sentences: Sequence[Sequence[Token]],
                   contexts: Sequence[np.ndarray | None] | None = None
                   ) -> list[SemanticGraph]:
    """Decode semantic graphs for raw sentences in eval mode.

    Sentences go to the model in input order, in runs of at most
    `PARSE_BATCH_TOKENS` padded tokens (sentences times the longest); each
    run is one `ParserModel.forward` call, decoded before the next is scored.
    """
    check_contexts(sentences, contexts)
    labels = model.tasks[SEMANTIC]
    graphs = []
    with ad.no_grad():
        for run in _chunks([len(s) for s in sentences], PARSE_BATCH_TOKENS):
            part = [sentences[i] for i in run]
            s_edge, s_label = model.forward(
                part, SEMANTIC, contexts=None if contexts is None else [contexts[i] for i in run])
            for b, sentence in enumerate(part):
                n = len(sentence)
                graphs.append(decode_semantic(s_edge.data[b, :n + 1, :n],
                                              s_label.data[b, :, :n + 1, :n], labels, sentence))
    return graphs


def evaluate_semantic(model: ParserModel, corpus: list) -> ScoreReport:
    """Labeled/unlabeled F1 of decoded graphs against (possibly partial) gold."""
    items = [Example(*item) for item in corpus]
    predicted = parse_semantic(model, [e.sentence for e in items], [e.context for e in items])
    return score_graphs(predicted, [e.gold for e in items])
