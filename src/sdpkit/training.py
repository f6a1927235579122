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

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, TrainingDiverged
from .evaluation import ScoreReport, score_graphs
from .graph import (ROOT, TOP_LABEL, Edge, PartialGraph, SemanticGraph,
                    SyntacticTree, Token, as_partial)
from .network import SEMANTIC, SYNTACTIC, ParserModel, Vocab

_TASK_CODE = {SEMANTIC: 0, SYNTACTIC: 1}


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


def semantic_loss(s_edge: Tensor, s_label: Tensor, gold: PartialGraph | SemanticGraph,
                  labels: Vocab, label_interp: float = 0.5) -> Tensor:
    """Masked interpolated loss for one sentence against a (partial) graph.

    Cells outside decided x decided (and the self-loop diagonal) contribute
    exactly zero to the loss and to every gradient; a `PartialGraph` has gold
    edges at decided cells only, so every gold edge is a target.
    """
    gold = as_partial(gold) if isinstance(gold, SemanticGraph) else gold
    n = gold.graph.n
    if s_edge.shape != (n + 1, n):
        raise ConfigError(f"edge scores {s_edge.shape} do not match sentence length {n}")

    decided = np.zeros(n + 1)
    for j in gold.aligned:
        decided[j] = 1.0
    mask = np.outer(decided, decided[1:])
    mask[np.arange(1, n + 1), np.arange(n)] = 0.0  # self-loops

    targets = np.zeros((n + 1, n))
    label_rows, label_cols, label_ids = [], [], []
    for h, d, label in gold.graph.sorted_edges():
        targets[h, d - 1] = 1.0
        label_rows.append(h)
        label_cols.append(d - 1)
        label_ids.append(labels.id(label))

    edge_loss = ad.sum_all(ad.mul(ad.sigmoid_cross_entropy(s_edge, targets),
                                  ad.constant(mask)))
    if label_rows:
        picked = ad.pick_cells(s_label, np.array(label_rows), np.array(label_cols))
        label_loss = ad.sum_all(ad.softmax_cross_entropy(picked, np.array(label_ids)))
    else:
        label_loss = ad.constant(0.0)
    return label_interp * label_loss + (1.0 - label_interp) * edge_loss


def syntactic_loss(s_edge: Tensor, s_label: Tensor, gold: SyntacticTree,
                   labels: Vocab, label_interp: float = 0.5) -> Tensor:
    """Head-selection softmax per token plus label softmax at the gold head."""
    n = gold.n
    if s_edge.shape != (n + 1, n):
        raise ConfigError(f"edge scores {s_edge.shape} do not match sentence length {n}")
    head_ids = np.array(gold.heads, dtype=np.int64)
    head_loss = ad.sum_all(ad.softmax_cross_entropy(ad.transpose(s_edge), head_ids))
    cols = np.arange(n, dtype=np.int64)
    picked = ad.pick_cells(s_label, head_ids, cols)
    deprel_ids = np.array([labels.id(r) for r in gold.deprels], dtype=np.int64)
    label_loss = ad.sum_all(ad.softmax_cross_entropy(picked, deprel_ids))
    return label_interp * label_loss + (1.0 - label_interp) * head_loss


# ---------------------------------------------------------------------------
# decoding


def _scores(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def decode_semantic(s_edge, s_label, labels: Vocab,
                    sentence: Sequence[Token]) -> SemanticGraph:
    """Sign-function decoding: an edge exists wherever its score is >= 0.

    Root-row edges become tops (label TOP). Other edges take the highest
    scoring non-TOP label; exact ties go to the lowest label index in the
    vocabulary's canonical (sorted) order.
    """
    s_edge = _scores(s_edge)
    s_label = _scores(s_label)
    sentence = tuple(sentence)
    n = len(sentence)
    if s_edge.shape != (n + 1, n):
        raise ConfigError(f"edge scores {s_edge.shape} do not match sentence length {n}")
    label_scores = s_label.copy()
    if TOP_LABEL in labels and len(labels) > 1:
        label_scores[labels.id(TOP_LABEL)] = -np.inf
    best = label_scores.argmax(axis=0)
    edges = []
    for i in range(n + 1):
        for j in range(1, n + 1):
            if i == j or s_edge[i, j - 1] < 0:
                continue
            label = TOP_LABEL if i == ROOT else labels.value(int(best[i, j - 1]))
            edges.append(Edge(i, j, label))
    return SemanticGraph(sentence, frozenset(edges))


# ---------------------------------------------------------------------------
# corpora and batching


def _normalize_corpus(items) -> list[tuple]:
    out = []
    for item in items:
        if len(item) == 2:
            sentence, gold = item
            out.append((tuple(sentence), gold, None))
        else:
            sentence, gold, context = item
            out.append((tuple(sentence), gold, context))
    return out


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
    (sentence, gold, context) items; `heldout` holds semantic items. The
    model is left holding the best checkpoint seen, also when training
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
    data = {task: _normalize_corpus(items) for task, items in corpora.items()
            if (weights[task] > 0 or not multitask)}
    heldout = _normalize_corpus(heldout)
    params = model.parameters()

    result = TrainResult()
    best_snapshot = {name: p.data.copy() for name, p in model.params.items()}
    best_lf = -1.0
    since_improve = 0

    try:
        for epoch in range(1, cfg.max_epochs + 1):
            task_batches = {}
            for task in sorted(data):
                items = data[task]
                order = _shuffle_rng(cfg.seed, epoch, task).permutation(len(items))
                lengths = [len(s) for s, _, _ in items]
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
                    part = functools.reduce(operator.add, [
                        task_loss(s_edge, s_label, gold, model.tasks[task], cfg.label_interp)
                        for (s_edge, s_label), gold
                        in zip(model.forward(sentences, task, rng, contexts), golds)])
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
                best_snapshot = {name: p.data.copy() for name, p in model.params.items()}
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


def parse_semantic(model: ParserModel, sentences: Sequence[Sequence[Token]],
                   contexts: Sequence[np.ndarray | None] | None = None
                   ) -> list[SemanticGraph]:
    """Decode semantic graphs for raw sentences in eval mode.

    Each sentence is decoded before the next is scored, so only one
    sentence's label scores are held at a time.
    """
    labels = model.tasks[SEMANTIC]
    with ad.no_grad():
        return [decode_semantic(s_edge, s_label, labels, sentence)
                for (s_edge, s_label), sentence
                in zip(model.forward(sentences, SEMANTIC, contexts=contexts), sentences)]


def evaluate_semantic(model: ParserModel, corpus: list) -> ScoreReport:
    """Labeled/unlabeled F1 of decoded graphs against (possibly partial) gold."""
    items = _normalize_corpus(corpus)
    predicted = parse_semantic(model, [s for s, _, _ in items], [c for _, _, c in items])
    gold = [g.graph if isinstance(g, PartialGraph) else g for _, g, _ in items]
    return score_graphs(predicted, gold)
