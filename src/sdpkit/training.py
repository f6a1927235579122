"""Loss construction, decoding, minibatch scheduling, and the training loops.

The semantic edge loss is a sigmoid cross-entropy summed over decided cells
only: undecided cells are multiplied by a zero mask, which cancels
backpropagation for those directions exactly. The label loss is a softmax
cross-entropy gathered at decided gold-edge cells. The syntactic auxiliary
task uses per-dependent softmaxes over candidate heads. The scorer scores
every cell; which cells can be edges at all (inside the sentence and off the
diagonal) is decided here, by `edge_cells`, for both losses and the decoder.
Within a task the two losses are interpolated by `label_interp`. In multitask
mode the syntactic loss is scaled by `syntactic_weight` and the semantic loss
by one minus it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, TrainingDiverged
from .evaluation import ScoreReport, at_decided_cells, score_graphs
from .graph import (ROOT, TOP_LABEL, Edge, PartialGraph, SemanticGraph,
                    SyntacticTree, Token, as_partial)
from .network import SEMANTIC, SYNTACTIC, ParserModel, Vocab

_TASK_CODE = {SEMANTIC: 0, SYNTACTIC: 1}

# Head-softmax score of a cell that cannot be an edge (see `edge_cells`).
NEG_SCORE = -1e9

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
        # Adam divides by 1 - beta1^t and 1 - beta2^t, and by eps where sqrt(v) is 0
        if not (self.lr > 0.0 and 0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0
                and self.eps > 0.0):
            raise ConfigError(f"optimizer settings need lr > 0, beta1 and beta2 in [0,1) and "
                              f"eps > 0; got lr={self.lr}, beta1={self.beta1}, "
                              f"beta2={self.beta2}, eps={self.eps}")
        if not 0.0 < self.label_interp < 1.0:
            raise ConfigError("label_interp must be in (0,1)")
        if not 0.0 <= self.syntactic_weight <= 1.0:
            raise ConfigError("syntactic_weight must be in [0,1]")
        if self.token_budget < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ConfigError("token_budget/max_epochs must be >= 1 and patience >= 0")


# ---------------------------------------------------------------------------
# losses


def edge_cells(sizes: Sequence[int]) -> np.ndarray:
    """(B, T+1, T) 0/1 mask of the score cells that can be edges, T the longest.

    Cell [b, i, j-1] (head i, dependent j) is 1 iff i and j both lie in
    sentence b and i != j; the padding and the self-loop diagonal are 0. It
    is the candidate set of `decode_semantic`, a factor of `semantic_loss`'s
    mask, and the cells `syntactic_loss`'s head softmax does not mask.
    """
    sizes = np.asarray(sizes)
    longest = sizes.max()
    n = sizes[:, None, None]
    head = np.arange(longest + 1)[:, None]
    dep = np.arange(1, longest + 1)
    return ((head <= n) & (dep <= n) & (head != dep)).astype(np.float64)


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
    order. Only decided x decided cells among `edge_cells` count: every other
    cell (undecided, on the self-loop diagonal, or in the padding of a
    sentence shorter than the longest) contributes exactly zero to the loss
    and to every gradient. A `PartialGraph` has gold edges at decided cells
    only, so every gold edge is a target.
    """
    golds = [as_partial(g) for g in golds]
    sizes = [gold.graph.n for gold in golds]
    _check_scores(s_edge, sizes)
    decided = np.zeros(s_edge.shape[:2])  # (B, T+1): 1 at each aligned position
    for b, gold in enumerate(golds):
        decided[b, list(gold.aligned)] = 1.0
    mask = edge_cells(sizes) * decided[:, :, None] * decided[:, None, 1:]
    edges = [(b, h, d - 1, labels.id(label))  # (sentence, head, dependent - 1, label id)
             for b, gold in enumerate(golds) for h, d, label in gold.graph.sorted_edges()]
    b, h, d, ids = np.array(edges, dtype=np.int64).reshape(-1, 4).T
    targets = np.zeros(s_edge.shape)
    targets[b, h, d] = 1.0

    edge_loss = ad.sum_all(ad.mul(ad.sigmoid_cross_entropy(s_edge, targets),
                                  ad.constant(mask)))
    if edges:
        label_loss = ad.sum_all(ad.softmax_cross_entropy(ad.pick_cells(s_label, b, h, d), ids))
    else:
        label_loss = ad.constant(0.0)
    return ad.add(ad.scale(label_loss, label_interp), ad.scale(edge_loss, 1.0 - label_interp))


def syntactic_loss(s_edge: Tensor, s_label: Tensor, golds: Sequence[SyntacticTree],
                   labels: Vocab, label_interp: float = 0.5) -> Tensor:
    """Head-selection softmax per token plus label softmax at the gold head, summed
    over a batch. Cells outside `edge_cells` score `NEG_SCORE` in the head softmax,
    so each softmax is exact over its own sentence's candidate heads, whatever the
    scores on the diagonal and the padding; padded dependents carry a zero loss mask."""
    sizes = [gold.n for gold in golds]
    _check_scores(s_edge, sizes)
    valid = edge_cells(sizes)
    s_edge = ad.add(ad.mul(s_edge, ad.constant(valid)), ad.constant((1.0 - valid) * NEG_SCORE))
    rows, steps, longest = s_edge.shape
    real = np.arange(longest) < np.array(sizes)[:, None]
    head_ids = np.zeros((rows, longest), dtype=np.int64)
    head_ids[real] = [h for gold in golds for h in gold.heads]
    logits = ad.reshape(ad.transpose(s_edge, (0, 2, 1)), (rows * longest, steps))
    head_loss = ad.sum_all(ad.mul(ad.softmax_cross_entropy(logits, head_ids.reshape(-1)),
                                  ad.constant(real.reshape(-1))))
    b, d = np.nonzero(real)
    picked = ad.pick_cells(s_label, b, head_ids[b, d], d)
    deprel_ids = np.array([labels.id(r) for gold in golds for r in gold.deprels], dtype=np.int64)
    label_loss = ad.sum_all(ad.softmax_cross_entropy(picked, deprel_ids))
    return ad.add(ad.scale(label_loss, label_interp), ad.scale(head_loss, 1.0 - label_interp))


# ---------------------------------------------------------------------------
# decoding


def decode_semantic(s_edge: np.ndarray, s_label: np.ndarray, labels: Vocab,
                    sentence: Sequence[Token]) -> SemanticGraph:
    """Sign-function decoding, repaired where it would leave a directed cycle.

    Takes one sentence's score arrays, edge (n+1, n) and label (|L|, n+1, n).
    The candidates are the `edge_cells` whose score is >= 0, the edges of
    Dozat & Manning's sign decoding. They are added in descending score, ties
    by head and then by dependent, and an edge is skipped if its head is
    already reachable from its dependent; root edges never close a cycle. So
    an acyclic sign decode is the result as it stands, and a cyclic one loses
    only the edges that would close a cycle at their turn. The repair departs
    from sign decoding so that every decoded graph can be written: `write_sdp`
    rejects cycles, as gold SDP graphs have none.
    Root-row edges become tops (label TOP). Other edges take the highest
    scoring non-TOP label; exact ties go to the lowest label index in the
    vocabulary's canonical (sorted) order.
    """
    sentence = tuple(sentence)
    n = len(sentence)
    if s_edge.shape != (n + 1, n):
        raise ConfigError(f"edge scores {s_edge.shape} do not match sentence length {n}")
    heads, deps = np.nonzero((s_edge >= 0) & (edge_cells([n])[0] > 0))
    kept = _acyclic_greedy(s_edge[heads, deps], heads, deps + 1, n)
    heads, deps = heads[kept], deps[kept]
    label_scores = s_label[:, heads, deps]
    if TOP_LABEL in labels:
        label_scores[labels.id(TOP_LABEL)] = -np.inf
    best = label_scores.argmax(axis=0)
    names = labels.items
    edges = frozenset(Edge(i, j, TOP_LABEL if i == ROOT else names[k])
                      for i, j, k in zip(heads.tolist(), (deps + 1).tolist(), best.tolist()))
    return SemanticGraph(sentence, edges)


def _acyclic_greedy(scores: np.ndarray, heads: np.ndarray, deps: np.ndarray,
                    n: int) -> list[int]:
    """Indices k of the candidate edges heads[k] -> deps[k], scored `scores`,
    that the repair of `decode_semantic` keeps. Bit v of `reach[u]` says that
    v is reachable from u, which includes u itself."""
    reach = [1 << v for v in range(n + 1)]
    heads_of, deps_of = heads.tolist(), deps.tolist()
    kept = []
    for k in np.lexsort((deps, heads, -scores)).tolist():
        h, d = heads_of[k], deps_of[k]
        if h != ROOT and not reach[h] >> d & 1:  # else h -> d adds no reachability
            if reach[d] >> h & 1:
                continue  # d already reaches h, so h -> d would close a cycle
            targets = reach[d]  # every node that reaches h now reaches these too
            reach = [r | targets if r >> h & 1 else r for r in reach]
        kept.append(k)
    return kept


# ---------------------------------------------------------------------------
# corpora and batching


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


def _steps(task_batches: dict[str, list[list[int]]], combined: bool
           ) -> list[list[tuple[str, int]]]:
    """An epoch's optimizer steps, each a list of (task, minibatch index) pairs.

    Alternating: one minibatch per step, the task queues interleaved by their
    midpoints (minibatch k of a queue of m at (k + 0.5) / m, ties by task
    name). Combined: step k sums minibatch k of every task, a shorter queue
    cycling. With one queue both are its minibatches in order.
    """
    if combined:
        longest = max(len(batches) for batches in task_batches.values())
        return [[(task, k % len(batches)) for task, batches in sorted(task_batches.items())]
                for k in range(longest)]
    keyed = sorted(((k + 0.5) / len(batches), task, k)
                   for task, batches in task_batches.items() for k in range(len(batches)))
    return [[(task, k)] for _, task, k in keyed]


@dataclass
class TrainResult:
    """One `metrics` entry per epoch run; everything else here is read from it."""

    metrics: list[dict] = field(default_factory=list)

    @property
    def best_epoch(self) -> int:
        """The first epoch with the highest held-out LF."""
        return max(self.metrics, key=lambda entry: entry["heldout_lf"])["epoch"]

    @property
    def best_lf(self) -> float:
        return max(entry["heldout_lf"] for entry in self.metrics)

    @property
    def epochs_run(self) -> int:
        return len(self.metrics)


def _shuffle_rng(seed: int, epoch: int, task: str) -> np.random.Generator:
    return np.random.default_rng([seed, 0xB41C, epoch, _TASK_CODE[task]])


def _dropout_rng(seed: int, epoch: int, task: str, batch: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0xD20F, epoch, _TASK_CODE[task], batch])


def train(model: ParserModel, corpora: dict[str, list], heldout: list,
          cfg: TrainConfig, metrics_out: TextIO | None = None) -> TrainResult:
    """Train (single- or multi-task) with early stopping on heldout labeled F1.

    The best epoch is the first with the highest held-out LF, and training
    stops after `cfg.patience` epochs without a higher one. `corpora` maps
    task ids to lists of (sentence, gold) pairs; `heldout` holds semantic
    pairs. Each corpus and the held-out list must be non-empty. Once an
    epoch has completed, the model is left holding the best epoch's
    parameters, also when training stops by raising (such as
    `TrainingDiverged`, raised before its step's update): the flat
    `model.param_data` is copied on each best epoch another can follow, and
    back at the end if a step moved it since. A raise inside epoch 1 leaves
    the parameters as the last finished step left them. Adam's moments and
    step counts live in one `ad.Adam` that the call makes and drops on return
    or raise, so a second `train` on the same model takes the steps that
    `save`, `load` and `train` would. In multitask mode the semantic weight is
    `1 - cfg.syntactic_weight`, and a task with weight zero is skipped
    entirely, so a multitask run with a zero syntactic weight follows the
    single-task trajectory exactly.
    """
    if not corpora:
        raise ConfigError("at least one task corpus is required")
    unknown = set(corpora) - set(model.tasks)
    if unknown:
        raise ConfigError(f"corpora given for tasks the model lacks: {sorted(unknown)}")
    multitask = len(corpora) > 1
    weights = {SEMANTIC: 1.0 - cfg.syntactic_weight if multitask else 1.0,
               SYNTACTIC: cfg.syntactic_weight if multitask else 1.0}
    for what, items in [*corpora.items(), ("heldout", heldout)]:
        if not items:
            raise ConfigError(f"{what} corpus must be non-empty")
    data = {task: items for task, items in corpora.items() if weights[task] > 0}

    result = TrainResult()
    # written in place on a best epoch another can follow, so its pages are mapped
    # only then; `restore`: it holds the best epoch and a step has moved the model since
    best_snapshot, restore = np.empty_like(model.param_data), False
    lengths = {task: [len(sentence) for sentence, _ in items] for task, items in data.items()}
    adam = ad.Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)

    try:
        for epoch in range(1, cfg.max_epochs + 1):
            task_batches = {}
            for task in sorted(data):
                order = _shuffle_rng(cfg.seed, epoch, task).permutation(len(data[task]))
                task_batches[task] = pack_minibatches(lengths[task], order.tolist(),
                                                      cfg.token_budget)

            loss_sums = {task: 0.0 for task in data}
            token_sums = {task: 0 for task in data}
            for step_index, step in enumerate(_steps(task_batches, cfg.combined_steps)):
                total: Tensor | None = None
                for task, batch_index in step:
                    batch = [data[task][idx] for idx in task_batches[task][batch_index]]
                    sentences, golds = zip(*batch)
                    rng = _dropout_rng(cfg.seed, epoch, task, batch_index)
                    task_loss = semantic_loss if task == SEMANTIC else syntactic_loss
                    s_edge, s_label = model.forward(sentences, task, rng)
                    part = task_loss(s_edge, s_label, golds, model.tasks[task],
                                     cfg.label_interp)
                    tokens = sum(len(sentence) for sentence in sentences)
                    loss_sums[task] += float(part.data)
                    token_sums[task] += tokens
                    scaled = ad.scale(part, weights[task] / tokens)
                    total = scaled if total is None else ad.add(total, scaled)
                value = float(total.data)
                if not math.isfinite(value):
                    raise TrainingDiverged(f"loss became {value} at epoch {epoch}, "
                                           f"step {step_index + 1}")
                restore = epoch > 1  # the snapshot holds the best earlier epoch
                ad.adam_step(total, adam)

            report, decided = evaluate_semantic(model, heldout)
            entry = {"epoch": epoch}
            for task in sorted(data):
                entry[f"loss_{task}"] = loss_sums[task] / token_sums[task]
            entry["heldout_lf"] = report.lf
            entry["heldout_uf"] = report.uf
            entry["heldout_decided_lf"] = decided.lf  # reported; the best epoch reads heldout_lf
            line = " ".join(f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                            for k, v in entry.items())
            result.metrics.append(entry)
            if metrics_out is not None:
                metrics_out.write(line + "\n")
            restore = result.best_epoch != epoch
            if not restore and epoch < cfg.max_epochs:
                np.copyto(best_snapshot, model.param_data)
            elif epoch - result.best_epoch > cfg.patience:
                break
    finally:
        if restore:
            np.copyto(model.param_data, best_snapshot)
        adam = None  # a raise keeps this frame, and so its locals, alive in the traceback
    return result


# ---------------------------------------------------------------------------
# inference helpers


def _chunks(sizes: Sequence[int], budget: int) -> list[range]:
    """Consecutive runs of sentences whose padded size (count times longest)
    stays within `budget`; a longer sentence is a run of its own."""
    runs, start = [], 0
    for i in range(1, len(sizes)):
        if (i - start + 1) * max(sizes[start:i + 1]) > budget:
            runs.append(range(start, i))
            start = i
    if sizes:
        runs.append(range(start, len(sizes)))
    return runs


def parse_semantic(model: ParserModel, sentences: Sequence[Sequence[Token]]
                   ) -> list[SemanticGraph]:
    """Decode semantic graphs for raw sentences in eval mode.

    Sentences go to the model in input order, in runs of at most
    `PARSE_BATCH_TOKENS` padded tokens (sentences times the longest); each
    run is one `ParserModel.forward` call, decoded before the next is scored.
    """
    labels = model.tasks[SEMANTIC]
    graphs = []
    with ad.no_grad():
        for run in _chunks([len(s) for s in sentences], PARSE_BATCH_TOKENS):
            part = [sentences[i] for i in run]
            s_edge, s_label = model.forward(part, SEMANTIC)
            for b, sentence in enumerate(part):
                n = len(sentence)
                graphs.append(decode_semantic(s_edge.data[b, :n + 1, :n],
                                              s_label.data[b, :, :n + 1, :n], labels, sentence))
    return graphs


def evaluate_semantic(model: ParserModel, corpus: list) -> tuple[ScoreReport, ScoreReport]:
    """Labeled/unlabeled F1 of decoded graphs against (possibly partial) gold,
    `corpus` a list of (sentence, gold) pairs: of every predicted edge, and of
    those at the gold's decided cells only (`evaluation.at_decided_cells`)."""
    predicted = parse_semantic(model, [sentence for sentence, _ in corpus])
    gold = [g for _, g in corpus]
    return score_graphs(predicted, gold), score_graphs(at_decided_cells(predicted, gold), gold)
