"""Labeled/unlabeled F1 scoring and the three result analyses.

Top edges are scored as ordinary edges from the virtual root, so a graph's
edge universe is exactly its edge set. All scores are micro-averaged over
the corpus. `sdpkit analyze` prints one analysis as a tab-separated table
with a header row, and `--out` writes the same text to a file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

from .errors import ScoringError
from .graph import PartialGraph, SemanticGraph, SyntacticTree, as_semantic

# (longest length, label) of each dependency-length bucket, in order
_BUCKET_BOUNDS = ((1, "1"), (2, "2"), (3, "3"), (4, "4"), (9, "5-9"), (float("inf"), ">=10"))


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


def _ratio(num: int, denom: int) -> float:
    return 0.0 if denom == 0 else num / denom


@dataclass(frozen=True)
class ScoreReport:
    """Micro-averaged precision/recall/F1 counts, labeled and unlabeled."""

    labeled_gold: int
    labeled_pred: int
    labeled_correct: int
    unlabeled_gold: int
    unlabeled_pred: int
    unlabeled_correct: int

    @property
    def lp(self) -> float:
        return _ratio(self.labeled_correct, self.labeled_pred)

    @property
    def lr(self) -> float:
        return _ratio(self.labeled_correct, self.labeled_gold)

    @property
    def lf(self) -> float:
        return _f1(self.lp, self.lr)

    @property
    def up(self) -> float:
        return _ratio(self.unlabeled_correct, self.unlabeled_pred)

    @property
    def ur(self) -> float:
        return _ratio(self.unlabeled_correct, self.unlabeled_gold)

    @property
    def uf(self) -> float:
        return _f1(self.up, self.ur)


def _check_aligned_corpora(predicted: Sequence, gold: Sequence, what: str = "predicted"):
    """Refuse corpora of different sizes or sentence lengths; `predicted` may
    hold graphs or trees."""
    if len(predicted) != len(gold):
        raise ScoringError(f"corpus size mismatch: {len(predicted)} {what} "
                           f"vs {len(gold)} gold sentences")
    for i, (p, g) in enumerate(zip(predicted, gold)):
        n_pred, n_gold = as_semantic(p).n, as_semantic(g).n
        if n_pred != n_gold:
            raise ScoringError(f"sentence {i + 1}: length mismatch "
                               f"({n_pred} {what} vs {n_gold} gold)")


def score_graphs(predicted: Sequence[SemanticGraph | PartialGraph],
                 gold: Sequence[SemanticGraph | PartialGraph]) -> ScoreReport:
    """Edge-set F1 over a corpus; labeled requires the label to match too."""
    _check_aligned_corpora(predicted, gold)
    lg = lp_ = lc = ug = up_ = uc = 0
    for p, g in zip(predicted, gold):
        p, g = as_semantic(p), as_semantic(g)
        pe, ge = p.edges, g.edges
        lg += len(ge)
        lp_ += len(pe)
        lc += len(pe & ge)
        pu, gu = p.unlabeled(), g.unlabeled()
        ug += len(gu)
        up_ += len(pu)
        uc += len(pu & gu)
    return ScoreReport(lg, lp_, lc, ug, up_, uc)


def at_decided_cells(predicted: Sequence[SemanticGraph | PartialGraph],
                     gold: Sequence[SemanticGraph | PartialGraph]) -> list[SemanticGraph]:
    """Each predicted graph with only its edges at decided x decided cells of its
    gold graph, the cells the semantic loss reads; plain gold decides every
    cell. `score_graphs` of these against the same gold scores the prediction
    as the loss sees it: an edge at an undecided cell counts for nothing."""
    _check_aligned_corpora(predicted, gold)
    kept = []
    for p, g in zip(predicted, gold):
        p = as_semantic(p)
        if isinstance(g, PartialGraph):
            p = SemanticGraph(p.sentence, frozenset(
                e for e in p.edges if e.head in g.aligned and e.dependent in g.aligned))
        kept.append(p)
    return kept


@dataclass(frozen=True)
class BucketStat:
    predicted: int
    correct: int

    @property
    def precision(self) -> float:
        return _ratio(self.correct, self.predicted)


def length_buckets(predicted: Sequence[SemanticGraph | PartialGraph],
                   gold: Sequence[SemanticGraph | PartialGraph]) -> dict[str, BucketStat]:
    """Labeled precision of predicted non-top edges, grouped by their length
    abs(head - dependent) into `_BUCKET_BOUNDS` (McDonald & Nivre 2007).

    The buckets that hold a predicted edge come back in table order.
    """
    if len(predicted) == 0:
        raise ScoringError("cannot bucket an empty corpus")
    _check_aligned_corpora(predicted, gold)
    counts = {label: [0, 0] for _, label in _BUCKET_BOUNDS}
    for p, g in zip(predicted, gold):
        ge = as_semantic(g).edges
        for edge in as_semantic(p).non_top_edges():
            length = abs(edge.head - edge.dependent)
            stat = counts[next(label for longest, label in _BUCKET_BOUNDS if length <= longest)]
            stat[0] += 1
            stat[1] += edge in ge
    return {b: BucketStat(*c) for b, c in counts.items() if c[0]}


def _incoming_pairs(graph: SemanticGraph | PartialGraph) -> list[set]:
    """The (head, label) pairs of each position's incoming edges, by position."""
    graph = as_semantic(graph)
    incoming = [set() for _ in range(graph.n + 1)]
    for h, d, l in graph.edges:
        incoming[d].add((h, l))
    return incoming


@dataclass(frozen=True)
class HeadMatchStats:
    """Head match/mismatch rates within one improvement set; None when empty."""

    tokens: int
    match_rate: float | None
    mismatch_rate: float | None


def head_match_stats(gold: Sequence[SemanticGraph | PartialGraph],
                     trees: Sequence[SyntacticTree],
                     predictions_a: Sequence[SemanticGraph | PartialGraph],
                     predictions_b: Sequence[SemanticGraph | PartialGraph],
                     ) -> dict[str, dict[str, HeadMatchStats]]:
    """Syntactic head agreement inside the sets of tokens one system got right.

    A token is "a_improved" when system A predicts its incoming semantic
    edges exactly and system B does not (and vice versa). Within each set we
    report the fraction of tokens whose syntactic head is also a gold
    semantic head (match), and the fraction with a gold semantic edge running
    opposite to a syntactic edge (mismatch). Keyed by "labeled"/"unlabeled".
    """
    _check_aligned_corpora(predictions_a, gold)
    _check_aligned_corpora(predictions_b, gold)
    _check_aligned_corpora(trees, gold, "tree")
    # [tokens, matches, mismatches] per mode and improvement set
    counts = {mode: {"a_improved": [0, 0, 0], "b_improved": [0, 0, 0]}
              for mode in ("labeled", "unlabeled")}
    for g, tree, pa, pb in zip(gold, trees, predictions_a, predictions_b):
        incoming = [_incoming_pairs(graph) for graph in (g, pa, pb)]
        for j in range(1, len(incoming[0])):
            labeled = [pairs[j] for pairs in incoming]  # gold, A, B
            unlabeled = [{h for h, _ in pairs} for pairs in labeled]
            sem_heads = unlabeled[0]
            match = tree.head_of(j) in sem_heads
            mismatch = any(h >= 1 and tree.head_of(h) == j for h in sem_heads)
            for mode, (want, a, b) in (("labeled", labeled), ("unlabeled", unlabeled)):
                if (a == want) != (b == want):
                    c = counts[mode]["a_improved" if a == want else "b_improved"]
                    c[0] += 1
                    c[1] += match
                    c[2] += mismatch
    return {mode: {key: HeadMatchStats(c[0],
                                       None if c[0] == 0 else c[1] / c[0],
                                       None if c[0] == 0 else c[2] / c[0])
                   for key, c in sets.items()}
            for mode, sets in counts.items()}


def label_contribution(predictions_multitask: Sequence[SemanticGraph | PartialGraph],
                       predictions_single: Sequence[SemanticGraph | PartialGraph],
                       gold: Sequence[SemanticGraph | PartialGraph],
                       trees: Sequence[SyntacticTree]) -> dict[str, float]:
    """Attribute each multitask-only correct edge to its dependent's deprel.

    Counts gold edges predicted by the multitask system but missed by the
    single-task one, groups them by the dependent token's syntactic relation,
    and returns a percentage distribution (sums to 100 when non-empty).
    """
    _check_aligned_corpora(predictions_multitask, gold)
    _check_aligned_corpora(predictions_single, gold)
    _check_aligned_corpora(trees, gold, "tree")
    counts: dict[str, int] = {}
    total = 0
    for pm, ps, g, tree in zip(predictions_multitask, predictions_single, gold, trees):
        gg = as_semantic(g)
        improved = (gg.edges & as_semantic(pm).edges) - as_semantic(ps).edges
        for _, d, _ in sorted(improved):
            deprel = tree.deprel_of(d)
            counts[deprel] = counts.get(deprel, 0) + 1
            total += 1
    return {rel: 100.0 * c / total for rel, c in sorted(counts.items())}


def format_report(report: ScoreReport, decided_lf: float) -> str:
    """Machine-parsable key=value lines followed by a small aligned table; the
    first line ends with `decided_lf`, the labeled F1 at decided cells alone."""
    kv = " ".join(f"{k}={getattr(report, k):.6f}" for k in ("lp", "lr", "lf", "up", "ur", "uf"))
    kv += f" decided_lf={decided_lf:.6f}"
    counts = " ".join(f"{f.name}={getattr(report, f.name)}" for f in fields(report))
    rows = [("", "P", "R", "F1"),
            ("labeled", f"{report.lp:.4f}", f"{report.lr:.4f}", f"{report.lf:.4f}"),
            ("unlabeled", f"{report.up:.4f}", f"{report.ur:.4f}", f"{report.uf:.4f}")]
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    table = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                      for row in rows)
    return f"{kv}\n{counts}\n{table}"
