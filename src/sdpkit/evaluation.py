"""Labeled/unlabeled F1 scoring and the three result analyses.

Top edges are scored as ordinary edges from the virtual root, so a graph's
edge universe is exactly its edge set. All scores are micro-averaged over
the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .errors import ScoringError
from .graph import (PartialGraph, SemanticGraph, SyntacticTree, as_semantic,
                    dependency_length, length_bucket)


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


@dataclass(frozen=True)
class BucketStat:
    predicted: int
    correct: int

    @property
    def precision(self) -> float:
        return _ratio(self.correct, self.predicted)


def length_buckets(predicted: Sequence[SemanticGraph | PartialGraph],
                   gold: Sequence[SemanticGraph | PartialGraph]) -> dict[str, BucketStat]:
    """Labeled precision of predicted non-top edges, grouped by surface distance.

    Buckets with no predicted edges are absent from the result.
    """
    if len(predicted) == 0:
        raise ScoringError("cannot bucket an empty corpus")
    _check_aligned_corpora(predicted, gold)
    counts: dict[str, list[int]] = {}
    for p, g in zip(predicted, gold):
        ge = as_semantic(g).edges
        for edge in as_semantic(p).non_top_edges():
            bucket = length_bucket(dependency_length(edge.head, edge.dependent))
            stat = counts.setdefault(bucket, [0, 0])
            stat[0] += 1
            stat[1] += int(edge in ge)
    return {b: BucketStat(c[0], c[1]) for b, c in counts.items()}


def _incoming(graph: SemanticGraph, j: int, labeled: bool) -> frozenset:
    if labeled:
        return frozenset((h, l) for h, d, l in graph.edges if d == j)
    return frozenset(h for h, d, _ in graph.edges if d == j)


def _token_correct(pred: SemanticGraph, gold: SemanticGraph, j: int, labeled: bool) -> bool:
    return _incoming(pred, j, labeled) == _incoming(gold, j, labeled)


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
    result: dict[str, dict[str, HeadMatchStats]] = {}
    for mode in ("labeled", "unlabeled"):
        labeled = mode == "labeled"
        sets: dict[str, list[int]] = {"a_improved": [0, 0, 0], "b_improved": [0, 0, 0]}
        for g, tree, pa, pb in zip(gold, trees, predictions_a, predictions_b):
            gg = as_semantic(g)
            sem_heads = {j: {h for h, d, _ in gg.edges if d == j} for j in range(1, gg.n + 1)}
            for j in range(1, gg.n + 1):
                ok_a = _token_correct(as_semantic(pa), gg, j, labeled)
                ok_b = _token_correct(as_semantic(pb), gg, j, labeled)
                if ok_a == ok_b:
                    continue
                key = "a_improved" if ok_a else "b_improved"
                match = tree.head_of(j) in sem_heads[j]
                mismatch = any(h >= 1 and tree.head_of(h) == j for h in sem_heads[j])
                sets[key][0] += 1
                sets[key][1] += int(match)
                sets[key][2] += int(mismatch)
        result[mode] = {
            key: HeadMatchStats(c[0],
                                None if c[0] == 0 else c[1] / c[0],
                                None if c[0] == 0 else c[2] / c[0])
            for key, c in sets.items()
        }
    return result


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
    if total == 0:
        return {}
    return {rel: 100.0 * c / total for rel, c in sorted(counts.items())}


def format_report(report: ScoreReport) -> str:
    """Machine-parsable key=value lines followed by a small aligned table."""
    kv = " ".join(f"{k}={getattr(report, k):.6f}" for k in ("lp", "lr", "lf", "up", "ur", "uf"))
    counts = " ".join(f"{f.name}={getattr(report, f.name)}" for f in fields(report))
    rows = [("", "P", "R", "F1"),
            ("labeled", f"{report.lp:.4f}", f"{report.lr:.4f}", f"{report.lf:.4f}"),
            ("unlabeled", f"{report.up:.4f}", f"{report.ur:.4f}", f"{report.uf:.4f}")]
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    table = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                      for row in rows)
    return f"{kv}\n{counts}\n{table}"


def write_series(pairs: Iterable[tuple[str, float]], stream):
    """Plain two-column data series for external plotting."""
    for key, value in pairs:
        stream.write(f"{key}\t{value:.6f}\n")
