"""Cross-lingual annotation projection through intersected word alignments.

Source-side semantic edges are copied onto target positions wherever both
endpoints carry an alignment link; everything else stays undecided and is
recorded in the partial graph's aligned-set mask so the training loss can
cancel backpropagation for those cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ProjectionError
from .graph import ROOT, Edge, PartialGraph, SemanticGraph, Token


@dataclass(frozen=True)
class IntersectedAlignment:
    """A one-to-one partial map from source to target positions; 0 maps to 0."""

    links: frozenset[tuple[int, int]]

    def __post_init__(self):
        links = frozenset((int(s), int(t)) for s, t in self.links)
        object.__setattr__(self, "links", links)
        sources = [s for s, _ in links]
        targets = [t for _, t in links]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise ProjectionError("intersected alignment must be one-to-one")
        for s, t in links:
            if s < 1 or t < 1:
                raise ProjectionError(f"alignment link ({s},{t}) must be 1-based")
        object.__setattr__(self, "_map", dict(sorted(links)))

    def mapping(self) -> dict[int, int]:
        return dict(self._map)


def intersect_alignments(forward: Iterable[tuple[int, int]],
                         backward: Iterable[tuple[int, int]]) -> IntersectedAlignment:
    """Keep links present in both directions, then enforce one-to-one.

    Any source or target position participating in more than one intersected
    link has all of its links dropped; picking an arbitrary survivor would
    inject noise into the projected data.
    """
    inter = frozenset(forward) & frozenset(backward)
    src_count: dict[int, int] = {}
    tgt_count: dict[int, int] = {}
    for s, t in inter:
        src_count[s] = src_count.get(s, 0) + 1
        tgt_count[t] = tgt_count.get(t, 0) + 1
    kept = frozenset((s, t) for s, t in inter if src_count[s] == 1 and tgt_count[t] == 1)
    return IntersectedAlignment(kept)


def project_graph(source: SemanticGraph, alignment: IntersectedAlignment,
                  target_sentence: Sequence[Token]) -> PartialGraph:
    """Transfer every source edge whose endpoints are both aligned.

    Top edges transfer through the implicit root self-link. The result's
    aligned set is {0} plus all linked target positions; cells touching any
    other position are undecided.
    """
    target_sentence = tuple(target_sentence)
    n = len(target_sentence)
    mapping = alignment.mapping()
    for t in mapping.values():
        if t > n:
            raise ProjectionError(f"alignment target {t} exceeds sentence length {n}")
    projected: dict[tuple[int, int], str] = {}
    for h, d, label in source.sorted_edges():
        th = ROOT if h == ROOT else mapping.get(h)
        td = mapping.get(d)
        if th is None or td is None:
            continue
        cell = (th, td)
        if cell in projected and projected[cell] != label:
            raise ProjectionError(f"conflicting labels projected onto cell {cell}: "
                                  f"{projected[cell]!r} vs {label!r}")
        projected[cell] = label
    aligned = frozenset({ROOT} | set(mapping.values()))
    edges = frozenset(Edge(h, d, l) for (h, d), l in projected.items())
    return PartialGraph(SemanticGraph(target_sentence, edges), aligned)


def density_sample(corpus: Sequence[PartialGraph], size: int, threshold: float,
                   seed: int = 0) -> list[PartialGraph]:
    """Sample half the output below the density threshold and half at or above it.

    Deterministic for a given seed; preserves the corpus order of the
    selected sentences. `size` must be even.
    """
    if size <= 0 or size % 2 != 0:
        raise ProjectionError(f"sample size must be positive and even, got {size}")
    below = [i for i, g in enumerate(corpus) if g.density() < threshold]
    above = [i for i, g in enumerate(corpus) if g.density() >= threshold]
    half = size // 2
    if len(below) < half or len(above) < half:
        raise ProjectionError(
            f"need {half} sentences on each side of density {threshold}, "
            f"found {len(below)} below and {len(above)} at or above")
    rng = np.random.default_rng([seed, 0x5A11])
    pick_below = rng.choice(len(below), size=half, replace=False)
    pick_above = rng.choice(len(above), size=half, replace=False)
    chosen = sorted([below[i] for i in pick_below] + [above[i] for i in pick_above])
    return [corpus[i] for i in chosen]


def heldout_split(corpus: Sequence, fraction: float, seed: int = 0) -> tuple[list, list]:
    """Disjoint (train, heldout) partition with |heldout| = round(fraction * N).

    Both parts must be non-empty; a fraction that rounds to none or all of the
    corpus is an error.
    """
    if not 0 < fraction < 1:
        raise ProjectionError(f"fraction must be in (0,1), got {fraction}")
    n = len(corpus)
    if n == 0:
        raise ProjectionError("cannot split an empty corpus")
    k = round(fraction * n)
    if not 0 < k < n:
        raise ProjectionError(f"a held-out fraction of {fraction} of {n} sentences "
                              f"leaves {'no held-out' if k == 0 else 'no training'} sentences")
    rng = np.random.default_rng([seed, 0x5011])
    held_idx = set(rng.choice(n, size=k, replace=False).tolist())
    train = [corpus[i] for i in range(n) if i not in held_idx]
    heldout = [corpus[i] for i in range(n) if i in held_idx]
    return train, heldout
