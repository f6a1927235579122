"""Deterministic synthetic parallel corpora for desk-scale validation.

The generator builds a small artificial language whose semantic structure is
predictable from parts of speech and surface distance, then derives from each
target sentence: a gold semantic graph (acyclic, unique top), a gold
syntactic tree whose heads agree with the semantic heads at a configurable
rate, a parallel source sentence with gold source annotations, and Pharaoh
alignment files in both directions whose intersection is one-to-one. Source
edges carry configurable label noise so that projections are imperfect, as
real projected data would be.

Every draw comes from one `numpy.random.Generator`, seeded from the config's
seed, in the fixed order that `_generate_sentence` lists, so equal configs
give byte-identical corpora. A weighted pick draws exactly one uniform, as
`Generator.choice` does (`_weighted_pick`), and a block of k uniforms is the
same draw as k single ones. A draw added, dropped or moved changes every
later sentence, so a new generator setting must draw nothing while it is off.
"""

from __future__ import annotations

import os
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import SynthError
from .formats import (AlignmentFile, SdpDocument, atomic_open, write_alignments, write_conllu,
                      write_sdp)
from .graph import ROOT, TOP_LABEL, Edge, SemanticGraph, SyntacticTree, Token

_POS_CLASSES = ("N", "V", "J", "R")
_LEXICON = {
    "N": [f"n{i}" for i in range(1, 13)],
    "V": [f"v{i}" for i in range(1, 9)],
    "J": [f"j{i}" for i in range(1, 7)],
    "R": [f"r{i}" for i in range(1, 5)],
}

# cumulative POS distribution, normalised as `Generator.choice` does it
_POS_CDF = np.cumsum([0.45, 0.2, 0.2, 0.15])
_POS_CDF /= _POS_CDF[-1]

# The language's semantic labels and syntactic relations
DEFAULT_LABELS = ("ACT-arg", "PAT-arg", "ADDR-arg", "RSTR", "APP", "TWHEN")
DEFAULT_DEPRELS = ("root", "nsubj", "obj", "nmod", "amod", "advmod", "conj")


@dataclass(frozen=True)
class SynthConfig:
    sentences: int
    min_len: int = 5
    max_len: int = 12
    density: float = 0.8
    agreement: float = 0.8
    edge_noise: float = 0.0
    reentrancy: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.sentences < 1:
            raise SynthError("sentences must be >= 1")
        if not 1 <= self.min_len <= self.max_len:
            raise SynthError(f"invalid length range [{self.min_len},{self.max_len}]")
        for name in ("density", "agreement", "edge_noise", "reentrancy"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SynthError(f"{name} must be in [0,1], got {rate}")


@dataclass(frozen=True)
class SynthCorpus:
    source: SdpDocument
    target_sentences: tuple[tuple[Token, ...], ...]
    target_gold: SdpDocument
    trees: tuple[SyntacticTree, ...]
    forward: AlignmentFile
    backward: AlignmentFile


def _pos_pair_table(names: Sequence[str], skip: int) -> dict[tuple[str, str], str]:
    """The name for each (head, dependent) pair of POS classes: with the classes
    numbered in `_POS_CLASSES` order, `names[skip + (4 * head + dependent) %
    (len(names) - skip)]`."""
    return {(h, d): names[skip + (4 * i + k) % (len(names) - skip)]
            for i, h in enumerate(_POS_CLASSES) for k, d in enumerate(_POS_CLASSES)}


_LABEL_OF = _pos_pair_table(DEFAULT_LABELS, 0)
_DEPREL_OF = _pos_pair_table(DEFAULT_DEPRELS, 1)  # DEFAULT_DEPRELS[0] is "root"


def _weighted_pick(rng: np.random.Generator, weights: Sequence[float]) -> int:
    """Index i drawn with probability `weights[i] / sum(weights)`, from one uniform.

    Same result and generator state as `rng.choice(len(weights), p=weights /
    weights.sum())`, by the same arithmetic: numpy's sum (which adds 8 or more
    terms pairwise, unlike Python's `sum`), the cumulative sum of the
    normalised weights rescaled by its last entry, and the first entry above
    `rng.random()`. It skips only the validation of p. A single weight still
    uses up a uniform.
    """
    total = float(np.add.reduce(np.array(weights)))
    cdf = list(accumulate([w / total for w in weights]))
    return bisect_right([c / cdf[-1] for c in cdf], rng.random())


def _sample_pos_sequence(rng: np.random.Generator, n: int) -> list[str]:
    # n uniforms searched in the cumulative POS distribution, as
    # `rng.choice(4, size=n, p=...)` draws them
    codes = _POS_CDF.searchsorted(rng.random(n), side="right").tolist()
    seq = [_POS_CLASSES[i] for i in codes]
    if "V" not in seq:
        seq[int(rng.integers(n))] = "V"
    return seq


def _sample_order(rng: np.random.Generator, n: int, top: int) -> list[int]:
    """Tokens by rank: the top, then surface order with occasional local swaps."""
    order = [top] + [j for j in range(1, n + 1) if j != top]
    for k, u in enumerate(rng.random(max(n - 2, 0)).tolist(), start=1):
        if u < 0.15:
            order[k], order[k + 1] = order[k + 1], order[k]
    return order


def _generate_sentence(rng: np.random.Generator, cfg: SynthConfig, sid: str):
    """One sentence's target tokens, gold graph, tree, source graph, and the
    backward and forward alignment links.

    The draws, in order: the length; n uniforms for the POS classes (and an
    integer if no verb came up); an integer per form; n - 2 uniforms for the
    rank swaps; per non-top token in rank order, a pick of its head among the
    lower ranks, then from rank 2 a uniform for reentrancy and on a hit a pick
    of a second head; per non-top token in surface order, a uniform for
    agreement and on a miss a pick among the other lower ranks; n uniforms for
    the alignments; per unaligned token a uniform and on a hit an integer for
    a noise link; with `edge_noise`, per sorted non-top source edge a uniform
    and on a hit an integer for the label shift. Each pick draws one uniform.
    """
    n = int(rng.integers(cfg.min_len, cfg.max_len + 1))
    pos = _sample_pos_sequence(rng, n)
    forms = [_LEXICON[p][int(rng.integers(len(_LEXICON[p])))] for p in pos]
    tokens = tuple(Token(j + 1, forms[j], forms[j], pos[j]) for j in range(n))

    top = pos.index("V") + 1
    order = _sample_order(rng, n, top)
    rank = [0] * (n + 1)
    for r, j in enumerate(order):
        rank[j] = r
    verb = [0.0] + [2.0 if p == "V" else 1.0 for p in pos]

    def weights(j, candidates):
        return [verb[c] / (1.0 + abs(j - c)) ** 2 for c in candidates]

    edges = [Edge(ROOT, top, TOP_LABEL)]
    sem_heads: dict[int, list[int]] = {}  # per non-top token, the primary head first
    lower = [top]  # the tokens of lower rank than j, in surface order
    for r in range(1, n):
        j = order[r]
        w = weights(j, lower)
        i = _weighted_pick(rng, w)
        head = lower[i]
        sem_heads[j] = [head]
        edges.append(Edge(head, j, _LABEL_OF[pos[head - 1], pos[j - 1]]))
        if r >= 2 and rng.random() < cfg.reentrancy:
            second = (lower[:i] + lower[i + 1:])[_weighted_pick(rng, w[:i] + w[i + 1:])]
            sem_heads[j].append(second)
            edges.append(Edge(second, j, _LABEL_OF[pos[second - 1], pos[j - 1]]))
        insort(lower, j)

    heads = []
    deprels = []
    for j in range(1, n + 1):
        if j == top:
            heads.append(ROOT)
            deprels.append("root")
            continue
        head = sem_heads[j][0]
        if rng.random() >= cfg.agreement:
            others = [c for c in range(1, n + 1)
                      if rank[c] < rank[j] and c not in sem_heads[j]]
            if others:
                head = others[_weighted_pick(rng, weights(j, others))]
        heads.append(head)
        deprels.append(_DEPREL_OF[pos[head - 1], pos[j - 1]])
    tree = SyntacticTree(tokens, tuple(heads), tuple(deprels), (f"# sent_id = {sid}",))

    aligned = [j for j, u in enumerate(rng.random(n).tolist(), start=1) if u < cfg.density]
    links = frozenset((j, j) for j in aligned)
    noise_links = set()
    for j in sorted(set(range(1, n + 1)).difference(aligned)):
        if rng.random() < 0.25:
            other = int(rng.integers(1, n + 1))
            if other != j:
                noise_links.add((j, other))  # forward-only; intersection removes it

    source_tokens = tuple(Token(j + 1, "x" + forms[j], "x" + forms[j], pos[j])
                          for j in range(n))
    decided = {ROOT, *aligned}
    source_edges = []
    for h, d, label in sorted(edges):
        if h in decided and d in decided:
            if cfg.edge_noise > 0 and h != ROOT and rng.random() < cfg.edge_noise:
                shifted = 1 + int(rng.integers(len(DEFAULT_LABELS) - 1))
                label = DEFAULT_LABELS[(DEFAULT_LABELS.index(label) + shifted)
                                       % len(DEFAULT_LABELS)]
            source_edges.append(Edge(h, d, label))

    gold = SemanticGraph(tokens, frozenset(edges))
    source = SemanticGraph(source_tokens, frozenset(source_edges))
    return tokens, gold, tree, source, links, links | noise_links


def synth_corpus(cfg: SynthConfig) -> SynthCorpus:
    """Generate the full parallel corpus; byte-identical for equal configs."""
    rng = np.random.default_rng([cfg.seed, 0x517F])
    sources = []
    targets = []
    golds = []
    trees = []
    fwd = []
    bwd = []
    for k in range(cfg.sentences):
        sid = f"s{k + 1:05d}"
        tokens, gold, tree, source, links, fwd_links = _generate_sentence(rng, cfg, sid)
        targets.append(tokens)
        golds.append((sid, gold))
        trees.append(tree)
        sources.append((sid, source))
        fwd.append(fwd_links)
        bwd.append(links)
    return SynthCorpus(SdpDocument(tuple(sources)), tuple(targets),
                       SdpDocument(tuple(golds)), tuple(trees),
                       AlignmentFile(tuple(fwd)), AlignmentFile(tuple(bwd)))


CORPUS_FILES = ("source.sdp", "target.gold.sdp", "target.conllu",
                "forward.align", "backward.align")


def write_corpus(corpus: SynthCorpus, outdir: str) -> list[str]:
    """Write the five corpus files into a directory; returns their paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, name) for name in CORPUS_FILES]
    with atomic_open(paths[0]) as f:
        write_sdp(corpus.source, f)
    with atomic_open(paths[1]) as f:
        write_sdp(corpus.target_gold, f)
    with atomic_open(paths[2]) as f:
        write_conllu(corpus.trees, f)
    with atomic_open(paths[3]) as f:
        write_alignments(corpus.forward, f)
    with atomic_open(paths[4]) as f:
        write_alignments(corpus.backward, f)
    return paths
