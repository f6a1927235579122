"""Deterministic synthetic parallel corpora for desk-scale validation.

The generator builds a small artificial language whose semantic structure is
predictable from parts of speech and surface distance, then derives from each
target sentence: a gold semantic graph (acyclic, unique top), a gold
syntactic tree whose heads agree with the semantic heads at a configurable
rate, a parallel source sentence with gold source annotations, and Pharaoh
alignment files in both directions whose intersection is one-to-one. Source
edges carry configurable label noise so that projections are imperfect, as
real projected data would be.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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

DEFAULT_LABELS = ("ACT-arg", "PAT-arg", "ADDR-arg", "RSTR", "APP", "TWHEN")
DEFAULT_DEPRELS = ("root", "nsubj", "obj", "nmod", "amod", "advmod", "conj")


@dataclass(frozen=True)
class SynthConfig:
    sentences: int
    min_len: int = 5
    max_len: int = 12
    labels: tuple[str, ...] = DEFAULT_LABELS
    deprels: tuple[str, ...] = DEFAULT_DEPRELS
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
        if len(self.labels) < 2:
            raise SynthError("need at least two semantic labels")
        if len(self.deprels) < 2 or self.deprels[0] != "root":
            raise SynthError("deprels must start with 'root' and have another relation")
        for name in ("density", "agreement", "edge_noise", "reentrancy"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SynthError(f"{name} must be in [0,1], got {rate}")


@dataclass(frozen=True)
class SynthCorpus:
    ids: tuple[str, ...]
    source: SdpDocument
    target_sentences: tuple[tuple[Token, ...], ...]
    target_gold: SdpDocument
    trees: tuple[SyntacticTree, ...]
    forward: AlignmentFile
    backward: AlignmentFile


def _pos_code(pos: str) -> int:
    return _POS_CLASSES.index(pos)


def _semantic_label(labels: Sequence[str], head_pos: str, dep_pos: str) -> str:
    return labels[(4 * _pos_code(head_pos) + _pos_code(dep_pos)) % len(labels)]


def _deprel(deprels: Sequence[str], head_pos: str, dep_pos: str) -> str:
    return deprels[1 + (4 * _pos_code(head_pos) + _pos_code(dep_pos)) % (len(deprels) - 1)]


def _sample_pos_sequence(rng: np.random.Generator, n: int) -> list[str]:
    probs = np.array([0.45, 0.2, 0.2, 0.15])
    seq = [str(_POS_CLASSES[i]) for i in rng.choice(4, size=n, p=probs)]
    if "V" not in seq:
        seq[int(rng.integers(n))] = "V"
    return seq


def _sample_ranks(rng: np.random.Generator, n: int, top: int) -> list[int]:
    # rank order mostly follows surface order, with occasional local swaps
    order = [top] + [j for j in range(1, n + 1) if j != top]
    for k in range(1, len(order) - 1):
        if rng.random() < 0.15:
            order[k], order[k + 1] = order[k + 1], order[k]
    rank = [0] * (n + 1)
    for r, j in enumerate(order):
        rank[j] = r
    return rank


def _pick_head(rng: np.random.Generator, j: int, candidates: list[int],
               pos: list[str]) -> int:
    weights = np.array([
        (2.0 if pos[c - 1] == "V" else 1.0) / (1.0 + abs(j - c)) ** 2
        for c in candidates
    ])
    weights /= weights.sum()
    return candidates[int(rng.choice(len(candidates), p=weights))]


def _generate_sentence(rng: np.random.Generator, cfg: SynthConfig):
    n = int(rng.integers(cfg.min_len, cfg.max_len + 1))
    pos = _sample_pos_sequence(rng, n)
    forms = [str(_LEXICON[p][int(rng.integers(len(_LEXICON[p])))]) for p in pos]
    tokens = tuple(Token(j + 1, forms[j], forms[j], pos[j]) for j in range(n))

    top = next(j for j in range(1, n + 1) if pos[j - 1] == "V")
    rank = _sample_ranks(rng, n, top)

    edges = {Edge(ROOT, top, TOP_LABEL)}
    primary = {top: ROOT}
    sem_heads: dict[int, set[int]] = {top: {ROOT}}
    for j in sorted(range(1, n + 1), key=lambda t: rank[t]):
        if j == top:
            continue
        candidates = [c for c in range(1, n + 1) if rank[c] < rank[j]]
        head = _pick_head(rng, j, candidates, pos)
        primary[j] = head
        sem_heads[j] = {head}
        edges.add(Edge(head, j, _semantic_label(cfg.labels, pos[head - 1], pos[j - 1])))
        if rank[j] >= 2 and rng.random() < cfg.reentrancy:
            extra = [c for c in candidates if c != head]
            if extra:
                second = _pick_head(rng, j, extra, pos)
                sem_heads[j].add(second)
                edges.add(Edge(second, j,
                               _semantic_label(cfg.labels, pos[second - 1], pos[j - 1])))

    heads = []
    deprels = []
    for j in range(1, n + 1):
        if j == top:
            heads.append(ROOT)
            deprels.append("root")
            continue
        if rng.random() < cfg.agreement:
            head = primary[j]
        else:
            others = [c for c in range(1, n + 1)
                      if rank[c] < rank[j] and c not in sem_heads[j]]
            head = _pick_head(rng, j, others, pos) if others else primary[j]
        heads.append(head)
        deprels.append(_deprel(cfg.deprels, pos[head - 1], pos[j - 1]))
    tree = SyntacticTree(tokens, tuple(heads), tuple(deprels))

    aligned = {j for j in range(1, n + 1) if rng.random() < cfg.density}
    links = frozenset((j, j) for j in sorted(aligned))
    noise_links = set()
    for j in sorted(set(range(1, n + 1)) - aligned):
        if rng.random() < 0.25:
            other = int(rng.integers(1, n + 1))
            if other != j:
                noise_links.add((j, other))  # forward-only; intersection removes it

    source_tokens = tuple(Token(j + 1, "x" + forms[j], "x" + forms[j], pos[j])
                          for j in range(n))
    source_edges = set()
    for h, d, label in sorted(edges):
        if (h == ROOT or h in aligned) and d in aligned:
            if cfg.edge_noise > 0 and h != ROOT and rng.random() < cfg.edge_noise:
                shifted = 1 + int(rng.integers(len(cfg.labels) - 1))
                label = cfg.labels[(cfg.labels.index(label) + shifted) % len(cfg.labels)]
            source_edges.add(Edge(h, d, label))

    gold = SemanticGraph(tokens, frozenset(edges))
    source = SemanticGraph(source_tokens, frozenset(source_edges))
    return tokens, gold, tree, source, links, frozenset(links | noise_links)


def synth_corpus(cfg: SynthConfig) -> SynthCorpus:
    """Generate the full parallel corpus; byte-identical for equal configs."""
    rng = np.random.default_rng([cfg.seed, 0x517F])
    ids = []
    sources = []
    targets = []
    golds = []
    trees = []
    fwd = []
    bwd = []
    for k in range(cfg.sentences):
        sid = f"s{k + 1:05d}"
        tokens, gold, tree, source, links, fwd_links = _generate_sentence(rng, cfg)
        ids.append(sid)
        targets.append(tokens)
        golds.append((sid, gold))
        trees.append(SyntacticTree(tree.sentence, tree.heads, tree.deprels,
                                   (f"# sent_id = {sid}",)))
        sources.append((sid, source))
        fwd.append(fwd_links)
        bwd.append(links)
    return SynthCorpus(tuple(ids), SdpDocument(tuple(sources)), tuple(targets),
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
