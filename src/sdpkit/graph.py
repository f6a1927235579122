"""In-memory sentences, semantic graphs, partial projected graphs, and syntactic trees.

All types are immutable after construction and safe to share across threads.
Token positions are 1-based; position 0 is the virtual root. Top nodes are
stored as ordinary edges from the root with the reserved label ``TOP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import GraphError

ROOT = 0
TOP_LABEL = "TOP"


@dataclass(frozen=True)
class Token:
    """One token. Its form is never empty, as the char BiLSTM needs a character;
    `frame` is carried opaquely and may be empty."""

    index: int
    form: str
    lemma: str = ""
    pos: str = ""
    frame: str = ""

    def __post_init__(self):
        if self.index < 1:
            raise GraphError(f"token index must be >= 1, got {self.index}")
        if not self.form:
            raise GraphError(f"token {self.index} has an empty form")


class Edge(NamedTuple):
    head: int
    dependent: int
    label: str


def make_sentence(forms: Sequence[str], lemmas: Sequence[str] | None = None,
                  pos: Sequence[str] | None = None) -> tuple[Token, ...]:
    """Build a token sequence from parallel lists of surface attributes."""
    lemmas = lemmas if lemmas is not None else forms
    pos = pos if pos is not None else [""] * len(forms)
    if not (len(forms) == len(lemmas) == len(pos)):
        raise GraphError("forms, lemmas, and pos must have equal lengths")
    return tuple(Token(i + 1, f, l, p) for i, (f, l, p) in enumerate(zip(forms, lemmas, pos)))


def _check_sentence(sentence: tuple[Token, ...]):
    for i, tok in enumerate(sentence):
        if tok.index != i + 1:
            raise GraphError(f"token indices must be contiguous from 1; "
                             f"position {i + 1} holds index {tok.index}")


@dataclass(frozen=True)
class SemanticGraph:
    """Labeled directed edge set over a sentence, tops included as root edges.

    Construction rejects self-loops, out-of-range endpoints, conflicting
    labels on one (head, dependent) pair, and root edges not labeled TOP.
    Acyclicity is checked by `is_acyclic` only: a graph read from a file may
    have a cycle, and scoring does not need acyclicity; `write_sdp` rejects one.
    """

    sentence: tuple[Token, ...]
    edges: frozenset[Edge]

    def __post_init__(self):
        sentence = tuple(self.sentence)
        edges = frozenset(e if type(e) is Edge else Edge(*e) for e in self.edges)
        object.__setattr__(self, "sentence", sentence)
        object.__setattr__(self, "edges", edges)
        _check_sentence(sentence)
        n = len(sentence)
        seen: dict[tuple[int, int], str] = {}
        for h, d, label in edges:
            if not isinstance(label, str) or label == "":
                raise GraphError(f"edge ({h},{d}) has an empty label")
            if d < 1 or d > n:
                raise GraphError(f"dependent {d} out of range 1..{n}")
            if h < 0 or h > n:
                raise GraphError(f"head {h} out of range 0..{n}")
            if h == d:
                raise GraphError(f"self-loop at token {h}")
            if h == ROOT and label != TOP_LABEL:
                raise GraphError(f"root edge to {d} must be labeled {TOP_LABEL!r}, got {label!r}")
            if (h, d) in seen and seen[(h, d)] != label:
                raise GraphError(f"conflicting labels for cell ({h},{d}): "
                                 f"{seen[(h, d)]!r} vs {label!r}")
            seen[(h, d)] = label

    @property
    def n(self) -> int:
        return len(self.sentence)

    @property
    def tops(self) -> frozenset[int]:
        return frozenset(e.dependent for e in self.edges if e.head == ROOT)

    def sorted_edges(self) -> list[Edge]:
        """Edges in a deterministic order; use this wherever order matters."""
        return sorted(self.edges)

    def non_top_edges(self) -> list[Edge]:
        return [e for e in self.sorted_edges() if e.head != ROOT]

    def unlabeled(self) -> frozenset[tuple[int, int]]:
        return frozenset((e.head, e.dependent) for e in self.edges)


@dataclass(frozen=True)
class PartialGraph:
    """A projected graph plus the set of target positions whose cells are decided.

    A cell (i, j) is decided iff both i and j are aligned; the root position 0
    is always aligned. Every edge joins two aligned positions, so no edge
    sits at an undecided cell.
    """

    graph: SemanticGraph
    aligned: frozenset[int]

    def __post_init__(self):
        aligned = frozenset(self.aligned) | {ROOT}
        object.__setattr__(self, "aligned", aligned)
        n = self.graph.n
        for j in aligned:
            if j < 0 or j > n:
                raise GraphError(f"aligned index {j} out of range 0..{n}")
        for h, d, _ in self.graph.sorted_edges():
            if h not in aligned or d not in aligned:
                raise GraphError(f"edge ({h},{d}) touches an unaligned token")

    @property
    def sentence(self) -> tuple[Token, ...]:
        return self.graph.sentence

    def density(self) -> float:
        n = self.graph.n
        if n < 1:
            raise GraphError("density undefined for an empty sentence")
        return (len(self.aligned) - 1) / n


def as_partial(graph: SemanticGraph | PartialGraph) -> PartialGraph:
    """View a plain graph as a fully decided partial graph."""
    if isinstance(graph, PartialGraph):
        return graph
    return PartialGraph(graph, frozenset(range(graph.n + 1)))


def as_semantic(graph: SemanticGraph | PartialGraph) -> SemanticGraph:
    """The graph with any projection mask stripped."""
    return graph.graph if isinstance(graph, PartialGraph) else graph


@dataclass(frozen=True)
class SyntacticTree:
    """Single-head labeled dependency structure; `heads[j-1]` is token j's head.

    Construction checks ranges and self-heads only; connectedness and
    single-rootedness are not checked.
    """

    sentence: tuple[Token, ...]
    heads: tuple[int, ...]
    deprels: tuple[str, ...]
    comments: tuple[str, ...] = ()

    def __post_init__(self):
        sentence = tuple(self.sentence)
        object.__setattr__(self, "sentence", sentence)
        object.__setattr__(self, "heads", tuple(int(h) for h in self.heads))
        object.__setattr__(self, "deprels", tuple(self.deprels))
        object.__setattr__(self, "comments", tuple(self.comments))
        _check_sentence(sentence)
        n = len(sentence)
        if len(self.heads) != n or len(self.deprels) != n:
            raise GraphError("heads and deprels must match the sentence length")
        for j, h in enumerate(self.heads, start=1):
            if h < 0 or h > n:
                raise GraphError(f"head {h} of token {j} out of range 0..{n}")
            if h == j:
                raise GraphError(f"token {j} is its own head")

    @property
    def n(self) -> int:
        return len(self.sentence)

    def head_of(self, j: int) -> int:
        return self.heads[j - 1]

    def deprel_of(self, j: int) -> str:
        return self.deprels[j - 1]


def is_acyclic(g: SemanticGraph) -> bool:
    """True iff the non-root edge set contains no directed cycle."""
    n = g.n
    out: list[list[int]] = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for h, d, _ in g.edges:
        if h == ROOT:
            continue
        out[h].append(d)
        indeg[d] += 1
    queue = [v for v in range(1, n + 1) if indeg[v] == 0]
    visited = 0
    while queue:
        v = queue.pop()
        visited += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return visited == n

