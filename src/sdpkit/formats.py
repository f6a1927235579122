"""Readers and writers for the on-disk formats the pipeline consumes and emits.

Dialects (fixed here; this docstring is their specification):

* ``.sdp`` -- tab-separated blocks, one per sentence, separated by blank lines.
  Columns: ID FORM LEMMA POS TOP PRED FRAME ARG1..ARGk, where k is the number
  of rows with ``+`` in PRED. Each block starts with a ``#<id>`` header line.
  A ``#aligned: i j ...`` line after the header marks a partial (projected)
  graph; listed indices are the aligned target positions (root 0 implied).
  ``_`` denotes an empty cell.
* ``.conllu`` -- standard 10-column CoNLL-U; multiword-token and empty-node
  lines are skipped on read; comment lines are preserved verbatim.
* ``.align`` -- Pharaoh word alignments: one sentence pair per line, pairs
  ``i-j`` 0-based on disk, converted to 1-based in memory.
* ``.vec`` -- per-token context vectors: one token per line of
  whitespace-separated floats, blank line between sentences. Here and in
  word-vector tables every component must be a finite number.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .errors import FormatError, GraphError
from .graph import (ROOT, TOP_LABEL, Edge, PartialGraph, SemanticGraph,
                    SyntacticTree, Token, as_semantic, is_acyclic)

EMPTY = "_"
ALIGNED_PREFIX = "#aligned:"
_PAIR_RE = re.compile(r"^(\d+)-(\d+)$")


@dataclass(frozen=True)
class SdpDocument:
    """An ordered collection of (sentence id, graph) pairs with unique ids."""

    sentences: tuple[tuple[str, SemanticGraph | PartialGraph], ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        seen = set()
        for sid, _ in self.sentences:
            if sid in seen:
                raise FormatError(f"duplicate sentence id {sid!r}")
            seen.add(sid)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def graphs(self) -> list[SemanticGraph | PartialGraph]:
        return [g for _, g in self.sentences]

    def semantic_graphs(self) -> list[SemanticGraph]:
        """Graphs with any partial masks stripped."""
        return [as_semantic(g) for _, g in self.sentences]


@dataclass(frozen=True)
class AlignmentFile:
    """Per sentence pair: a set of 1-based (source, target) links."""

    links: tuple[frozenset[tuple[int, int]], ...]

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(frozenset(s) for s in self.links))

    def __len__(self) -> int:
        return len(self.links)

    def __iter__(self):
        return iter(self.links)


@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Open `path` for writing so that it appears only once the block succeeds.

    The stream is a temp file in the same directory, renamed over `path` when
    the block exits normally and removed when it raises, so a failed write
    never leaves a partial file. Text modes use UTF-8.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _blocks(stream: TextIO) -> Iterable[tuple[int, list[tuple[int, str]]]]:
    """Yield (first line number, [(line number, line), ...]) per blank-separated block."""
    block: list[tuple[int, str]] = []
    start = 1
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line.strip() == "":
            if block:
                yield start, block
                block = []
            continue
        if not block:
            start = lineno
        block.append((lineno, line))
    if block:
        yield start, block


# ---------------------------------------------------------------------------
# SDP tabular format


def read_sdp(stream: TextIO) -> SdpDocument:
    """Parse a SemEval-style .sdp stream into a document of graphs.

    Blocks carrying a ``#aligned:`` comment produce `PartialGraph` entries;
    all other blocks produce plain `SemanticGraph` entries.
    """
    sentences = []
    for start, block in _blocks(stream):
        sentences.append(_read_sdp_block(start, block))
    return SdpDocument(tuple(sentences))


def _read_sdp_block(start: int, block: list[tuple[int, str]]):
    sid = None
    aligned: set[int] | None = None
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in block:
        if line.startswith("#"):
            if rows:
                raise FormatError("comment after token lines", lineno)
            if line.startswith(ALIGNED_PREFIX):
                if aligned is not None:
                    raise FormatError(f"second {ALIGNED_PREFIX} comment", lineno)
                aligned = set()
                for field in line[len(ALIGNED_PREFIX):].split():
                    if not field.isdigit():
                        raise FormatError(f"non-numeric aligned index {field!r}", lineno)
                    aligned.add(int(field))
            elif sid is None:
                sid = line[1:].strip()
            else:
                raise FormatError(f"unexpected extra comment {line!r}", lineno)
        else:
            rows.append((lineno, line.split("\t")))
    if sid is None:
        raise FormatError("missing #<id> header line", start)
    if not rows:
        raise FormatError(f"sentence {sid!r} has no token lines", start)

    width = len(rows[0][1])
    if width < 7:
        raise FormatError(f"expected at least 7 columns, got {width}", rows[0][0])
    tokens = []
    pred_positions = []
    for i, (lineno, cols) in enumerate(rows):
        if len(cols) != width:
            raise FormatError(f"expected {width} columns, got {len(cols)}", lineno)
        if not cols[0].isdigit() or int(cols[0]) != i + 1:
            raise FormatError(f"token ids must be contiguous from 1, got {cols[0]!r}", lineno)
        if cols[4] not in ("+", "-"):
            raise FormatError(f"TOP column must be '+' or '-', got {cols[4]!r}", lineno)
        if cols[5] not in ("+", "-"):
            raise FormatError(f"PRED column must be '+' or '-', got {cols[5]!r}", lineno)
        frame = "" if cols[6] == EMPTY else cols[6]
        lemma = "" if cols[2] == EMPTY else cols[2]
        pos = "" if cols[3] == EMPTY else cols[3]
        tokens.append(Token(i + 1, cols[1], lemma, pos, frame))
        if cols[5] == "+":
            pred_positions.append(i + 1)

    if width != 7 + len(pred_positions):
        raise FormatError(
            f"{width - 7} argument columns but {len(pred_positions)} predicates; "
            "an argument column would reference a non-predicate", rows[0][0])

    edges = set()
    for i, (lineno, cols) in enumerate(rows):
        if cols[4] == "+":
            edges.add(Edge(ROOT, i + 1, TOP_LABEL))
        for k, cell in enumerate(cols[7:]):
            if cell == EMPTY:
                continue
            head = pred_positions[k]
            try:
                edges.add(Edge(head, i + 1, cell))
            except GraphError as exc:
                raise FormatError(str(exc), lineno) from exc

    try:
        graph = SemanticGraph(tuple(tokens), frozenset(edges))
        if aligned is not None:
            return sid, PartialGraph(graph, frozenset(aligned))
        return sid, graph
    except GraphError as exc:
        raise FormatError(str(exc), start) from exc


def _check_cell(value: str, what: str):
    if "\t" in value or "\n" in value or "\r" in value:
        raise FormatError(f"{what} {value!r} contains a tab or newline")


def write_sdp(doc: SdpDocument, stream: TextIO):
    """Serialize a document; inverse of `read_sdp` on valid input.

    Graphs must be acyclic per `is_acyclic`. Sentence ids, labels and forms
    may not contain tabs or newlines; a label equal to the empty-cell marker
    cannot be represented, nor can a sentence id with whitespace at either end
    or one that begins with ``aligned:``, since neither reads back.
    """
    first = True
    for sid, entry in doc:
        graph = as_semantic(entry)
        if not is_acyclic(graph):
            raise FormatError(f"sentence {sid!r} is not writable: graph contains a directed cycle")
        if not first:
            stream.write("\n")
        first = False
        _check_cell(sid, "sentence id")
        if sid != sid.strip() or f"#{sid}".startswith(ALIGNED_PREFIX):
            raise FormatError(f"sentence id {sid!r} would not read back")
        stream.write(f"#{sid}\n")
        if isinstance(entry, PartialGraph):
            listed = sorted(i for i in entry.aligned if i != ROOT)
            stream.write(ALIGNED_PREFIX + "".join(f" {i}" for i in listed) + "\n")

        preds = sorted({h for h, _, _ in graph.edges if h != ROOT})
        pred_col = {p: k for k, p in enumerate(preds)}
        args: dict[int, dict[int, str]] = {}
        tops = graph.tops
        for h, d, label in graph.sorted_edges():
            if h == ROOT:
                continue
            if label == EMPTY:
                raise FormatError(f"label {EMPTY!r} cannot be written")
            _check_cell(label, "label")
            args.setdefault(d, {})[pred_col[h]] = label

        for tok in graph.sentence:
            if tok.form == "":
                raise FormatError(f"token {tok.index} has an empty form")
            for value, what in ((tok.form, "form"), (tok.lemma, "lemma"),
                                (tok.pos, "pos"), (tok.frame, "frame")):
                _check_cell(value, what)
            cols = [
                str(tok.index),
                tok.form,
                tok.lemma if tok.lemma else EMPTY,
                tok.pos if tok.pos else EMPTY,
                "+" if tok.index in tops else "-",
                "+" if tok.index in pred_col else "-",
                tok.frame if tok.frame else EMPTY,
            ]
            row_args = args.get(tok.index, {})
            cols.extend(row_args.get(k, EMPTY) for k in range(len(preds)))
            stream.write("\t".join(cols) + "\n")


# ---------------------------------------------------------------------------
# CoNLL-U


def read_conllu(stream: TextIO) -> list[SyntacticTree]:
    """Parse 10-column CoNLL-U into syntactic trees, preserving comments."""
    trees = []
    for start, block in _blocks(stream):
        comments = []
        rows = []
        for lineno, line in block:
            if line.startswith("#"):
                if rows:
                    raise FormatError("comment after token lines", lineno)
                comments.append(line)
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise FormatError(f"expected 10 columns, got {len(cols)}", lineno)
            if "-" in cols[0] or "." in cols[0]:
                continue  # multiword tokens and empty nodes carry no tree structure
            rows.append((lineno, cols))
        if not rows:
            raise FormatError("sentence has no token lines", start)
        tokens = []
        heads = []
        deprels = []
        for i, (lineno, cols) in enumerate(rows):
            if not cols[0].isdigit() or int(cols[0]) != i + 1:
                raise FormatError(f"token ids must be contiguous from 1, got {cols[0]!r}", lineno)
            try:
                head = int(cols[6])
            except ValueError:
                raise FormatError(f"non-numeric head {cols[6]!r}", lineno) from None
            lemma = "" if cols[2] == EMPTY else cols[2]
            pos = "" if cols[3] == EMPTY else cols[3]
            tokens.append(Token(i + 1, cols[1], lemma, pos))
            heads.append(head)
            deprels.append("" if cols[7] == EMPTY else cols[7])
        n = len(tokens)
        for (lineno, _), head in zip(rows, heads):
            if head < 0 or head > n:
                raise FormatError(f"head {head} out of range 0..{n}", lineno)
        try:
            trees.append(SyntacticTree(tuple(tokens), tuple(heads), tuple(deprels),
                                       tuple(comments)))
        except GraphError as exc:
            raise FormatError(str(exc), start) from exc
    return trees


def write_conllu(trees: Iterable[SyntacticTree], stream: TextIO):
    """Serialize trees to CoNLL-U; inverse of `read_conllu` on valid input."""
    first = True
    for tree in trees:
        if not first:
            stream.write("\n")
        first = False
        for comment in tree.comments:
            stream.write(comment + "\n")
        for tok in tree.sentence:
            for value, what in ((tok.form, "form"), (tok.lemma, "lemma"), (tok.pos, "pos")):
                _check_cell(value, what)
            deprel = tree.deprel_of(tok.index)
            _check_cell(deprel, "deprel")
            cols = [
                str(tok.index),
                tok.form if tok.form else EMPTY,
                tok.lemma if tok.lemma else EMPTY,
                tok.pos if tok.pos else EMPTY,
                EMPTY, EMPTY,
                str(tree.head_of(tok.index)),
                deprel if deprel else EMPTY,
                EMPTY, EMPTY,
            ]
            stream.write("\t".join(cols) + "\n")


# ---------------------------------------------------------------------------
# Pharaoh alignments


def read_alignments(stream: TextIO) -> AlignmentFile:
    """Parse Pharaoh ``i-j`` lines; 0-based on disk, 1-based in memory."""
    links = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        pairs = set()
        if line:
            for field in line.split():
                m = _PAIR_RE.match(field)
                if m is None:
                    raise FormatError(f"malformed alignment pair {field!r}", lineno)
                pairs.add((int(m.group(1)) + 1, int(m.group(2)) + 1))
        links.append(frozenset(pairs))
    return AlignmentFile(tuple(links))


def write_alignments(alignments: AlignmentFile | Iterable[frozenset], stream: TextIO):
    """Serialize alignments back to 0-based Pharaoh lines."""
    for pairs in alignments:
        line = " ".join(f"{s - 1}-{t - 1}" for s, t in sorted(pairs))
        stream.write(line + "\n")


# ---------------------------------------------------------------------------
# Per-token context vectors and word vectors


def _vector(fields: list[str], lineno: int) -> list[float]:
    """The floats of `fields`; FormatError at `lineno` unless each is a finite number."""
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise FormatError("non-numeric vector component", lineno) from None
    for field, value in zip(fields, values):
        if not math.isfinite(value):
            raise FormatError(f"non-finite vector component {field!r}", lineno)
    return values


def read_context_vectors(stream: TextIO, expected_dim: int) -> list[np.ndarray]:
    """Read per-sentence matrices of per-token context vectors.

    Every row must have exactly `expected_dim` floats. Returns one
    (n_tokens, expected_dim) float64 array per sentence.
    """
    if expected_dim < 1:
        raise FormatError(f"expected_dim must be >= 1, got {expected_dim}")
    sentences: list[np.ndarray] = []
    current: list[list[float]] = []

    def flush():
        if current:
            sentences.append(np.array(current, dtype=np.float64))
            current.clear()

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        fields = line.split()
        if len(fields) != expected_dim:
            raise FormatError(f"expected {expected_dim} values, got {len(fields)}", lineno)
        current.append(_vector(fields, lineno))
    flush()
    return sentences


def read_word_vectors(stream: TextIO, expected_dim: int) -> dict[str, np.ndarray]:
    """Read a word2vec-style text table: ``word v1 .. vd`` per line.

    A leading ``count dim`` header line is tolerated and skipped: a first line
    of two integers whose second is `expected_dim`.
    """
    vectors: dict[str, np.ndarray] = {}
    for lineno, raw in enumerate(stream, start=1):
        fields = raw.split()
        if not fields:
            continue
        if (lineno == 1 and len(fields) == 2 and all(f.isdigit() for f in fields)
                and int(fields[1]) == expected_dim):
            continue
        if len(fields) != expected_dim + 1:
            raise FormatError(f"expected a word and {expected_dim} values, "
                              f"got {len(fields)} fields", lineno)
        vectors[fields[0]] = np.array(_vector(fields[1:], lineno), dtype=np.float64)
    return vectors

