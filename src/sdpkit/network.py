"""The parser network: embeddings, deep BiLSTM encoder, FNN heads, bilinear scorers.

A token vector is the concatenation of a word component, a POS embedding, and
optional external context features. The word component sums a trainable table,
a fixed pretrained table, and a character BiLSTM's final states (no projection,
so the char hidden size is half the word dimension per direction). A learned
root row is prepended before encoding; scores are matrices over head positions
0..n and dependent positions 1..n, head-major as `ad.bilinear` writes them.
Every cell is scored, the self-loop diagonal included; which cells can be
edges is decided by the losses and the decoder (`training.edge_cells`). The
optional biaffine bias (Dozat & Manning) is a zero-initialised border of the
edge weight, met by a ones column on the edge FNN rows. One model call runs
every stage once over a `Batch` of sentences in one row layout, sentence
after sentence in input order: each sentence's root and then its tokens on
consecutive rows, from the encoder's input to the scorer's heads. Only the
scores come back padded, with 0 on the padding.

In multitask mode the embedding layer is always shared; the recurrent stack
and the four attention FNNs are shared or task-specific according to the
`SharingTopology`, with an optional extra task-specific recurrent layer on
top of a shared stack. Bilinear scorers are always task-specific.

A trained model passes from `sdpkit train` to `sdpkit parse` as one
checkpoint file. Its format is this module's alone: `ParserModel.save` writes
it, `ParserModel.load` reads it, and `CHECKPOINT_VERSION` versions it.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import CheckpointError, ConfigError
from .formats import atomic_open
from .graph import TOP_LABEL, Token

UNK = "<unk>"

# Raise the version whenever the tensors or the metadata that `save` writes change.
CHECKPOINT_VERSION = 1
_META_KEY = "__meta__"

SEMANTIC = "semantic"
SYNTACTIC = "syntactic"


@dataclass(frozen=True)
class NetworkConfig:
    word_dim: int = 100
    pos_dim: int = 100
    rnn_size: int = 600          # concatenated output, half per direction
    rnn_layers: int = 3
    fnn_size: int = 600
    char_emb_dim: int = 0        # 0 means word_dim // 2
    context_dim: int = 0
    word_dropout: float = 0.2    # input word/POS replacement rate
    recurrent_dropout: float = 0.25
    edge_dropout: float = 0.25
    label_dropout: float = 0.33
    biaffine_bias: bool = False

    def __post_init__(self):
        for name in ("word_dim", "pos_dim", "rnn_size", "rnn_layers", "fnn_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.word_dim % 2 != 0:
            raise ConfigError("word_dim must be even (char BiLSTM uses word_dim/2 per direction)")
        if self.rnn_size % 2 != 0:
            raise ConfigError("rnn_size must be even (half per direction)")
        if self.context_dim < 0 or self.char_emb_dim < 0:
            raise ConfigError("dims must be non-negative")
        for name in ("word_dropout", "recurrent_dropout", "edge_dropout", "label_dropout"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0,1), got {rate}")

    @property
    def char_dim(self) -> int:
        return self.char_emb_dim if self.char_emb_dim else self.word_dim // 2

    @property
    def input_dim(self) -> int:
        return self.word_dim + self.pos_dim + self.context_dim


@dataclass(frozen=True)
class SharingTopology:
    shared_rnn: bool = True
    shared_fnn: bool = False
    task_rnn: bool = False

    def __post_init__(self):
        if self.task_rnn and not self.shared_rnn:
            raise ConfigError("task_rnn requires shared_rnn")


class Vocab:
    """A deterministic string-to-index map; optionally with <unk> at index 0."""

    def __init__(self, items: Sequence[str], unk: bool = True):
        self.unk = unk
        items = sorted(set(items) - ({UNK} if unk else set()))
        self.items = ([UNK] if unk else []) + items
        self._index = {s: i for i, s in enumerate(self.items)}

    def __len__(self):
        return len(self.items)

    def __contains__(self, item):
        return item in self._index

    def id(self, item: str) -> int:
        idx = self._index.get(item)
        if idx is None:
            if not self.unk:
                raise ConfigError(f"unknown item {item!r} in a closed vocabulary")
            return 0
        return idx


def build_vocabs(sentences: Sequence[Sequence[Token]]) -> tuple[Vocab, Vocab, Vocab]:
    """Word, character, and POS vocabularies from a corpus of token sequences."""
    words, chars, pos = set(), set(), set()
    for sent in sentences:
        for tok in sent:
            words.add(tok.form)
            chars.update(tok.form)
            pos.add(tok.pos)
    return Vocab(sorted(words)), Vocab(sorted(chars)), Vocab(sorted(pos))


def semantic_label_vocab(labels: Sequence[str]) -> Vocab:
    """Closed label vocabulary for the semantic task; TOP is always a member."""
    return Vocab(sorted(set(labels) | {TOP_LABEL}), unk=False)


def syntactic_label_vocab(labels: Sequence[str]) -> Vocab:
    return Vocab(sorted(set(labels)), unk=False)


def pretrained_table(vectors: dict[str, np.ndarray], vocab: Vocab,
                     dim: int) -> np.ndarray:
    """Fixed pretrained embedding table aligned to a word vocabulary.

    Words without a pretrained vector (including <unk>) get zero rows, so
    the trainable and character components alone carry them.
    """
    table = np.zeros((len(vocab), dim))
    for i, word in enumerate(vocab.items):
        vec = vectors.get(word)
        if vec is not None:
            if vec.shape != (dim,):
                raise ConfigError(f"pretrained vector for {word!r} has shape "
                                  f"{vec.shape}, expected ({dim},)")
            table[i] = vec
    return table


def _rng_for(seed: int, name: str) -> np.random.Generator:
    # per-name streams keep initial values independent of creation order,
    # so single-task and multitask models share identical common parameters
    return np.random.default_rng([seed & 0x7FFFFFFF, zlib.crc32(name.encode("utf-8"))])


# initializers of `ParserModel._param_specs`: (rng, shape) -> array

def _normal(scale: float):
    return lambda rng, shape: rng.normal(0.0, scale, size=shape)


def _glorot(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def _glorot_bordered(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """`_glorot` of the shape one smaller, then a zero last row and column."""
    return np.pad(_glorot(rng, (shape[0] - 1, shape[1] - 1)), (0, 1))


def _zeros(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return np.zeros(shape)


FNN_TYPES = ("edge_dep", "edge_head", "label_dep", "label_head")


@dataclass(frozen=True, eq=False)
class Batch:
    """The sentences of one model call, in the one row layout every stage reads.

    Everything is packed sentence after sentence in input order. The tokens
    take N rows (`word_ids`, `pos_ids`, `form_ids`, `contexts`). The encoder
    runs on N + B rows, each sentence's root and then its tokens, so sentence
    b's positions 0..n_b are n_b + 1 consecutive rows; the scorer takes those
    rows as its head rows and the token rows (`token_rows`) as its dependent
    rows. The char BiLSTM reads the call's distinct forms in sorted order,
    packed form after form. Scores come back padded and batch-major, in
    input order, T the longest sentence: sentence b's edge scores are its
    [b, :n_b+1, :n_b] block, [head, dependent - 1], as the scorer writes them.
    """

    sizes: np.ndarray             # (B,) tokens per sentence
    word_ids: np.ndarray          # (N,)
    pos_ids: np.ndarray           # (N,)
    form_ids: np.ndarray          # (N,) index of each token's form among the distinct forms
    char_ids: np.ndarray          # (C,) the distinct forms' characters, form after form
    char_lengths: np.ndarray      # (F,) characters per distinct form
    contexts: np.ndarray | None   # (N, context_dim)
    input_ids: np.ndarray         # (N+B,) row of [root; tokens] behind each encoder row
    token_rows: np.ndarray        # (N,) encoder row of each token


def check_contexts(sentences: Sequence, contexts: Sequence | None):
    """Raise ConfigError unless `contexts` is None or holds one entry per sentence."""
    if contexts is not None and len(contexts) != len(sentences):
        raise ConfigError(f"{len(contexts)} context entries given for "
                          f"{len(sentences)} sentences")


class ParserModel:
    """All trainable state plus the forward operations of the parser."""

    def __init__(self, config: NetworkConfig, tasks: dict[str, Vocab],
                 word_vocab: Vocab, char_vocab: Vocab, pos_vocab: Vocab,
                 topology: SharingTopology | None = None, seed: int = 0,
                 pretrained: np.ndarray | None = None):
        self._configure(config, tasks, word_vocab, char_vocab, pos_vocab, topology, seed,
                        pretrained)
        self._install([(name, init(_rng_for(seed, name), shape))
                       for name, shape, init in self._param_specs()])

    # ------------------------------------------------------------------ setup

    def _configure(self, config, tasks, word_vocab, char_vocab, pos_vocab, topology, seed,
                   pretrained):
        """Validate and store everything but the parameters."""
        if not tasks:
            raise ConfigError("at least one task is required")
        unknown = set(tasks) - {SEMANTIC, SYNTACTIC}
        if unknown:
            raise ConfigError(f"unknown tasks {sorted(unknown)}")
        if len(tasks) > 1 and topology is None:
            raise ConfigError("multitask models need a SharingTopology")
        self.config = config
        self.topology = topology if len(tasks) > 1 else None
        self.tasks = dict(tasks)
        self.word_vocab = word_vocab
        self.char_vocab = char_vocab
        self.pos_vocab = pos_vocab
        self.seed = seed
        if pretrained is None:
            pretrained = np.zeros((len(word_vocab), config.word_dim))
        pretrained = np.asarray(pretrained, dtype=np.float64)
        if pretrained.shape != (len(word_vocab), config.word_dim):
            raise ConfigError(f"pretrained table shape {pretrained.shape} != "
                              f"({len(word_vocab)}, {config.word_dim})")
        self.pretrained = pretrained  # fixed; never updated

    def _install(self, named: list[tuple[str, np.ndarray]]):
        """Make the arrays the parameters: one `ad.parameter_set`, so one
        gradient buffer and one pair of Adam moments for the whole model."""
        arrays = {}
        for name, data in named:
            if name in arrays:
                raise ConfigError(f"duplicate parameter {name!r}")
            arrays[name] = data
        self.params: dict[str, Parameter] = ad.parameter_set(arrays)

    def _owner(self, task: str, stack: str) -> str:
        """Owner of `task`'s "rnn" or "fnn" parameters: the task, or "shared"."""
        shared = self.topology is not None and getattr(self.topology, f"shared_{stack}")
        return "shared" if shared else task

    def _param_specs(self) -> list[tuple[str, tuple, object]]:
        """(name, shape, initializer) of every parameter the model owns."""
        cfg = self.config
        specs = [("emb/word", (len(self.word_vocab), cfg.word_dim), _normal(0.1)),
                 ("emb/pos", (len(self.pos_vocab), cfg.pos_dim), _normal(0.1)),
                 ("emb/char", (len(self.char_vocab), cfg.char_dim), _normal(0.1)),
                 ("emb/unk_word", (cfg.word_dim,), _normal(0.1)),
                 ("emb/unk_pos", (cfg.pos_dim,), _normal(0.1)),
                 ("emb/root", (cfg.input_dim,), _normal(0.1))]

        def lstm(prefix: str, d_in: int, hidden: int):
            for direction in ("fw", "bw"):
                specs.extend([(f"{prefix}/{direction}/w", (d_in, 4 * hidden), _glorot),
                              (f"{prefix}/{direction}/u", (hidden, 4 * hidden), _glorot),
                              (f"{prefix}/{direction}/b", (4 * hidden,), _zeros)])

        lstm("char_rnn", cfg.char_dim, cfg.word_dim // 2)
        half = cfg.rnn_size // 2
        for owner in sorted({self._owner(task, "rnn") for task in self.tasks}):
            d_in = cfg.input_dim
            for layer in range(cfg.rnn_layers):
                lstm(f"rnn/{owner}/layer{layer}", d_in, half)
                d_in = cfg.rnn_size
        if self.topology is not None and self.topology.task_rnn:
            for task in sorted(self.tasks):
                lstm(f"rnn_task/{task}", cfg.rnn_size, half)

        for owner in sorted({self._owner(task, "fnn") for task in self.tasks}):
            for kind in FNN_TYPES:
                specs.extend([(f"fnn/{owner}/{kind}/w", (cfg.rnn_size, cfg.fnn_size), _glorot),
                              (f"fnn/{owner}/{kind}/b", (cfg.fnn_size,), _zeros)])

        # the biaffine bias is a border of the edge weight (see `score_edges_labels`)
        edge = cfg.fnn_size + cfg.biaffine_bias
        edge_init = _glorot_bordered if cfg.biaffine_bias else _glorot
        for task in sorted(self.tasks):
            labels = len(self.tasks[task])
            specs.extend([(f"scorer/{task}/edge", (edge, edge), edge_init),
                          (f"scorer/{task}/label", (labels, cfg.fnn_size, cfg.fnn_size),
                           _glorot)])
        return specs

    def parameters(self) -> list[Parameter]:
        return [self.params[name] for name in sorted(self.params)]

    # ---------------------------------------------------------------- forward

    def batch(self, sentences: Sequence[Sequence[Token]],
              contexts: Sequence[np.ndarray | None] | None = None) -> Batch:
        """Lay out the sentences (and their context vectors) of one model call."""
        cfg = self.config
        sizes = np.array([len(s) for s in sentences], dtype=np.int64)
        if sizes.size == 0 or sizes.min() == 0:
            raise ConfigError("cannot embed an empty sentence")
        check_contexts(sentences, contexts)
        tokens = [tok for s in sentences for tok in s]
        forms = sorted({tok.form for tok in tokens})
        column = {form: k for k, form in enumerate(forms)}

        packed = None
        if cfg.context_dim:
            if contexts is None or any(c is None for c in contexts):
                raise ConfigError("model was configured with context vectors; none given")
            mats = [np.asarray(c, dtype=np.float64) for c in contexts]
            for n, mat in zip(sizes, mats):
                if mat.shape != (n, cfg.context_dim):
                    raise ConfigError(f"context shape {mat.shape} != ({n}, {cfg.context_dim})")
            packed = np.concatenate(mats)
        elif contexts is not None and any(c is not None for c in contexts):
            raise ConfigError("context vectors given but context_dim is 0")

        count = len(tokens)
        return Batch(
            sizes=sizes,
            word_ids=np.array([self.word_vocab.id(t.form) for t in tokens], dtype=np.int64),
            pos_ids=np.array([self.pos_vocab.id(t.pos) for t in tokens], dtype=np.int64),
            form_ids=np.array([column[t.form] for t in tokens], dtype=np.int64),
            char_ids=np.array([self.char_vocab.id(c) for form in forms for c in form],
                              dtype=np.int64),
            char_lengths=np.array([len(form) for form in forms], dtype=np.int64),
            contexts=packed,
            # row 0 of [root; tokens] is the root, row 1 + k token k
            input_ids=np.insert(np.arange(1, count + 1), np.cumsum(sizes) - sizes, 0),
            token_rows=np.arange(count) + np.repeat(np.arange(1, sizes.size + 1), sizes))

    def _char_vectors(self, batch: Batch) -> Tensor:
        """Final states of the char BiLSTM, (F, word_dim): one row per distinct form."""
        fw, bw = self._bilstm(ad.lookup(self.params["emb/char"], batch.char_ids),
                              batch.char_lengths, "char_rnn")
        # forward: the state at each form's last char; backward: at its first
        ends = np.cumsum(batch.char_lengths)
        return ad.concat([ad.lookup(fw, ends - 1), ad.lookup(bw, ends - batch.char_lengths)],
                         axis=1)

    def embed_tokens(self, batch: Batch, rng: np.random.Generator | None = None) -> Tensor:
        """Token input matrix (N, word_dim + pos_dim + context_dim), packed in input order.

        The word component sums the trainable table row, the fixed pretrained
        row, and the char BiLSTM vector; the char BiLSTM runs once per
        direction over the distinct forms of the batch. With an `rng` (train
        mode) each token's word and POS components are independently replaced
        by dedicated unknown embeddings at the configured word-dropout rate.
        """
        cfg = self.config
        n = batch.word_ids.size
        x_re = ad.lookup(self.params["emb/word"], batch.word_ids)
        x_pe = ad.constant(self.pretrained[batch.word_ids])
        x_ce = ad.lookup(self._char_vectors(batch), batch.form_ids)
        x_we = ad.add(ad.add(x_re, x_pe), x_ce)

        x_te = ad.lookup(self.params["emb/pos"], batch.pos_ids)

        if rng is not None and cfg.word_dropout > 0:
            keep_w = ad.constant((rng.random((n, 1)) >= cfg.word_dropout).astype(np.float64))
            keep_t = ad.constant((rng.random((n, 1)) >= cfg.word_dropout).astype(np.float64))
            unk_w = ad.reshape(self.params["emb/unk_word"], (1, cfg.word_dim))
            unk_t = ad.reshape(self.params["emb/unk_pos"], (1, cfg.pos_dim))
            x_we = ad.add(ad.mul(x_we, keep_w),
                          ad.mul(unk_w, ad.constant(1.0 - keep_w.data)))
            x_te = ad.add(ad.mul(x_te, keep_t),
                          ad.mul(unk_t, ad.constant(1.0 - keep_t.data)))

        parts = [x_we, x_te]
        if batch.contexts is not None:
            parts.append(ad.constant(batch.contexts))
        return ad.concat(parts, axis=1)

    def _bilstm(self, x: Tensor, lengths: np.ndarray, prefix: str) -> tuple[Tensor, Tensor]:
        """The forward and backward `lstm_seq` states of the BiLSTM `prefix`."""
        return tuple(ad.lstm_seq(x, self.params[f"{prefix}/{d}/w"],
                                 self.params[f"{prefix}/{d}/u"], self.params[f"{prefix}/{d}/b"],
                                 lengths, reverse=d == "bw")
                     for d in ("fw", "bw"))

    def encode(self, embedded: Tensor, batch: Batch, task: str,
               rng: np.random.Generator | None = None) -> Tensor:
        """Recurrent states (N+B, rnn_size): each sentence's root, then its tokens.

        The root row is the learned root embedding. With an `rng` (train
        mode) recurrent dropout is applied between layers.
        """
        self._check_task(task)
        cfg = self.config
        dropout = rng is not None and cfg.recurrent_dropout > 0
        root = ad.reshape(self.params["emb/root"], (1, cfg.input_dim))
        states = ad.lookup(ad.concat([root, embedded], axis=0), batch.input_ids)
        lengths = batch.sizes + 1
        owner = self._owner(task, "rnn")
        prefixes = [f"rnn/{owner}/layer{layer}" for layer in range(cfg.rnn_layers)]
        if self.topology is not None and self.topology.task_rnn:
            prefixes.append(f"rnn_task/{task}")
        for layer, prefix in enumerate(prefixes):
            if layer > 0 and dropout:
                states = ad.dropout(states, cfg.recurrent_dropout, rng)
            states = ad.concat(self._bilstm(states, lengths, prefix), axis=1)
        return states

    def score_edges_labels(self, states: Tensor, batch: Batch, task: str,
                           rng: np.random.Generator | None = None
                           ) -> tuple[Tensor, Tensor]:
        """Edge scores (B, T+1, T) and label scores (B, |L|, T+1, T), input order.

        In sentence b, cell [i, j-1] scores head i (0 = root) for dependent j.
        The four FNN heads (and, with an `rng` in train mode, their edge and
        label dropout) run on real rows only: the encoder rows as they stand
        are the head rows (positions 0..n_b of each sentence) and its token
        rows the dependent rows (1..n_b).
        Both bilinears are ragged over those rows, dependent rows first, so
        each writes sentence b's scores head-major into its [:n_b+1, :n_b]
        block of the padded result. With `biaffine_bias` the edge FNN rows
        carry an appended ones column, so the last column of the (f+1, f+1)
        edge weight holds the dependent bias, its last row the head bias and
        its corner the constant. The scores are the bilinears' as they
        stand: the diagonal (i == j) is scored like any other cell, and both
        edge and label scores are 0 on the padding (i or j beyond n_b). The
        losses and the decoder read only the cells that can be edges.
        """
        self._check_task(task)
        cfg = self.config
        owner = self._owner(task, "fnn")
        dep_rows = ad.lookup(states, batch.token_rows)
        heads = {}
        for kind in FNN_TYPES:
            rows = dep_rows if kind.endswith("_dep") else states
            h = ad.tanh(ad.add(ad.matmul(rows, self.params[f"fnn/{owner}/{kind}/w"]),
                               self.params[f"fnn/{owner}/{kind}/b"]))
            rate = cfg.edge_dropout if kind.startswith("edge") else cfg.label_dropout
            if rng is not None and rate > 0:
                h = ad.dropout(h, rate, rng)
            if cfg.biaffine_bias and kind.startswith("edge"):
                h = ad.concat([h, ad.constant(np.ones((h.shape[0], 1)))], axis=1)
            heads[kind] = h
        # sentence b has n_b dependent rows and n_b + 1 head rows
        sizes = np.stack([batch.sizes, batch.sizes + 1], axis=1)

        # score(i, j) = h_j^(dep) W h_i^(head), written [head i, dep j]
        s_edge = ad.bilinear(heads["edge_dep"], self.params[f"scorer/{task}/edge"],
                             heads["edge_head"], sizes)

        s_label = ad.bilinear(heads["label_dep"], self.params[f"scorer/{task}/label"],
                              heads["label_head"], sizes)
        return s_edge, s_label

    def forward(self, sentences: Sequence[Sequence[Token]], task: str,
                rng: np.random.Generator | None = None,
                contexts: Sequence[np.ndarray | None] | None = None
                ) -> tuple[Tensor, Tensor]:
        """Scores of `score_edges_labels` for all sentences, from one `Batch`.

        The call lays the sentences out once, packed sentence after sentence
        in input order, and runs every stage once over that layout: the char
        BiLSTM over the call's distinct forms, one `lstm_seq` per encoder
        layer and direction over each sentence's root and tokens, and the FNN
        heads and bilinear scorers over those same rows. Edge scores are
        (B, T+1, T) and label scores (B, |L|, T+1, T), in input order, T the
        longest sentence; sentence b's scores are [b, :n_b+1, :n_b] and
        [b, :, :n_b+1, :n_b], and every other cell holds 0.
        Train mode (all dropout on) is `rng is not None`.
        """
        batch = self.batch(sentences, contexts)
        x = self.embed_tokens(batch, rng)
        return self.score_edges_labels(self.encode(x, batch, task, rng), batch, task, rng)

    def _check_task(self, task: str):
        if task not in self.tasks:
            raise ConfigError(f"model has no task {task!r} (tasks: {sorted(self.tasks)})")

    # ------------------------------------------------------------- checkpoint

    def save(self, path):
        """Write the model to `path`, through `atomic_open`, as an npz archive:
        first `__meta__`, a uint8 array holding the UTF-8 JSON (keys sorted) of
        the dict below, then each parameter by name in `params` order, then
        `pretrained`. All arrays but `__meta__` are float64."""
        meta = {
            "kind": "sdpkit-parser",
            "checkpoint_version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "topology": asdict(self.topology) if self.topology else None,
            "seed": self.seed,
            "vocab": {
                "word": self.word_vocab.items,
                "char": self.char_vocab.items,
                "pos": self.pos_vocab.items,
            },
            "tasks": {task: vocab.items for task, vocab in self.tasks.items()},
        }
        payload = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                                dtype=np.uint8)
        arrays = {name: p.data for name, p in self.params.items()}
        with atomic_open(path, "wb") as f:
            np.savez(f, **{_META_KEY: payload}, **arrays, pretrained=self.pretrained)

    @classmethod
    def load(cls, path) -> "ParserModel":
        """Read a file that `save` wrote, finding its arrays by name. Any other
        file raises `CheckpointError` naming `path`."""
        try:
            # opened here: `np.load(path)` leaves its file open if the archive is cut short
            with open(path, "rb") as f:
                npz = np.load(f)
                if not isinstance(npz, np.lib.npyio.NpzFile):
                    raise ValueError("one array, not an npz archive")
                with npz:
                    arrays = {name: npz[name] for name in npz.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
        try:
            meta = json.loads(arrays.pop(_META_KEY).tobytes().decode("utf-8"))
        except (KeyError, ValueError):  # no metadata, or not UTF-8 JSON
            meta = None
        found = (meta.get("kind"), meta.get("checkpoint_version")) \
            if isinstance(meta, dict) else None
        if found != ("sdpkit-parser", CHECKPOINT_VERSION):
            raise CheckpointError(f"{path}: not a parser checkpoint of version "
                                  f"{CHECKPOINT_VERSION} (metadata kind, version: {found})")

        def settings(kind, values):
            fields = set(kind.__dataclass_fields__)
            if set(values) != fields:
                raise CheckpointError(f"{path}: {kind.__name__} keys {sorted(values)} "
                                      f"differ from {sorted(fields)}")
            return kind(**values)

        def vocab(items, unk):
            rebuilt = Vocab(items, unk)
            if rebuilt.items != list(items):
                raise CheckpointError(f"{path}: a saved vocabulary is not in canonical order")
            return rebuilt

        try:
            config = settings(NetworkConfig, meta["config"])
            topology = settings(SharingTopology, meta["topology"]) if meta["topology"] else None
            tasks = {task: vocab(items, unk=False) for task, items in meta["tasks"].items()}
            words, chars, pos = (vocab(meta["vocab"][kind], unk=True)
                                 for kind in ("word", "char", "pos"))
            seed = meta["seed"]
        except (KeyError, TypeError, AttributeError, ConfigError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint metadata "
                                  f"({type(exc).__name__}: {exc})") from exc
        # the saved arrays become the parameters; nothing is drawn at random
        model = cls.__new__(cls)
        try:
            model._configure(config, tasks, words, chars, pos, topology, seed,
                             arrays.get("pretrained"))
        except ConfigError as exc:  # such as a pretrained table of the wrong shape
            raise CheckpointError(f"{path}: {exc}") from exc
        specs = model._param_specs()
        # `save` always writes the pretrained table; zeros must not stand in for it
        missing = ({name for name, _, _ in specs} | {"pretrained"}) - set(arrays)
        if missing:
            raise CheckpointError(f"{path}: missing tensors {sorted(missing)}")
        for name, shape, _ in specs:
            data = arrays[name]
            if data.shape != shape:
                raise CheckpointError(f"{path}: tensor {name} has shape {data.shape}, "
                                      f"expected {shape}")
        model._install([(name, arrays[name]) for name, _, _ in specs])
        return model
