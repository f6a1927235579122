"""The parser network: embeddings, deep BiLSTM encoder, FNN heads, bilinear scorers.

A token vector is its word component followed by its POS embedding, so the
encoder reads word_dim + pos_dim per token. The word component sums a
trainable table row and a character BiLSTM's final states; pretrained vectors
only initialise that table (`ParserModel`). The char embedding and the char
BiLSTM's hidden size per direction are both half the word dimension, so its
two final states make word_dim with no projection. A learned root row is
prepended before encoding; scores are matrices over head positions 0..n and
dependent positions 1..n, head-major as `ad.bilinear` writes them.
Every cell is scored, the self-loop diagonal included; which cells can be
edges is decided by the losses and the decoder (`training.edge_cells`). The
optional biaffine bias (Dozat & Manning) is a zero-initialised border of the
edge weight, met by a ones column on the edge FNN rows. One model call runs
every stage once over a `Batch` of sentences in one row layout, sentence
after sentence in input order: each sentence's root and then its tokens on
consecutive rows, from the encoder's input to the scorer's heads. Only the
scores come back padded, with 0 on the padding. Each encoder layer is one
`ad.lstm_seq` call that runs both directions in one step loop. The char
BiLSTM keeps one call per direction: the bench tracer counts its two spans
per run for `network.char_cache_hit_ratio`.

In multitask mode the embedding layer is always shared; the recurrent stack
and the four attention FNNs are shared or task-specific according to the
`SharingTopology`, with an optional extra task-specific recurrent layer on
top of a shared stack. Bilinear scorers are always task-specific.

Every parameter's data is a view into one flat array, `ParserModel.param_data`
(see `ad.parameter_set`), laid out in `ParserModel._param_specs`' order. A
trained model passes it from `sdpkit train` to `sdpkit parse` as one member of
a checkpoint file. Its format is this module's alone: `_param_specs` orders
it, `ParserModel.save` writes it, `ParserModel.load` reads it, and
`CHECKPOINT_VERSION` versions it.
"""

from __future__ import annotations

import json
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import AutodiffError, CheckpointError, ConfigError
from .formats import atomic_open
from .graph import TOP_LABEL, Token

UNK = "<unk>"

# Raise the version whenever the tensors or the metadata that `save` writes change.
CHECKPOINT_VERSION = 5
_META_KEY = "__meta__"
_PARAMS_KEY = "parameters"

SEMANTIC = "semantic"
SYNTACTIC = "syntactic"


@dataclass(frozen=True)
class NetworkConfig:
    word_dim: int = 100
    pos_dim: int = 100
    rnn_size: int = 600          # concatenated output, half per direction
    rnn_layers: int = 3
    fnn_size: int = 600
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
        for name in ("word_dropout", "recurrent_dropout", "edge_dropout", "label_dropout"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0,1), got {rate}")

    @property
    def input_dim(self) -> int:
        return self.word_dim + self.pos_dim


def check_field_types(kind, values: dict, where: str):
    """Refuse, naming `where`, a value of `values` whose type is not that of the
    default of its field of the dataclass `kind`: bool, int or float, where a
    float field takes an int too, as JSON may write a whole float."""
    for key, value in values.items():
        want = type(kind.__dataclass_fields__[key].default)
        if type(value) not in ((int, float) if want is float else (want,)):
            raise ConfigError(f"{where} key {key!r} must be of type {want.__name__}, "
                              f"got {json.dumps(value)}")


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

    def __init__(self, items: Iterable[str], unk: bool = True):
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
    return Vocab(words), Vocab(chars), Vocab(pos)


def semantic_label_vocab(labels: Sequence[str]) -> Vocab:
    """Closed label vocabulary for the semantic task; TOP is always a member."""
    return Vocab([*labels, TOP_LABEL], unk=False)


def _rng_for(seed: int, name: str) -> np.random.Generator:
    # per-name streams keep initial values independent of creation order,
    # so single-task and multitask models share identical common parameters
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


# initializers of `ParserModel._param_specs`: (rng, out) draws in place into
# `out`, a parameter's data, bit for bit what rng.normal(0, 0.1) and
# rng.uniform(-limit, limit) would return for its shape

def _normal(rng: np.random.Generator, out: np.ndarray):
    rng.standard_normal(out=out)
    out *= 0.1


def _glorot(rng: np.random.Generator, out: np.ndarray):
    limit = np.sqrt(6.0 / (out.shape[-2] + out.shape[-1]))
    rng.random(out=out)
    out *= 2.0 * limit
    out -= limit


def _glorot_bordered(rng: np.random.Generator, out: np.ndarray):
    """`_glorot` of the shape one smaller, then a zero last row and column."""
    inner = np.empty((out.shape[0] - 1, out.shape[1] - 1))
    _glorot(rng, inner)
    out[...] = np.pad(inner, (0, 1))


def _zeros(rng: np.random.Generator, out: np.ndarray):
    out.fill(0.0)


FNN_TYPES = ("edge_dep", "edge_head", "label_dep", "label_head")


@dataclass(frozen=True, eq=False)
class Batch:
    """The sentences of one model call, in the one row layout every stage reads.

    Everything is packed sentence after sentence in input order. The tokens
    take N rows (`word_ids`, `pos_ids`, `form_ids`). The encoder runs on
    N + B rows, each sentence's root and then its tokens, so sentence b's
    positions 0..n_b are n_b + 1 consecutive rows; the scorer takes those rows
    as its head rows and the token rows (`token_rows`) as its dependent rows.
    The char BiLSTM reads the call's distinct forms in sorted order,
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
    input_ids: np.ndarray         # (N+B,) row of [root; tokens] behind each encoder row
    token_rows: np.ndarray        # (N,) encoder row of each token


class ParserModel:
    """All trainable state plus the forward operations of the parser."""

    def __init__(self, config: NetworkConfig, tasks: dict[str, Vocab],
                 word_vocab: Vocab, char_vocab: Vocab, pos_vocab: Vocab,
                 topology: SharingTopology | None = None, seed: int = 0,
                 pretrained: dict[str, np.ndarray] | None = None):
        """`pretrained` maps words to vectors of `config.word_dim`, as
        `formats.read_word_vectors` returns them. Each vocabulary word's vector
        is added to its drawn row of the word table, <unk>'s to row 0, which every
        form outside the vocabulary reads; every other row keeps its draw. With
        no weight decay, training that sum takes the steps that Dozat & Manning's
        trainable table beside a fixed pretrained one would take. No token of the
        corpus a vocabulary was built from reads row 0 (`sdpkit train` builds it
        so), and training leaves that row at its draw plus <unk>'s vector."""
        self._configure(config, tasks, word_vocab, char_vocab, pos_vocab, topology, seed)
        specs = self._param_specs()
        # one flat data array for the whole model and nothing beside it (Adam's
        # moments belong to one `train` call); each initializer draws into its view
        self.param_data = np.empty(sum(math.prod(shape) for _, shape, _ in specs))
        self.params: dict[str, Parameter] = ad.parameter_set(
            {name: shape for name, shape, _ in specs}, self.param_data)
        for name, _, init in specs:
            init(_rng_for(seed, name), self.params[name].data)
        for word, vector in (pretrained or {}).items():
            if word in word_vocab:  # the vectors of other words are ignored
                if vector.shape != (config.word_dim,):
                    raise ConfigError(f"pretrained vector for {word!r} has shape "
                                      f"{vector.shape}, expected ({config.word_dim},)")
                self.params["emb/word"].data[word_vocab.id(word)] += vector

    # ------------------------------------------------------------------ setup

    def _configure(self, config, tasks, word_vocab, char_vocab, pos_vocab, topology, seed):
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

    def _owner(self, task: str, stack: str) -> str:
        """Owner of `task`'s "rnn" or "fnn" parameters: the task, or "shared"."""
        shared = self.topology is not None and getattr(self.topology, f"shared_{stack}")
        return "shared" if shared else task

    def _param_specs(self) -> list[tuple[str, tuple, object]]:
        """(name, shape, initializer) of every parameter the model owns, each
        named once, sorted by name: the layout of `param_data` and so of a
        checkpoint, which `CHECKPOINT_VERSION` versions."""
        cfg = self.config
        specs = [("emb/word", (len(self.word_vocab), cfg.word_dim), _normal),
                 ("emb/pos", (len(self.pos_vocab), cfg.pos_dim), _normal),
                 ("emb/char", (len(self.char_vocab), cfg.word_dim // 2), _normal),
                 ("emb/unk_word", (1, cfg.word_dim), _normal),
                 ("emb/unk_pos", (1, cfg.pos_dim), _normal),
                 ("emb/root", (1, cfg.input_dim), _normal)]

        def lstm(prefix: str, d_in: int, hidden: int):
            for direction in ("fw", "bw"):
                specs.extend([(f"{prefix}/{direction}/w", (d_in, 4 * hidden), _glorot),
                              (f"{prefix}/{direction}/u", (hidden, 4 * hidden), _glorot),
                              (f"{prefix}/{direction}/b", (4 * hidden,), _zeros)])

        lstm("char_rnn", cfg.word_dim // 2, cfg.word_dim // 2)
        half = cfg.rnn_size // 2
        for owner in {self._owner(task, "rnn") for task in self.tasks}:
            d_in = cfg.input_dim
            for layer in range(cfg.rnn_layers):
                lstm(f"rnn/{owner}/layer{layer}", d_in, half)
                d_in = cfg.rnn_size
        if self.topology is not None and self.topology.task_rnn:
            for task in self.tasks:
                lstm(f"rnn_task/{task}", cfg.rnn_size, half)

        for owner in {self._owner(task, "fnn") for task in self.tasks}:
            for kind in FNN_TYPES:
                specs.extend([(f"fnn/{owner}/{kind}/w", (cfg.rnn_size, cfg.fnn_size), _glorot),
                              (f"fnn/{owner}/{kind}/b", (cfg.fnn_size,), _zeros)])

        # the biaffine bias is a border of the edge weight (see `score_edges_labels`)
        edge = cfg.fnn_size + cfg.biaffine_bias
        edge_init = _glorot_bordered if cfg.biaffine_bias else _glorot
        for task in self.tasks:
            labels = len(self.tasks[task])
            specs.extend([(f"scorer/{task}/edge", (edge, edge), edge_init),
                          (f"scorer/{task}/label", (labels, cfg.fnn_size, cfg.fnn_size),
                           _glorot)])
        return sorted(specs, key=lambda spec: spec[0])

    # ---------------------------------------------------------------- forward

    def batch(self, sentences: Sequence[Sequence[Token]]) -> Batch:
        """Lay out the sentences of one model call."""
        sizes = np.array([len(s) for s in sentences], dtype=np.int64)
        if sizes.size == 0 or sizes.min() == 0:
            raise ConfigError("cannot embed an empty sentence")
        tokens = [tok for s in sentences for tok in s]
        forms = sorted({tok.form for tok in tokens})
        column = {form: k for k, form in enumerate(forms)}
        count = len(tokens)
        return Batch(
            sizes=sizes,
            word_ids=np.array([self.word_vocab.id(t.form) for t in tokens], dtype=np.int64),
            pos_ids=np.array([self.pos_vocab.id(t.pos) for t in tokens], dtype=np.int64),
            form_ids=np.array([column[t.form] for t in tokens], dtype=np.int64),
            char_ids=np.array([self.char_vocab.id(c) for form in forms for c in form],
                              dtype=np.int64),
            char_lengths=np.array([len(form) for form in forms], dtype=np.int64),
            # row 0 of [root; tokens] is the root, row 1 + k token k
            input_ids=np.insert(np.arange(1, count + 1), np.cumsum(sizes) - sizes, 0),
            token_rows=np.arange(count) + np.repeat(np.arange(1, sizes.size + 1), sizes))

    def _char_vectors(self, batch: Batch) -> Tensor:
        """Final states of the char BiLSTM, (F, word_dim): one row per distinct form."""
        chars = ad.lookup(self.params["emb/char"], batch.char_ids)
        fw, bw = (ad.lstm_seq(chars, *self._lstm(f"char_rnn/{d}"), batch.char_lengths,
                              reverse=d == "bw") for d in ("fw", "bw"))
        # forward: the state at each form's last char; backward: at its first
        ends = np.cumsum(batch.char_lengths)
        return ad.concat([ad.lookup(fw, ends - 1), ad.lookup(bw, ends - batch.char_lengths)],
                         axis=1)

    def embed_tokens(self, batch: Batch, rng: np.random.Generator | None = None) -> Tensor:
        """Token input matrix (N, word_dim + pos_dim), packed in input order.

        The word component sums the word table row and the char BiLSTM
        vector; the char BiLSTM runs once per direction over the distinct
        forms of the batch. With an `rng` (train mode) each token's word and
        POS components are independently replaced by dedicated unknown rows at
        the configured word-dropout rate, each by one row selection.
        """
        cfg = self.config
        x_we = ad.add(ad.lookup(self.params["emb/word"], batch.word_ids),
                      ad.lookup(self._char_vectors(batch), batch.form_ids))
        x_te = ad.lookup(self.params["emb/pos"], batch.pos_ids)

        if rng is not None and cfg.word_dropout > 0:
            # a dropped token selects row n, the unknown row; words draw first, then POS
            n = batch.word_ids.size
            x_we, x_te = (ad.lookup(ad.concat([rows, self.params[unk]], axis=0),
                                    np.where(rng.random(n) < cfg.word_dropout, n, np.arange(n)))
                          for rows, unk in ((x_we, "emb/unk_word"), (x_te, "emb/unk_pos")))

        return ad.concat([x_we, x_te], axis=1)

    def _lstm(self, direction: str) -> tuple[Parameter, Parameter, Parameter]:
        """The (w, u, b) of one LSTM direction, e.g. "char_rnn/fw"."""
        return tuple(self.params[f"{direction}/{k}"] for k in "wub")

    def encode(self, embedded: Tensor, batch: Batch, task: str,
               rng: np.random.Generator | None = None) -> Tensor:
        """Recurrent states (N+B, rnn_size): each sentence's root, then its tokens.

        The root row is the learned root embedding. Each BiLSTM layer is one
        `lstm_seq` call that runs both directions in one step loop and
        returns the forward states in the left half. With an `rng` (train
        mode) recurrent dropout is applied between layers.
        """
        self._check_task(task)
        cfg = self.config
        dropout = rng is not None and cfg.recurrent_dropout > 0
        states = ad.lookup(ad.concat([self.params["emb/root"], embedded], axis=0),
                           batch.input_ids)
        lengths = batch.sizes + 1
        owner = self._owner(task, "rnn")
        prefixes = [f"rnn/{owner}/layer{layer}" for layer in range(cfg.rnn_layers)]
        if self.topology is not None and self.topology.task_rnn:
            prefixes.append(f"rnn_task/{task}")
        for layer, prefix in enumerate(prefixes):
            if layer > 0 and dropout:
                states = ad.dropout(states, cfg.recurrent_dropout, rng)
            states = ad.lstm_seq(states, *self._lstm(f"{prefix}/fw"), lengths,
                                 bw=self._lstm(f"{prefix}/bw"))
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
                rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
        """Scores of `score_edges_labels` for all sentences, from one `Batch`.

        The call lays the sentences out once, packed sentence after sentence
        in input order, and runs every stage once over that layout: the char
        BiLSTM over the call's distinct forms (one `lstm_seq` per direction),
        one two-direction `lstm_seq` per encoder layer over each sentence's
        root and tokens, and the FNN heads and bilinear scorers over those
        same rows. Edge scores are (B, T+1, T) and label scores
        (B, |L|, T+1, T), in input order, T the longest sentence; sentence
        b's scores are [b, :n_b+1, :n_b] and [b, :, :n_b+1, :n_b], and every
        other cell holds 0.
        Train mode (all dropout on) is `rng is not None`.
        """
        batch = self.batch(sentences)
        x = self.embed_tokens(batch, rng)
        return self.score_edges_labels(self.encode(x, batch, task, rng), batch, task, rng)

    def _check_task(self, task: str):
        if task not in self.tasks:
            raise ConfigError(f"model has no task {task!r} (tasks: {sorted(self.tasks)})")

    # ------------------------------------------------------------- checkpoint

    def save(self, path):
        """Write the model to `path`, through `atomic_open`, as an npz archive
        of two members: first `__meta__`, a uint8 array holding the UTF-8
        JSON (keys sorted) of the dict below, then `parameters`, the flat
        float64 `param_data` (every parameter flattened, in `_param_specs`'
        order). No pretrained vectors are stored apart: the word table
        holds them as `__init__` added them and training moved them."""
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
        with atomic_open(path, "wb") as f:
            np.savez(f, **{_META_KEY: payload, _PARAMS_KEY: self.param_data})

    @classmethod
    def load(cls, path) -> "ParserModel":
        """Read a file that `save` wrote, finding its members by name; the model
        adopts the `parameters` array as read, with no copy, so its word table
        holds whatever pretrained vectors it was built with. Any other file
        raises `CheckpointError` naming `path`."""
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
            check_field_types(kind, values, kind.__name__)
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
        if _PARAMS_KEY not in arrays:
            raise CheckpointError(f"{path}: missing tensors ['{_PARAMS_KEY}']")
        # the saved array becomes the parameters' data; nothing is drawn at random
        model = cls.__new__(cls)
        try:
            model._configure(config, tasks, words, chars, pos, topology, seed)
            model.params = ad.parameter_set({name: shape for name, shape, _
                                             in model._param_specs()}, arrays[_PARAMS_KEY])
        # such as a parameters member of the wrong shape
        except (ConfigError, AutodiffError) as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        model.param_data = arrays[_PARAMS_KEY]
        return model
