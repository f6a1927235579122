"""The parser network: embeddings, deep BiLSTM encoder, FNN heads, bilinear scorers.

A token vector is the concatenation of a word component, a POS embedding, and
optional external context features. The word component sums a trainable table,
a fixed pretrained table, and a character BiLSTM's final states (no projection,
so the char hidden size is half the word dimension per direction). A learned
root row is prepended before encoding; scores are matrices over head positions
0..n and dependent positions 1..n, with self-loop edges masked to a large
negative.

In multitask mode the embedding layer is always shared; the recurrent stack
and the four attention FNNs are shared or task-specific according to the
`SharingTopology`, with an optional extra task-specific recurrent layer on
top of a shared stack. Bilinear scorers are always task-specific.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import CheckpointError, ConfigError
from .graph import TOP_LABEL, Token

NEG_SCORE = -1e9
UNK = "<unk>"

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
        if len(self._index) != len(self.items):
            raise ConfigError("duplicate vocabulary items")

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

    def value(self, idx: int) -> str:
        return self.items[idx]


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


def _zeros(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return np.zeros(shape)


FNN_TYPES = ("edge_dep", "edge_head", "label_dep", "label_head")


class ParserModel:
    """All trainable state plus the forward operations of the parser."""

    def __init__(self, config: NetworkConfig, tasks: dict[str, Vocab],
                 word_vocab: Vocab, char_vocab: Vocab, pos_vocab: Vocab,
                 topology: SharingTopology | None = None, seed: int = 0,
                 pretrained: np.ndarray | None = None):
        self._configure(config, tasks, word_vocab, char_vocab, pos_vocab, topology, seed,
                        pretrained)
        for name, shape, init in self._param_specs():
            self._register(name, init(_rng_for(seed, name), shape))

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
        self.params: dict[str, Parameter] = {}

    def _register(self, name: str, data: np.ndarray):
        if name in self.params:
            raise ConfigError(f"duplicate parameter {name!r}")
        self.params[name] = Parameter(data, name=name)

    def _rnn_owner(self, task: str) -> str:
        if self.topology is None:
            return task
        return "shared" if self.topology.shared_rnn else task

    def _fnn_owner(self, task: str) -> str:
        if self.topology is None:
            return task
        return "shared" if self.topology.shared_fnn else task

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
        for owner in sorted({self._rnn_owner(task) for task in self.tasks}):
            d_in = cfg.input_dim
            for layer in range(cfg.rnn_layers):
                lstm(f"rnn/{owner}/layer{layer}", d_in, half)
                d_in = cfg.rnn_size
        if self.topology is not None and self.topology.task_rnn:
            for task in sorted(self.tasks):
                lstm(f"rnn_task/{task}", cfg.rnn_size, half)

        for owner in sorted({self._fnn_owner(task) for task in self.tasks}):
            for kind in FNN_TYPES:
                specs.extend([(f"fnn/{owner}/{kind}/w", (cfg.rnn_size, cfg.fnn_size), _glorot),
                              (f"fnn/{owner}/{kind}/b", (cfg.fnn_size,), _zeros)])

        for task in sorted(self.tasks):
            labels = len(self.tasks[task])
            specs.extend([(f"scorer/{task}/edge", (cfg.fnn_size, cfg.fnn_size), _glorot),
                          (f"scorer/{task}/label", (labels, cfg.fnn_size, cfg.fnn_size),
                           _glorot)])
            if cfg.biaffine_bias:
                specs.extend([(f"scorer/{task}/edge_bias_dep", (cfg.fnn_size,), _normal(0.0)),
                              (f"scorer/{task}/edge_bias_head", (cfg.fnn_size,), _normal(0.0)),
                              (f"scorer/{task}/edge_bias", (1,), _normal(0.0))])
        return specs

    def parameters(self) -> list[Parameter]:
        return [self.params[name] for name in sorted(self.params)]

    # ---------------------------------------------------------------- forward

    def _char_vector(self, form: str) -> Tensor:
        ids = np.array([self.char_vocab.id(c) for c in form], dtype=np.int64)
        emb = ad.lookup(self.params["emb/char"], ids)
        fw = ad.lstm_seq(emb, self.params["char_rnn/fw/w"],
                         self.params["char_rnn/fw/u"], self.params["char_rnn/fw/b"])
        bw = ad.lstm_seq(ad.flip_rows(emb), self.params["char_rnn/bw/w"],
                         self.params["char_rnn/bw/u"], self.params["char_rnn/bw/b"])
        last_f = ad.slice_rows(fw, len(form) - 1, len(form))
        last_b = ad.slice_rows(bw, len(form) - 1, len(form))
        return ad.concat([last_f, last_b], axis=1)

    def embed_tokens(self, sentence: Sequence[Token], char_vectors: dict[str, Tensor],
                     rng: np.random.Generator | None = None,
                     context: np.ndarray | None = None) -> Tensor:
        """Token input matrix of shape (n, word_dim + pos_dim + context_dim).

        The word component sums the trainable table row, the fixed pretrained
        row, and the char BiLSTM vector. `char_vectors` maps forms to char
        vectors already built on the current tape and gains the new ones;
        sharing them is exact because the char BiLSTM carries no dropout.
        With an `rng` (train mode) each token's word and POS components are
        independently replaced by dedicated unknown embeddings at the
        configured word-dropout rate.
        """
        cfg = self.config
        n = len(sentence)
        if n == 0:
            raise ConfigError("cannot embed an empty sentence")
        word_ids = np.array([self.word_vocab.id(t.form) for t in sentence], dtype=np.int64)
        pos_ids = np.array([self.pos_vocab.id(t.pos) for t in sentence], dtype=np.int64)

        x_re = ad.lookup(self.params["emb/word"], word_ids)
        x_pe = ad.constant(self.pretrained[word_ids])
        char_rows = []
        for tok in sentence:
            if tok.form not in char_vectors:
                char_vectors[tok.form] = self._char_vector(tok.form)
            char_rows.append(char_vectors[tok.form])
        x_ce = char_rows[0] if n == 1 else ad.concat(char_rows, axis=0)
        x_we = ad.add(ad.add(x_re, x_pe), x_ce)

        x_te = ad.lookup(self.params["emb/pos"], pos_ids)

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
        if cfg.context_dim:
            if context is None:
                raise ConfigError("model was configured with context vectors; none given")
            context = np.asarray(context, dtype=np.float64)
            if context.shape != (n, cfg.context_dim):
                raise ConfigError(f"context shape {context.shape} != ({n}, {cfg.context_dim})")
            parts.append(ad.constant(context))
        elif context is not None:
            raise ConfigError("context vectors given but context_dim is 0")
        return ad.concat(parts, axis=1)

    def _bilstm_layer(self, x: Tensor, prefix: str) -> Tensor:
        fw = ad.lstm_seq(x, self.params[f"{prefix}/fw/w"],
                         self.params[f"{prefix}/fw/u"], self.params[f"{prefix}/fw/b"])
        bw = ad.flip_rows(ad.lstm_seq(ad.flip_rows(x), self.params[f"{prefix}/bw/w"],
                                      self.params[f"{prefix}/bw/u"],
                                      self.params[f"{prefix}/bw/b"]))
        return ad.concat([fw, bw], axis=1)

    def encode(self, embedded: Tensor, task: str,
               rng: np.random.Generator | None = None) -> Tensor:
        """Recurrent states for positions 0..n; row 0 is the learned root.

        With an `rng` (train mode) recurrent dropout is applied between layers.
        """
        self._check_task(task)
        cfg = self.config
        dropout = rng is not None and cfg.recurrent_dropout > 0
        root = ad.reshape(self.params["emb/root"], (1, cfg.input_dim))
        states = ad.concat([root, embedded], axis=0)
        owner = self._rnn_owner(task)
        for layer in range(cfg.rnn_layers):
            if layer > 0 and dropout:
                states = ad.dropout(states, cfg.recurrent_dropout, rng)
            states = self._bilstm_layer(states, f"rnn/{owner}/layer{layer}")
        if self.topology is not None and self.topology.task_rnn:
            if dropout:
                states = ad.dropout(states, cfg.recurrent_dropout, rng)
            states = self._bilstm_layer(states, f"rnn_task/{task}")
        return states

    def score_edges_labels(self, states: Tensor, task: str,
                           rng: np.random.Generator | None = None
                           ) -> tuple[Tensor, Tensor]:
        """Edge scores (n+1, n) and label scores (|L|, n+1, n) for one task.

        Row i is the head position (0 = root), column j-1 the dependent.
        Diagonal edge cells (i == j) are masked to a large negative score so
        decoding and head softmaxes never select self-loops; label scores are
        read only at edges, so their diagonal is left as computed. With an
        `rng` (train mode) the FNN outputs get edge and label dropout.
        """
        self._check_task(task)
        cfg = self.config
        owner = self._fnn_owner(task)
        n_plus_1 = states.shape[0]
        n = n_plus_1 - 1

        heads = {}
        for kind in FNN_TYPES:
            h = ad.tanh(ad.add(ad.matmul(states, self.params[f"fnn/{owner}/{kind}/w"]),
                               self.params[f"fnn/{owner}/{kind}/b"]))
            rate = cfg.edge_dropout if kind.startswith("edge") else cfg.label_dropout
            if rng is not None and rate > 0:
                h = ad.dropout(h, rate, rng)
            heads[kind] = h

        edge_dep = ad.slice_rows(heads["edge_dep"], 1, n_plus_1)
        label_dep = ad.slice_rows(heads["label_dep"], 1, n_plus_1)

        # written form: score(i, j) = h_i^(dep) W h_j^(head); stored as [head, dep]
        s_edge = ad.transpose(ad.bilinear(edge_dep, self.params[f"scorer/{task}/edge"],
                                          heads["edge_head"]))
        if cfg.biaffine_bias:
            dep_bias = ad.matmul(edge_dep,
                                 ad.reshape(self.params[f"scorer/{task}/edge_bias_dep"],
                                            (cfg.fnn_size, 1)))
            head_bias = ad.matmul(heads["edge_head"],
                                  ad.reshape(self.params[f"scorer/{task}/edge_bias_head"],
                                             (cfg.fnn_size, 1)))
            s_edge = ad.add(s_edge, ad.transpose(dep_bias))
            s_edge = ad.add(s_edge, head_bias)
            s_edge = ad.add(s_edge, ad.reshape(self.params[f"scorer/{task}/edge_bias"], (1, 1)))
        diag = np.eye(n_plus_1, n, k=-1)  # cells (j, j-1): head j, dependent j
        s_edge = ad.add(ad.mul(s_edge, ad.constant(1.0 - diag)), ad.constant(diag * NEG_SCORE))

        s_label = ad.transpose(ad.bilinear(label_dep, self.params[f"scorer/{task}/label"],
                                           heads["label_head"]), (0, 2, 1))
        return s_edge, s_label

    def forward(self, sentences: Sequence[Sequence[Token]], task: str,
                rng: np.random.Generator | None = None,
                contexts: Sequence[np.ndarray | None] | None = None
                ) -> Iterator[tuple[Tensor, Tensor]]:
        """Yield (s_edge, s_label) of `score_edges_labels` for each sentence, in order.

        Train mode (all dropout on) is `rng is not None`; the draws come from
        `rng` sentence by sentence. The call owns one char-vector table, so a
        form's char BiLSTM runs once per call. Scores are built lazily: the
        caller may consume (for example decode) each pair before the next
        sentence runs.
        """
        char_vectors: dict[str, Tensor] = {}
        for i, sentence in enumerate(sentences):
            context = contexts[i] if contexts is not None else None
            x = self.embed_tokens(sentence, char_vectors, rng, context)
            yield self.score_edges_labels(self.encode(x, task, rng), task, rng)

    def _check_task(self, task: str):
        if task not in self.tasks:
            raise ConfigError(f"model has no task {task!r} (tasks: {sorted(self.tasks)})")

    # ------------------------------------------------------------- checkpoint

    def save(self, path):
        meta = {
            "kind": "sdpkit-parser",
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
        arrays = {name: p.data for name, p in self.params.items()}
        arrays["pretrained"] = self.pretrained
        ad.save_arrays(path, arrays, meta)

    @classmethod
    def load(cls, path) -> "ParserModel":
        arrays, meta = ad.load_arrays(path)
        if meta.get("kind") != "sdpkit-parser":
            raise CheckpointError(f"{path}: not a parser checkpoint")

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
        except (KeyError, TypeError, AttributeError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint metadata "
                                  f"({type(exc).__name__}: {exc})") from exc
        # the saved arrays become the parameters; nothing is drawn at random
        model = cls.__new__(cls)
        model._configure(config, tasks, words, chars, pos, topology, seed,
                         arrays.get("pretrained"))
        specs = model._param_specs()
        missing = {name for name, _, _ in specs} - set(arrays)
        if missing:
            raise CheckpointError(f"{path}: missing tensors {sorted(missing)}")
        for name, shape, _ in specs:
            data = arrays[name]
            if data.shape != shape:
                raise CheckpointError(f"{path}: tensor {name} has shape {data.shape}, "
                                      f"expected {shape}")
            model._register(name, data)
        return model
