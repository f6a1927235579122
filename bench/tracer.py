"""Out-of-package tracer for the sdpkit benchmark.

The tracer replaces public functions of the `sdpkit` modules with timing
wrappers, at the attribute each caller looks up at call time: a module global
for callers that imported the name (`sdpkit.cli.train`), the defining module's
attribute for callers that go through the module (`sdpkit.autodiff.lstm_seq`,
looked up as `ad.lstm_seq`), and class attributes for `ParserModel` methods.
Nothing inside `src/` changes. `uninstall` puts every original object back.

A span is (name, start, end, parent index). Self time is a span's duration
minus the time its direct children cover. The backward pass of `lstm_seq` and
`bilinear` is timed by wrapping the backward closure of the returned tensor,
so those spans nest under `autodiff.backward`. Small autodiff primitives are
only counted, to keep the overhead low.

Per-layer `*_s` metrics are seconds per traced unit of self time, except the
spans in INCLUSIVE, which report their whole duration; the self time of
`autodiff.backward` (the tape walk and the untimed small ops) is reported as
`autodiff.backward.other_s`. Counts are per unit, ratios over all units.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict

_COUNTED_PRIMITIVES = (
    "add", "mul", "scale", "shift", "matmul", "transpose", "reshape", "concat",
    "slice_rows", "flip_rows", "sum_all", "mean_all", "sigmoid", "tanh",
    "softmax_rows", "dropout", "lookup", "pick_cells", "sigmoid_cross_entropy",
    "softmax_cross_entropy")

_CLI_STEPS = ("synth", "intersect", "project", "split", "train", "parse", "score")

# Spans whose *_s metric is inclusive wall time: they exist to bound a phase
# whose parts are reported by their own spans.
INCLUSIVE = {"autodiff.backward", "training.evaluate_semantic"} | {
    f"cli.{step}" for step in _CLI_STEPS}

_LAYER_RE = re.compile(r"/layer(\d+)/")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS = {
    **{f"autodiff.lstm_seq.{part}.{phase}_s": "s"
       for part in ("layer0", "layer1", "layer2", "char") for phase in ("fwd", "bwd")},
    **{f"autodiff.bilinear.{kind}.{phase}_s": "s"
       for kind in ("edge", "label") for phase in ("fwd", "bwd")},
    "autodiff.backward_s": "s",
    "autodiff.backward.other_s": "s",
    "autodiff.op_calls_per_token": "calls/tok",
    "autodiff.adam_step_s": "s",
    "autodiff.adam_steps": "count",
    "network.model_init_s": "s",
    "network.embed_tokens_s": "s",
    "network.encode_s": "s",
    "network.score_edges_labels_s": "s",
    "network.char_cache_hit_ratio": "ratio",
    "network.checkpoint_save_s": "s",
    "network.checkpoint_load_s": "s",
    "training.train_s": "s",
    "training.semantic_loss_s": "s",
    "training.syntactic_loss_s": "s",
    "training.evaluate_semantic_s": "s",
    "training.parse_semantic_s": "s",
    "training.decode_semantic_s": "s",
    "training.decode.edges_per_token": "edges/tok",
    "training.decode.cyclic_ratio": "ratio",
    "evaluation.score_graphs_s": "s",
    "formats.read_s": "s",
    "formats.write_s": "s",
    "formats.write_rejected": "count",
    "projection.intersect_s": "s",
    "projection.project_s": "s",
    "projection.decided_cell_ratio": "ratio",
    "synth.synth_corpus_s": "s",
    **{f"cli.{step}_s": "s" for step in _CLI_STEPS},
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

def _layer_label(name: str) -> str:
    """Span label of an lstm_seq call, from its input-weight parameter name."""
    if name.startswith("char_rnn/"):
        return "char"
    match = _LAYER_RE.search(name)
    if match:
        return f"layer{match.group(1)}"
    return "task" if name.startswith("rnn_task/") else "other"


def _scorer_label(name: str) -> str:
    """Span label of a bilinear call: the last part of 'scorer/<task>/<kind>'."""
    kind = name.rsplit("/", 1)[-1]
    return kind if kind in ("edge", "label") else "other"


class Tracer:
    """Spans and counters recorded by wrappers around public sdpkit names."""

    def __init__(self):
        self.clock = time.perf_counter
        # [name, start, end, parent index]; a span's index is its position
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.restored: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def end(self, sid: int):
        self._stack.pop()
        self.spans[sid][2] = self.clock()

    def timed(self, name: str, func, after=None):
        """`func` under a span called `name`.

        `after(args, result)` records counts from a call that returned; a call
        that raised adds one to the count `<name>.raised`.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                out = func(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{name}.raised"] += 1
                raise
            finally:
                tracer.end(sid)
            if after is not None:
                after(args, out)
            return out
        wrapper.__wrapped__ = func
        return wrapper

    # --------------------------------------------------------- installation

    def _replace(self, owner, attr: str, new):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr: str, name: str, after=None):
        self._replace(owner, attr, self.timed(name, getattr(owner, attr), after))

    def install(self, sdpkit):
        """Wrap the public names; `sdpkit` is the imported package."""
        ad, net, tr = sdpkit.autodiff, sdpkit.network, sdpkit.training
        cli, fm, pj, sy, ev = (sdpkit.cli, sdpkit.formats, sdpkit.projection,
                               sdpkit.synth, sdpkit.evaluation)
        c = self.counts

        def counting(key: str, amount):
            def after(args, out):
                c[key] += amount(args, out)
            return after

        def count_decoded(args, graph):
            c["training.decode.graphs"] += 1
            c["training.decode.tokens"] += graph.n
            c["training.decode.edges"] += len(graph.edges)
            c["training.decode.cyclic"] += not sdpkit.graph.is_acyclic(graph)

        def count_cells(args, partial):
            aligned = len(partial.aligned) - 1  # the root is always aligned
            c["projection.decided_cells"] += aligned * aligned
            c["projection.cells"] += partial.graph.n * partial.graph.n

        try:
            for name in _COUNTED_PRIMITIVES:
                self._replace(ad, name, self._counter(getattr(ad, name)))
            self._replace(ad, "lstm_seq", self._primitive("autodiff.lstm_seq", _layer_label,
                                                          ad.lstm_seq))
            self._replace(ad, "bilinear", self._primitive("autodiff.bilinear", _scorer_label,
                                                          ad.bilinear))
            self._wrap(ad, "adam_step", "autodiff.adam_step",
                       counting("autodiff.adam_steps", lambda args, out: 1))
            self._wrap(ad.Tensor, "backward", "autodiff.backward")

            model = net.ParserModel
            self._wrap(model, "__init__", "network.model_init")
            self._wrap(model, "embed_tokens", "network.embed_tokens",
                       counting("network.tokens_embedded", lambda args, out: out.shape[0]))
            self._wrap(model, "encode", "network.encode")
            self._wrap(model, "score_edges_labels", "network.score_edges_labels")
            self._wrap(model, "save", "network.checkpoint_save")
            load = model.__dict__["load"].__func__
            self._replace(model, "load",
                          classmethod(self.timed("network.checkpoint_load", load)))

            for name in ("train", "semantic_loss", "syntactic_loss", "evaluate_semantic",
                         "parse_semantic"):
                self._wrap(tr, name, f"training.{name}")
            self._wrap(tr, "decode_semantic", "training.decode_semantic", count_decoded)
            for module in (tr, cli, ev):
                self._wrap(module, "score_graphs", "evaluation.score_graphs")
            self._wrap(cli, "train", "training.train")
            self._wrap(cli, "parse_semantic", "training.parse_semantic")
            for name in ("read_sdp", "read_alignments", "read_conllu"):
                self._wrap(cli, name, "formats.read")
            for module, names in ((cli, ("write_sdp", "write_alignments")),
                                  (sy, ("write_sdp", "write_conllu", "write_alignments")),
                                  (fm, ("write_sdp",))):
                for name in names:
                    self._wrap(module, name, "formats.write")
            for module in (cli, pj):
                self._wrap(module, "intersect_alignments", "projection.intersect")
                self._wrap(module, "project_graph", "projection.project", count_cells)
            for module in (cli, sy):
                self._wrap(module, "synth_corpus", "synth.synth_corpus")
            for step in _CLI_STEPS:
                self._wrap(cli, f"cmd_{step}", f"cli.{step}")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Restore every replaced attribute, newest first; `restored` lists them."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            self.restored.append((owner, attr, original))

    def _primitive(self, prefix: str, label_of, func):
        """A primitive whose forward call and backward closure both get spans,
        labelled by the name of its weight argument (the second one)."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = f"{prefix}.{label_of(getattr(args[1], 'name', ''))}"
            tracer.counts["autodiff.op_calls"] += 1
            out = tracer.timed(f"{label}.fwd", func)(*args, **kwargs)
            if out._backward is not None:
                out._backward = tracer.timed(f"{label}.bwd", out._backward)
            return out
        wrapper.__wrapped__ = func
        return wrapper

    def _counter(self, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["autodiff.op_calls"] += 1
            return func(*args, **kwargs)
        wrapper.__wrapped__ = func
        return wrapper

    # ------------------------------------------------------------ summaries

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: (self seconds, inclusive seconds) over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            total_s[name] += end - start
        return self_s, total_s

    def metrics(self, units: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics averaged per traced unit; ratios over all units."""
        self_s, total_s = self.totals()
        c = self.counts
        per_unit = 1.0 / units
        out = {}
        for key in PER_LAYER_METRICS:
            if key.endswith("_s") and not key.startswith("trace."):
                span = key[:-2]
                source = total_s if span in INCLUSIVE else self_s
                out[key] = source.get(span, 0.0) * per_unit
        out["autodiff.backward.other_s"] = self_s.get("autodiff.backward", 0.0) * per_unit
        tokens = c["network.tokens_embedded"]
        out["autodiff.op_calls_per_token"] = c["autodiff.op_calls"] / tokens if tokens else 0.0
        out["autodiff.adam_steps"] = c["autodiff.adam_steps"] * per_unit
        char_runs = sum(1 for span in self.spans if span[0] == "autodiff.lstm_seq.char.fwd") / 2
        out["network.char_cache_hit_ratio"] = 1.0 - char_runs / tokens if tokens else 0.0
        decoded = c["training.decode.tokens"]
        out["training.decode.edges_per_token"] = (c["training.decode.edges"] / decoded
                                                  if decoded else 0.0)
        graphs = c["training.decode.graphs"]
        out["training.decode.cyclic_ratio"] = c["training.decode.cyclic"] / graphs if graphs else 0.0
        out["formats.write_rejected"] = c["formats.write.raised"] * per_unit
        cells = c["projection.cells"]
        out["projection.decided_cell_ratio"] = (c["projection.decided_cells"] / cells
                                                if cells else 0.0)
        out["trace.overhead_ratio"] = traced_wall / untraced_wall
        out["trace.unattributed_s"] = self_s.get("bench.unit", 0.0) * per_unit
        return out
