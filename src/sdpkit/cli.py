"""Command-line surface: one binary with subcommands covering the pipeline.

    sdpkit intersect  two directional .align files -> intersected .align
    sdpkit project    source .sdp + .align + target tokens -> projected .sdp
    sdpkit sample     density-balanced sample around a threshold
    sdpkit split      held-out split of a projected corpus
    sdpkit synth      synthetic parallel corpus (five files)
    sdpkit train      single-task or multitask training -> model checkpoint
    sdpkit parse      model + sentences -> .sdp predictions
    sdpkit score      predictions vs gold -> labeled/unlabeled F1 report
    sdpkit analyze    length buckets / head match / label contribution
    sdpkit gradcheck  end-to-end finite-difference gradient check

`parse` reads its input and checks its sentence ids (`formats.check_sentence_ids`)
before it loads the model, and writes each sentence under its input id. `score`
and `analyze` refuse a prediction file whose ids differ from the gold file's,
position by position. After the labeled F1, `score` prints `decided_lf`, the
labeled F1 over the gold's decided cells alone (`evaluation.at_decided_cells`).

Every run resolves its configuration (defaults < config file < flags), logs
it, and writes a manifest next to its primary output: the content hashes of
its inputs, the numpy version, the BLAS name and version, the BLAS thread
variables and the run's wall time. `train`'s also counts the `--heldout`
sentences whose token forms are those of a `--syntactic` sentence
(`heldout_in_syntactic`), which it reports but does not refuse. `parse`'s
gives the edges per token and the number of sentences per count of tops
(`top_counts`) of the graphs it wrote. Before it reads anything, a command
refuses an output (the manifest included) that would overwrite one of its
inputs or another of its outputs, or whose directory does not exist. Runs are
deterministic functions of (inputs, config, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, FormatError, ProjectionError, ScoringError, SdpkitError
from .evaluation import (at_decided_cells, format_report, head_match_stats, label_contribution,
                         length_buckets, score_graphs)
from .formats import (SdpDocument, atomic_open, check_sentence_ids, conllu_id,
                      read_alignments, read_conllu, read_sdp, read_word_vectors,
                      write_alignments, write_sdp)
from .graph import PartialGraph, SemanticGraph, as_partial, as_semantic, make_sentence
from .network import (SEMANTIC, SYNTACTIC, NetworkConfig, ParserModel, SharingTopology,
                      Vocab, build_vocabs, check_field_types, semantic_label_vocab)
from .projection import (IntersectedAlignment, density_sample, heldout_split,
                         intersect_alignments, project_graph)
from .synth import CORPUS_FILES, SynthConfig, synth_corpus, write_corpus
from .training import TrainConfig, parse_semantic, train

_CONFIG_SECTIONS = ("seed", "network", "train", "sharing")
# the environment variables that set numpy's BLAS thread count, which can change outputs
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with _naming(path), open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: configuration must be a JSON object")
    unknown = set(raw) - set(_CONFIG_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return raw


def _section(raw: dict, name: str, cls) -> dict:
    data = raw.get(name, {})
    if not isinstance(data, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    fields = cls.__dataclass_fields__
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"config section {name!r} has unknown keys {sorted(unknown)}")
    check_field_types(cls, data, f"config section {name!r}")
    return dict(data)


def _resolve_seed(args, raw: dict | None = None) -> int:
    """The run's seed: --seed, else the config's top-level `seed`, else 0. A seed
    is a non-negative integer, and a bool is not one."""
    if args.seed is not None:
        seed, name = args.seed, "--seed"
    else:
        seed, name = (raw or {}).get("seed", 0), "config key 'seed'"
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {json.dumps(seed)}")
    return seed


def _manifest_path(args, outputs: list[str]) -> str | None:
    """--manifest, or next to the first output; None for a command with neither."""
    if args.manifest is None and outputs:
        return outputs[0] + ".manifest.json"
    return args.manifest


def _check_outputs(args, inputs: list[str], outputs: list[str], made: str | None = None):
    """Refuse the run before it reads anything if an output, the manifest
    included, resolves to the same file as an input or another output, or
    lies in a directory that does not exist and is not `made`, the directory
    the command creates."""
    manifest = _manifest_path(args, outputs)
    claimed = {os.path.realpath(path): (path, "an input") for path in inputs}
    for path in [*outputs, *([manifest] if manifest else [])]:
        resolved = os.path.realpath(path)
        if resolved in claimed:
            other, role = claimed[resolved]
            raise ConfigError(f"{path}: output is the same file as {other}, {role} "
                              "of this command")
        claimed[resolved] = (path, "another output")
        directory = os.path.dirname(resolved)
        if not (os.path.isdir(directory) or made and directory == os.path.realpath(made)):
            raise ConfigError(f"{path}: output directory {directory} does not exist")


def _blas() -> dict | None:
    """The name and version of the BLAS that numpy reports it was built with;
    None where numpy cannot report them (`show_config` has no dict mode before
    numpy 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):
        return None


def _finish(args, inputs: list[str], outputs: list[str], config: dict, **report) -> int:
    """Every command's epilogue: log the config, write the manifest (see
    `_manifest_path`) with `report`'s entries and the seconds since `main`
    parsed the command line (`wall_s`), return 0."""
    print(f"config: {json.dumps(config, sort_keys=True)}", file=sys.stderr)
    path = _manifest_path(args, outputs)
    if path is not None:
        manifest = {
            "command": args.command,
            "inputs": {p: _sha256(p) for p in sorted(set(inputs))},
            "outputs": sorted(set(outputs)),
            "config": config,
            "numpy": np.__version__,
            "blas": _blas(),
            "threads_env": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
            "wall_s": time.perf_counter() - args.started,
            **report,
        }
        with atomic_open(path) as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


@contextmanager
def _naming(path: str):
    """Prefix `path` to a FormatError raised in the block, keeping its line. A
    file that does not decode as UTF-8 raises a FormatError naming it, too."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x})") from exc
    except FormatError as exc:
        named = FormatError(f"{path}: {exc}")
        named.line = exc.line
        raise named from exc


def _read(path: str, reader, *args):
    """`reader(stream, *args)` on the file at `path`. Every input file is read
    through here, so a FormatError names the file before its line."""
    with _naming(path), open(path, "r", encoding="utf-8") as f:
        return reader(f, *args)


def _read_sentences(path: str) -> tuple[list[str], list]:
    """The ids and sentences of a .conllu or .sdp file. A sentence without an id
    (a CoNLL-U block without ``# sent_id``) is numbered ``s%05d`` by position."""
    if path.endswith(".conllu"):
        trees = _read(path, read_conllu)
        ids = [conllu_id(t) or f"s{k + 1:05d}" for k, t in enumerate(trees)]
        return ids, [t.sentence for t in trees]
    doc = _read(path, read_sdp)
    return [sid for sid, _ in doc], [g.sentence for g in doc.semantic_graphs()]


def _check_ids(path: str, ids, gold: SdpDocument):
    """Refuse the file at `path` if an id it gives differs from the gold id at
    the same position; None stands for a sentence without an id."""
    for k, (sid, (gold_id, _)) in enumerate(zip(ids, gold), 1):
        if sid is not None and sid != gold_id:
            raise ScoringError(f"{path}: sentence {k} is {sid!r}, but gold sentence "
                               f"{k} is {gold_id!r}")


def _read_predictions(path: str, gold: SdpDocument) -> list[SemanticGraph]:
    """The graphs of the .sdp file at `path`, after checking that it names its
    sentences as `gold` does, position by position."""
    doc = _read(path, read_sdp)
    _check_ids(path, (sid for sid, _ in doc), gold)
    return doc.semantic_graphs()


def _read_trees(path: str, gold: SdpDocument) -> list:
    """The trees of the .conllu file at `path`, after checking each ``sent_id``
    it gives against `gold`'s id at the same position."""
    trees = _read(path, read_conllu)
    _check_ids(path, map(conllu_id, trees), gold)
    return trees


# ---------------------------------------------------------------------------
# subcommands


def cmd_intersect(args) -> int:
    inputs, outputs = [args.forward, args.backward], [args.out]
    _check_outputs(args, inputs, outputs)
    forward = _read(args.forward, read_alignments)
    backward = _read(args.backward, read_alignments)
    if len(forward) != len(backward):
        raise FormatError(f"alignment files differ in length: {len(forward)} vs "
                          f"{len(backward)} sentence pairs")
    intersected = [intersect_alignments(f_links, b_links).links
                   for f_links, b_links in zip(forward, backward)]
    with atomic_open(args.out) as f:
        write_alignments(intersected, f)
    return _finish(args, inputs, outputs, {"seed": None})


def cmd_project(args) -> int:
    inputs, outputs = [args.source, args.alignments, args.target], [args.out]
    _check_outputs(args, inputs, outputs)
    source = _read(args.source, read_sdp)
    alignments = _read(args.alignments, read_alignments)
    _, targets = _read_sentences(args.target)
    if not (len(source) == len(alignments) == len(targets)):
        raise FormatError(f"corpus sizes differ: {len(source)} source graphs, "
                          f"{len(alignments)} alignment lines, {len(targets)} target sentences")
    maps = []
    with _naming(args.alignments):  # a map must be one-to-one already, as `intersect` writes
        for line, links in enumerate(alignments, 1):
            try:
                maps.append(IntersectedAlignment(links))
            except ProjectionError as exc:
                raise FormatError(str(exc), line) from None
    projected = [(sid, project_graph(as_semantic(g), alignment, target))
                 for (sid, g), alignment, target in zip(source, maps, targets)]
    with atomic_open(args.out) as f:
        write_sdp(SdpDocument(tuple(projected)), f)
    return _finish(args, inputs, outputs, {"seed": None})


def cmd_sample(args) -> int:
    _check_outputs(args, [args.input], [args.out])
    seed = _resolve_seed(args)
    doc = _read(args.input, read_sdp)
    entries = [(sid, as_partial(g)) for sid, g in doc]
    graphs = [g for _, g in entries]
    chosen = density_sample(graphs, args.size, args.threshold, seed=seed)
    chosen_ids = {id(g) for g in chosen}
    kept = tuple((sid, g) for sid, g in entries if id(g) in chosen_ids)
    with atomic_open(args.out) as f:
        write_sdp(SdpDocument(kept), f)
    return _finish(args, [args.input], [args.out],
                   {"seed": seed, "size": args.size, "threshold": args.threshold})


def cmd_split(args) -> int:
    outputs = [args.train_out, args.heldout_out]
    _check_outputs(args, [args.input], outputs)
    seed = _resolve_seed(args)
    doc = _read(args.input, read_sdp)
    train_part, held_part = heldout_split(list(doc.sentences), args.heldout, seed=seed)
    with atomic_open(args.train_out) as f:
        write_sdp(SdpDocument(tuple(train_part)), f)
    with atomic_open(args.heldout_out) as f:
        write_sdp(SdpDocument(tuple(held_part)), f)
    return _finish(args, [args.input], outputs, {"seed": seed, "heldout": args.heldout})


def cmd_synth(args) -> int:
    paths = [os.path.join(args.out, name) for name in CORPUS_FILES]
    _check_outputs(args, [], paths, made=args.out)
    cfg = SynthConfig(sentences=args.sentences, min_len=args.min_len,
                      max_len=args.max_len, density=args.density,
                      agreement=args.agreement, edge_noise=args.edge_noise,
                      seed=_resolve_seed(args))
    write_corpus(synth_corpus(cfg), args.out)
    return _finish(args, [], paths, {"synth": asdict(cfg)})


def _parse_tasks(spec: str) -> list[str]:
    mapping = {"sem": SEMANTIC, "syn": SYNTACTIC}
    tasks = []
    for part in spec.split(","):
        part = part.strip()
        if part not in mapping:
            raise ConfigError(f"unknown task {part!r}; expected sem[,syn]")
        tasks.append(mapping[part])
    if SEMANTIC not in tasks:
        raise ConfigError("the semantic task is required")
    if len(tasks) != len(set(tasks)):
        raise ConfigError("duplicate task names")
    return tasks


def _parse_share(spec: str | None, raw: dict, tasks: list[str]) -> SharingTopology | None:
    """The sharing topology of a multitask run from --share or the config's
    `sharing` section; a single-task run refuses both and has none."""
    section = _section(raw, "sharing", SharingTopology)
    if len(tasks) == 1:
        if spec is not None or section:
            given = "--share" if spec is not None else "config section 'sharing'"
            raise ConfigError(f"{given} given but the syn task is not enabled")
        return None
    if spec is not None:
        mapping = {"rnn": "shared_rnn", "fnn": "shared_fnn", "taskrnn": "task_rnn"}
        section = {field: False for field in mapping.values()}
        for part in spec.split(","):
            part = part.strip()
            if part not in mapping:
                raise ConfigError(f"unknown sharing flag {part!r}; "
                                  "expected rnn[,fnn][,taskrnn]")
            section[mapping[part]] = True
    return SharingTopology(**section)


def cmd_train(args) -> int:
    """Train on --train (and on --syntactic's trees for the syn task), stopping
    early on --heldout, and write the checkpoint and the metrics lines. The
    vocabularies come from the training sentences and trees. Of --word-vectors
    only the word vocabulary's vectors are kept, and they go straight into the
    new model's word table, so neither the vectors nor a table of them is held
    while `train` runs."""
    inputs = [path for path in (args.train, args.heldout, args.syntactic, args.word_vectors)
              if path]
    metrics_path = args.metrics or args.out + ".metrics"
    outputs = [args.out, metrics_path]
    _check_outputs(args, inputs + ([args.config] if args.config else []), outputs)
    raw = _load_config_file(args.config)
    seed = _resolve_seed(args, raw)
    net_section = _section(raw, "network", NetworkConfig)
    train_section = _section(raw, "train", TrainConfig)
    if "seed" in train_section:
        raise ConfigError("config section 'train' key 'seed' is not read; set the seed "
                          "with the top-level 'seed' key or --seed")
    for flag, key in (("lr", "lr"), ("epochs", "max_epochs"), ("patience", "patience"),
                      ("token_budget", "token_budget")):
        value = getattr(args, flag)
        if value is not None:
            train_section[key] = value
    if args.combined:
        train_section["combined_steps"] = True
    train_section["seed"] = seed

    tasks = _parse_tasks(args.tasks)
    if SYNTACTIC in tasks and not args.syntactic:
        raise ConfigError("--syntactic FILE is required for the syn task")
    if args.syntactic and SYNTACTIC not in tasks:
        raise ConfigError("--syntactic given but the syn task is not enabled")
    topology = _parse_share(args.share, raw, tasks)
    net_cfg = NetworkConfig(**net_section)

    train_doc = _read(args.train, read_sdp)
    heldout_doc = _read(args.heldout, read_sdp)
    trees = _read(args.syntactic, read_conllu) if args.syntactic else []

    train_cfg = TrainConfig(**train_section)

    word_vocab, char_vocab, pos_vocab = build_vocabs(
        [g.sentence for g in train_doc.semantic_graphs()] + [t.sentence for t in trees])
    sem_labels = semantic_label_vocab(
        [e.label for g in train_doc.semantic_graphs() for e in g.edges])
    task_vocabs = {SEMANTIC: sem_labels}
    if SYNTACTIC in tasks:
        task_vocabs[SYNTACTIC] = Vocab([r for t in trees for r in t.deprels], unk=False)
    model = ParserModel(net_cfg, task_vocabs, word_vocab, char_vocab, pos_vocab,
                        topology=topology, seed=seed,
                        pretrained=_read(args.word_vectors, read_word_vectors, net_cfg.word_dim,
                                         word_vocab) if args.word_vectors else None)

    corpora = {SEMANTIC: [(g.sentence, g) for g in train_doc.graphs()]}
    if SYNTACTIC in tasks:
        corpora[SYNTACTIC] = [(t.sentence, t) for t in trees]
    held_corpus = [(g.sentence, g) for g in heldout_doc.graphs()]
    # reported, not refused: held-out sentences whose forms the auxiliary task trains on
    tree_forms = {tuple(t.form for t in tree.sentence) for tree in trees}
    overlap = sum(tuple(t.form for t in sentence) in tree_forms for sentence, _ in held_corpus)

    # the metrics appear only once the model is saved, and not if the save fails
    with atomic_open(metrics_path) as metrics_f:
        result = train(model, corpora, held_corpus, train_cfg, metrics_out=metrics_f)
        model.save(args.out)

    config = {
        "seed": seed,
        "network": asdict(net_cfg),
        "train": asdict(train_cfg),
        "sharing": asdict(topology) if topology else None,
        "tasks": tasks,
    }
    print(f"best_epoch={result.best_epoch} best_heldout_lf={result.best_lf:.6f} "
          f"epochs_run={result.epochs_run}")
    return _finish(args, inputs, outputs, config, heldout_in_syntactic=overlap)


def cmd_parse(args) -> int:
    inputs, outputs = [args.model, args.input], [args.out]
    _check_outputs(args, inputs, outputs)
    ids, sentences = _read_sentences(args.input)
    with _naming(args.input):
        check_sentence_ids(ids)
    model = ParserModel.load(args.model)
    graphs = parse_semantic(model, sentences)
    doc = SdpDocument(tuple(zip(ids, graphs)))
    with atomic_open(args.out) as f:
        write_sdp(doc, f)
    tokens = sum(g.n for g in graphs)
    tops = Counter(len(g.tops) for g in graphs)
    return _finish(args, inputs, outputs, {"model": args.model},
                   edges_per_token=sum(len(g.edges) for g in graphs) / tokens if tokens else None,
                   top_counts={str(count): tops[count] for count in sorted(tops)})


def _print_and_write(text: str, path: str | None):
    """Print `text`, and write the same text to `path` when one is given."""
    print(text)
    if path:
        with atomic_open(path) as f:
            f.write(text + "\n")


def cmd_score(args) -> int:
    inputs, outputs = [args.pred, args.gold], [args.out] if args.out else []
    _check_outputs(args, inputs, outputs)
    gold = _read(args.gold, read_sdp)
    predicted, gold_graphs = _read_predictions(args.pred, gold), gold.graphs()
    report = score_graphs(predicted, gold_graphs)
    decided = score_graphs(at_decided_cells(predicted, gold_graphs), gold_graphs)
    _print_and_write(format_report(report, decided.lf), args.out)
    return _finish(args, inputs, outputs, {"seed": None})


# The input files each analysis mode reads besides --gold.
_ANALYZE_INPUTS = {"buckets": ("pred",), "headmatch": ("trees", "pred_a", "pred_b"),
                   "contribution": ("trees", "pred_multi", "pred_single")}


def cmd_analyze(args) -> int:
    modes = [m for m in _ANALYZE_INPUTS if getattr(args, m)]
    if len(modes) != 1:
        raise ConfigError("exactly one of --buckets/--headmatch/--contribution is required")
    mode = modes[0]
    missing = [f"--{name.replace('_', '-')}" for name in _ANALYZE_INPUTS[mode]
               if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"analyze --{mode} needs {', '.join(missing)}")
    inputs = [args.gold] + [getattr(args, name) for name in _ANALYZE_INPUTS[mode]]
    outputs = [args.out] if args.out else []
    _check_outputs(args, inputs, outputs)
    gold_doc = _read(args.gold, read_sdp)
    gold = gold_doc.semantic_graphs()
    if mode == "buckets":
        stats = length_buckets(_read_predictions(args.pred, gold_doc), gold)
        lines = ["bucket\tpredicted\tcorrect\tprecision"]
        lines += [f"{bucket}\t{s.predicted}\t{s.correct}\t{s.precision:.6f}"
                  for bucket, s in stats.items()]
    elif mode == "headmatch":
        pred_a = _read_predictions(args.pred_a, gold_doc)
        pred_b = _read_predictions(args.pred_b, gold_doc)
        stats = head_match_stats(gold, _read_trees(args.trees, gold_doc), pred_a, pred_b)
        lines = ["mode\tset\ttokens\tmatch\tmismatch"]
        for score_mode in ("labeled", "unlabeled"):
            for key in ("a_improved", "b_improved"):
                s = stats[score_mode][key]
                match = "-" if s.match_rate is None else f"{s.match_rate:.6f}"
                mismatch = "-" if s.mismatch_rate is None else f"{s.mismatch_rate:.6f}"
                lines.append(f"{score_mode}\t{key}\t{s.tokens}\t{match}\t{mismatch}")
    else:
        pred_multi = _read_predictions(args.pred_multi, gold_doc)
        pred_single = _read_predictions(args.pred_single, gold_doc)
        contribution = label_contribution(pred_multi, pred_single, gold,
                                          _read_trees(args.trees, gold_doc))
        lines = ["deprel\tpercent"]
        lines += [f"{rel}\t{pct:.6f}" for rel, pct in
                  sorted(contribution.items(), key=lambda kv: (-kv[1], kv[0]))]
    _print_and_write("\n".join(lines), args.out)
    return _finish(args, inputs, outputs, {"seed": None})


def cmd_gradcheck(args) -> int:
    _check_outputs(args, [], [])
    config = {"seed": _resolve_seed(args), "epsilon": args.epsilon, "tolerance": args.tolerance}
    report = run_gradcheck(**config)
    print(report)
    _finish(args, [], [], config)
    return 0 if report.passed else 1


def run_gradcheck(seed: int = 0, epsilon: float = 1e-5, tolerance: float = 1e-4):
    """End-to-end finite-difference check of the full parser loss at toy dims."""
    from .training import semantic_loss

    config = NetworkConfig(word_dim=4, pos_dim=2, rnn_size=4, rnn_layers=3, fnn_size=4,
                           word_dropout=0.0, recurrent_dropout=0.0, edge_dropout=0.0,
                           label_dropout=0.0)
    # two sentences of unequal length that share a form
    sentences = [make_sentence(["v1", "n1", "n2", "j1"], pos=["V", "N", "N", "J"]),
                 make_sentence(["n2", "v2"], pos=["N", "V"])]
    word_vocab, char_vocab, pos_vocab = build_vocabs(sentences)
    labels = semantic_label_vocab(["A", "B"])
    model = ParserModel(config, {SEMANTIC: labels}, word_vocab, char_vocab,
                        pos_vocab, seed=seed)
    golds = [
        PartialGraph(SemanticGraph(sentences[0], frozenset({(0, 1, "TOP"), (1, 2, "A"),
                                                            (2, 4, "B")})),
                     frozenset({1, 2, 4})),
        PartialGraph(SemanticGraph(sentences[1], frozenset({(0, 2, "TOP"), (2, 1, "A")})),
                     frozenset({1, 2}))]

    def closure():
        s_edge, s_label = model.forward(sentences, SEMANTIC)
        return semantic_loss(s_edge, s_label, golds, labels)

    return ad.gradient_check(closure, model.params.values(), epsilon=epsilon,
                             tolerance=tolerance)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdpkit",
        description="cross-lingual semantic dependency parsing via annotation "
                    "projection and multitask biaffine parsing")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--manifest", help="manifest path (default: next to the output)")
        return p

    p = add("intersect", cmd_intersect, "intersect two directional alignment files")
    p.add_argument("--forward", required=True, help="source-to-target .align")
    p.add_argument("--backward", required=True, help="target-to-source .align")
    p.add_argument("--out", required=True, help="intersected .align output")

    p = add("project", cmd_project, "project source graphs onto target sentences")
    p.add_argument("--source", required=True, help="source-language .sdp")
    p.add_argument("--alignments", required=True, help="intersected .align")
    p.add_argument("--target", required=True, help="target sentences (.conllu or .sdp)")
    p.add_argument("--out", required=True, help="projected .sdp output (with masks)")

    p = add("sample", cmd_sample, "density-balanced sample of a projected corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, required=True, help="even sample size")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--seed", type=int)

    p = add("split", cmd_split, "split a corpus into train and held-out parts")
    p.add_argument("--input", required=True)
    p.add_argument("--train-out", required=True)
    p.add_argument("--heldout-out", required=True)
    p.add_argument("--heldout", type=float, default=0.05, help="held-out fraction")
    p.add_argument("--seed", type=int)

    p = add("synth", cmd_synth, "generate a synthetic parallel corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sentences", type=int, required=True)
    p.add_argument("--min-len", type=int, default=5)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--density", type=float, default=0.8)
    p.add_argument("--agreement", type=float, default=0.8)
    p.add_argument("--edge-noise", type=float, default=0.0)
    p.add_argument("--seed", type=int)

    p = add("train", cmd_train, "train a parser on projected data")
    p.add_argument("--train", required=True, help="training .sdp (may carry masks)")
    p.add_argument("--heldout", required=True, help="held-out .sdp for early stopping")
    p.add_argument("--syntactic", help=".conllu for the auxiliary task")
    p.add_argument("--out", required=True, help="model checkpoint output")
    p.add_argument("--tasks", default="sem", help="sem or sem,syn")
    p.add_argument("--share", help="rnn[,fnn][,taskrnn] (multitask only)")
    p.add_argument("--config", help="JSON config")
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--token-budget", type=int, dest="token_budget")
    p.add_argument("--combined", action="store_true",
                   help="combined multitask steps instead of alternating")
    p.add_argument("--metrics", help="metrics log path (default: <out>.metrics)")
    p.add_argument("--word-vectors", help="pretrained vectors (text) to initialise the word table")

    p = add("parse", cmd_parse, "parse sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="sentences (.conllu or .sdp)")
    p.add_argument("--out", required=True)

    p = add("score", cmd_score, "score predictions against gold graphs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", help="also write the report to this file")

    p = add("analyze", cmd_analyze, "result analyses over scored corpora")
    p.add_argument("--buckets", action="store_true", help="dependency-length precision")
    p.add_argument("--headmatch", action="store_true", help="syntactic head agreement")
    p.add_argument("--contribution", action="store_true", help="per-deprel improvements")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", help="predictions (--buckets)")
    p.add_argument("--pred-a", help="system A (--headmatch)")
    p.add_argument("--pred-b", help="system B (--headmatch)")
    p.add_argument("--pred-multi", help="multitask predictions (--contribution)")
    p.add_argument("--pred-single", help="single-task predictions (--contribution)")
    p.add_argument("--trees", help="syntactic .conllu (--headmatch/--contribution)")
    p.add_argument("--out", help="also write the printed table to this file")

    p = add("gradcheck", cmd_gradcheck, "finite-difference check of the parser loss")
    p.add_argument("--seed", type=int)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)

    return parser


def main(argv=None) -> int:
    """Parse argv (None: the command line) and run the selected subcommand;
    returns the exit status."""
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except (SdpkitError, OSError) as exc:
        print(f"sdpkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
