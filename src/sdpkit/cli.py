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

`parse` writes each sentence under its input id, and `score` and `analyze`
refuse a prediction file whose ids differ from the gold file's, position by
position.

Every run resolves its configuration (defaults < config file < flags), logs
it, and writes a manifest with content hashes of its inputs next to its
primary output. Runs are deterministic functions of (inputs, config, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from dataclasses import asdict

from . import autodiff as ad
from .errors import ConfigError, FormatError, ScoringError, SdpkitError
from .evaluation import format_report, label_contribution, length_buckets, head_match_stats, score_graphs, write_series
from .formats import (SdpDocument, atomic_open, read_alignments, read_conllu,
                      read_context_vectors, read_sdp, read_word_vectors, write_alignments,
                      write_sdp)
from .graph import (LENGTH_BUCKETS, PartialGraph, SemanticGraph, as_partial, as_semantic,
                    make_sentence)
from .network import (SEMANTIC, SYNTACTIC, NetworkConfig, ParserModel, SharingTopology,
                      build_vocabs, semantic_label_vocab, syntactic_label_vocab,
                      pretrained_table)
from .projection import density_sample, heldout_split, intersect_alignments, project_graph
from .synth import SynthConfig, synth_corpus, write_corpus
from .training import TrainConfig, parse_semantic, train

_CONFIG_SECTIONS = ("seed", "network", "train", "sharing")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as f:
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
    valid = set(cls.__dataclass_fields__)
    unknown = set(data) - valid
    if unknown:
        raise ConfigError(f"config section {name!r} has unknown keys {sorted(unknown)}")
    return dict(data)


def _resolve_seed(args, raw: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("config key 'seed' must be an integer")
    return seed


def _finish(args, inputs: list[str], outputs: list[str], config: dict) -> int:
    """Every command's epilogue: log the config, write the manifest, return 0.

    The manifest goes to --manifest, or next to the first output; a command
    with neither writes none.
    """
    print(f"config: {json.dumps(config, sort_keys=True)}", file=sys.stderr)
    path = args.manifest
    if path is None and outputs:
        path = outputs[0] + ".manifest.json"
    if path is not None:
        manifest = {
            "command": args.command,
            "inputs": {p: _sha256(p) for p in sorted(set(inputs))},
            "outputs": sorted(set(outputs)),
            "config": config,
        }
        with atomic_open(path) as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


def _read(path: str, reader, *args):
    """`reader(stream, *args)` on the file at `path`. Every input file is read
    through here, so a FormatError names the file before its line."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return reader(f, *args)
        except FormatError as exc:
            named = FormatError(f"{path}: {exc}")
            named.line = exc.line
            raise named from exc


def _conllu_id(tree) -> str | None:
    """The value of a tree's ``# sent_id = <id>`` comment, if it has a nonempty one."""
    for comment in tree.comments:
        key, _, value = comment[1:].partition("=")
        if key.strip() == "sent_id" and value.strip():
            return value.strip()
    return None


def _read_sentences(path: str) -> tuple[list[str], list]:
    """The ids and sentences of a .conllu or .sdp file. A sentence without an id
    (a CoNLL-U block without ``# sent_id``) is numbered ``s%05d`` by position."""
    if path.endswith(".conllu"):
        trees = _read(path, read_conllu)
        ids = [_conllu_id(t) or f"s{k + 1:05d}" for k, t in enumerate(trees)]
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
    _check_ids(path, map(_conllu_id, trees), gold)
    return trees


def _read_contexts(path: str | None, dim: int, sentences):
    if path is None:
        return None
    vectors = _read(path, read_context_vectors, dim)
    if len(vectors) != len(sentences):
        raise FormatError(f"{path}: {len(vectors)} sentences, corpus has {len(sentences)}")
    for i, (sent, mat) in enumerate(zip(sentences, vectors)):
        if mat.shape[0] != len(sent):
            raise FormatError(f"{path}: sentence {i + 1} has {mat.shape[0]} vectors "
                              f"for {len(sent)} tokens")
    return vectors


# ---------------------------------------------------------------------------
# subcommands


def cmd_intersect(args) -> int:
    forward = _read(args.forward, read_alignments)
    backward = _read(args.backward, read_alignments)
    if len(forward) != len(backward):
        raise FormatError(f"alignment files differ in length: {len(forward)} vs "
                          f"{len(backward)} sentence pairs")
    intersected = [intersect_alignments(f_links, b_links).links
                   for f_links, b_links in zip(forward, backward)]
    with atomic_open(args.out) as f:
        write_alignments(intersected, f)
    return _finish(args, [args.forward, args.backward], [args.out], {"seed": None})


def cmd_project(args) -> int:
    source = _read(args.source, read_sdp)
    alignments = _read(args.alignments, read_alignments)
    _, targets = _read_sentences(args.target)
    if not (len(source) == len(alignments) == len(targets)):
        raise FormatError(f"corpus sizes differ: {len(source)} source graphs, "
                          f"{len(alignments)} alignment lines, {len(targets)} target sentences")
    projected = []
    for (sid, graph), links, target in zip(source, alignments, targets):
        alignment = intersect_alignments(links, links)
        projected.append((sid, project_graph(as_semantic(graph), alignment, target)))
    with atomic_open(args.out) as f:
        write_sdp(SdpDocument(tuple(projected)), f)
    return _finish(args, [args.source, args.alignments, args.target], [args.out],
                   {"seed": None})


def cmd_sample(args) -> int:
    doc = _read(args.input, read_sdp)
    entries = [(sid, as_partial(g)) for sid, g in doc]
    graphs = [g for _, g in entries]
    chosen = density_sample(graphs, args.size, args.threshold, seed=args.seed or 0)
    chosen_ids = {id(g) for g in chosen}
    kept = tuple((sid, g) for sid, g in entries if id(g) in chosen_ids)
    with atomic_open(args.out) as f:
        write_sdp(SdpDocument(kept), f)
    return _finish(args, [args.input], [args.out],
                   {"seed": args.seed or 0, "size": args.size, "threshold": args.threshold})


def cmd_split(args) -> int:
    doc = _read(args.input, read_sdp)
    train_part, held_part = heldout_split(list(doc.sentences), args.heldout,
                                          seed=args.seed or 0)
    with atomic_open(args.train_out) as f:
        write_sdp(SdpDocument(tuple(train_part)), f)
    with atomic_open(args.heldout_out) as f:
        write_sdp(SdpDocument(tuple(held_part)), f)
    return _finish(args, [args.input], [args.train_out, args.heldout_out],
                   {"seed": args.seed or 0, "heldout": args.heldout})


def cmd_synth(args) -> int:
    cfg = SynthConfig(sentences=args.sentences, min_len=args.min_len,
                      max_len=args.max_len, density=args.density,
                      agreement=args.agreement, edge_noise=args.edge_noise,
                      seed=args.seed or 0)
    corpus = synth_corpus(cfg)
    paths = write_corpus(corpus, args.out)
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


def _parse_share(spec: str | None, raw: dict) -> SharingTopology:
    section = _section(raw, "sharing", SharingTopology)
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
    raw = _load_config_file(args.config)
    seed = _resolve_seed(args, raw)
    net_section = _section(raw, "network", NetworkConfig)
    train_section = _section(raw, "train", TrainConfig)
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
    net_cfg = NetworkConfig(**net_section)
    if SYNTACTIC in tasks and net_cfg.context_dim:
        raise ConfigError("the syn task has no context vectors; it needs "
                          "network.context_dim 0")
    if (args.context or args.heldout_context) and not net_cfg.context_dim:
        raise ConfigError("--context/--heldout-context given but network.context_dim is 0")

    train_doc = _read(args.train, read_sdp)
    heldout_doc = _read(args.heldout, read_sdp)
    trees = _read(args.syntactic, read_conllu) if args.syntactic else []

    train_cfg = TrainConfig(**train_section)
    topology = _parse_share(args.share, raw) if len(tasks) > 1 else None

    sentences = [g.sentence for g in train_doc.semantic_graphs()]
    all_sentences = sentences + [t.sentence for t in trees]
    word_vocab, char_vocab, pos_vocab = build_vocabs(all_sentences)
    sem_labels = semantic_label_vocab(
        [e.label for g in train_doc.semantic_graphs() for e in g.edges])
    task_vocabs = {SEMANTIC: sem_labels}
    if SYNTACTIC in tasks:
        task_vocabs[SYNTACTIC] = syntactic_label_vocab(
            [r for t in trees for r in t.deprels])

    contexts = _read_contexts(args.context, net_cfg.context_dim, sentences)
    heldout_graphs = heldout_doc.graphs()
    heldout_contexts = _read_contexts(args.heldout_context, net_cfg.context_dim,
                                      [g.sentence for g in heldout_graphs])

    pretrained = None
    if args.word_vectors:
        vectors = _read(args.word_vectors, read_word_vectors, net_cfg.word_dim)
        pretrained = pretrained_table(vectors, word_vocab, net_cfg.word_dim)

    model = ParserModel(net_cfg, task_vocabs, word_vocab, char_vocab, pos_vocab,
                        topology=topology, seed=seed, pretrained=pretrained)

    sem_corpus = [(graph.sentence, graph, contexts[i] if contexts else None)
                  for i, graph in enumerate(train_doc.graphs())]
    corpora = {SEMANTIC: sem_corpus}
    if SYNTACTIC in tasks:
        corpora[SYNTACTIC] = [(t.sentence, t) for t in trees]
    held_corpus = [(g.sentence, g, heldout_contexts[i] if heldout_contexts else None)
                   for i, g in enumerate(heldout_graphs)]

    metrics_path = args.metrics or args.out + ".metrics"
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
    inputs = [args.train, args.heldout]
    if args.syntactic:
        inputs.append(args.syntactic)
    for path in (args.context, args.heldout_context):
        if path:
            inputs.append(path)
    if args.word_vectors:
        inputs.append(args.word_vectors)
    print(f"best_epoch={result.best_epoch} best_heldout_lf={result.best_lf:.6f} "
          f"epochs_run={result.epochs_run}")
    return _finish(args, inputs, [args.out, metrics_path], config)


def cmd_parse(args) -> int:
    model = ParserModel.load(args.model)
    ids, sentences = _read_sentences(args.input)
    repeated = sorted(sid for sid, count in Counter(ids).items() if count > 1)
    if repeated:
        raise FormatError(f"{args.input}: sentence ids {repeated} occur more than once")
    contexts = _read_contexts(args.context, model.config.context_dim, sentences) \
        if model.config.context_dim else None
    if args.context and not model.config.context_dim:
        raise ConfigError("--context given but the model has no context channel")
    graphs = parse_semantic(model, sentences, contexts)
    doc = SdpDocument(tuple(zip(ids, graphs)))
    with atomic_open(args.out) as f:
        write_sdp(doc, f)
    inputs = [args.model, args.input] + ([args.context] if args.context else [])
    return _finish(args, inputs, [args.out], {"model": args.model})


def cmd_score(args) -> int:
    gold = _read(args.gold, read_sdp)
    report = score_graphs(_read_predictions(args.pred, gold), gold.semantic_graphs())
    text = format_report(report)
    print(text)
    outputs = []
    if args.out:
        with atomic_open(args.out) as f:
            f.write(text + "\n")
        outputs.append(args.out)
    return _finish(args, [args.pred, args.gold], outputs, {"seed": None})


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
    gold_doc = _read(args.gold, read_sdp)
    gold = gold_doc.semantic_graphs()
    series: list[tuple[str, float]] = []
    if mode == "buckets":
        pred = _read_predictions(args.pred, gold_doc)
        stats = length_buckets(pred, gold)
        print("bucket\tpredicted\tcorrect\tprecision")
        for bucket in LENGTH_BUCKETS:
            if bucket in stats:
                s = stats[bucket]
                print(f"{bucket}\t{s.predicted}\t{s.correct}\t{s.precision:.6f}")
                series.append((bucket, s.precision))
    elif mode == "headmatch":
        pred_a = _read_predictions(args.pred_a, gold_doc)
        pred_b = _read_predictions(args.pred_b, gold_doc)
        stats = head_match_stats(gold, _read_trees(args.trees, gold_doc), pred_a, pred_b)
        print("mode\tset\ttokens\tmatch\tmismatch")
        for score_mode in ("labeled", "unlabeled"):
            for key in ("a_improved", "b_improved"):
                s = stats[score_mode][key]
                match = "-" if s.match_rate is None else f"{s.match_rate:.6f}"
                mismatch = "-" if s.mismatch_rate is None else f"{s.mismatch_rate:.6f}"
                print(f"{score_mode}\t{key}\t{s.tokens}\t{match}\t{mismatch}")
                if s.match_rate is not None:
                    series.append((f"{score_mode}.{key}.match", s.match_rate))
                    series.append((f"{score_mode}.{key}.mismatch", s.mismatch_rate))
    else:
        pred_multi = _read_predictions(args.pred_multi, gold_doc)
        pred_single = _read_predictions(args.pred_single, gold_doc)
        contribution = label_contribution(pred_multi, pred_single, gold,
                                          _read_trees(args.trees, gold_doc))
        print("deprel\tpercent")
        for rel, pct in sorted(contribution.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{rel}\t{pct:.6f}")
            series.append((rel, pct))
    outputs = []
    if args.series:
        with atomic_open(args.series) as f:
            write_series(series, f)
        outputs.append(args.series)
    return _finish(args, inputs, outputs, {"seed": None})


def cmd_gradcheck(args) -> int:
    config = {"seed": args.seed or 0, "epsilon": args.epsilon, "tolerance": args.tolerance}
    report = run_gradcheck(**config)
    print(report)
    _finish(args, [], [], config)
    return 0 if report.passed else 1


def run_gradcheck(seed: int = 0, epsilon: float = 1e-5, tolerance: float = 1e-4):
    """End-to-end finite-difference check of the full parser loss at toy dims."""
    from .training import semantic_loss

    config = NetworkConfig(word_dim=4, pos_dim=2, rnn_size=4, rnn_layers=3,
                           fnn_size=4, char_emb_dim=2, word_dropout=0.0,
                           recurrent_dropout=0.0, edge_dropout=0.0, label_dropout=0.0)
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
                     frozenset({0, 1, 2, 4})),
        PartialGraph(SemanticGraph(sentences[1], frozenset({(0, 2, "TOP"), (2, 1, "A")})),
                     frozenset({0, 1, 2}))]

    def closure():
        s_edge, s_label = model.forward(sentences, SEMANTIC)
        return semantic_loss(s_edge, s_label, golds, labels, label_interp=0.5)

    return ad.gradient_check(closure, model.parameters(), epsilon=epsilon,
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
    p.add_argument("--context", help="per-token context vectors (.vec) of --train")
    p.add_argument("--heldout-context", help="per-token context vectors (.vec) of --heldout")
    p.add_argument("--word-vectors", help="pretrained word vectors (text)")

    p = add("parse", cmd_parse, "parse sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="sentences (.conllu or .sdp)")
    p.add_argument("--out", required=True)
    p.add_argument("--context", help="per-token context vectors (.vec)")

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
    p.add_argument("--series", help="write a plain data series file")

    p = add("gradcheck", cmd_gradcheck, "finite-difference check of the parser loss")
    p.add_argument("--seed", type=int)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)

    return parser


def main(argv=None) -> int:
    """Parse argv (None: the command line) and run the selected subcommand;
    returns the exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SdpkitError, OSError) as exc:
        print(f"sdpkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
