"""The benchmark's tracer must still find every name it wraps and every span it reports.

`bench/tracer.py` looks sdpkit names up at install time; a rename or deletion
in the package makes `install` raise. It labels the spans of `lstm_seq` and
`bilinear` by their weight argument, so a signature change silently zeroes
per-layer metrics. This catches both in the unit suite instead of in a full
benchmark smoke run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sdpkit
import sdpkit.cli
from sdpkit.network import (SEMANTIC, NetworkConfig, ParserModel, build_vocabs,
                            semantic_label_vocab)
from sdpkit.synth import DEFAULT_LABELS, SynthConfig, synth_corpus
from sdpkit.training import semantic_loss

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    owners = [sdpkit.autodiff, sdpkit.network, sdpkit.training, sdpkit.cli, sdpkit.formats,
              sdpkit.projection, sdpkit.synth, sdpkit.evaluation,
              sdpkit.network.ParserModel, sdpkit.autodiff.Tensor]
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(sdpkit)
    finally:
        tracer.uninstall()
    assert len(tracer.restored) == 63
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        assert all(now[name] is value for name, value in saved.items()), owner


@pytest.mark.parametrize("biaffine_bias", [False, True])
def test_tracer_sees_every_scorer_and_encoder_span(biaffine_bias):
    # the per-layer metrics read these span names: a signature change that
    # moves the weight argument or merges the char calls must fail here
    golds = synth_corpus(SynthConfig(sentences=3, seed=5)).target_gold.graphs()
    sentences = [g.sentence for g in golds]
    labels = semantic_label_vocab(DEFAULT_LABELS)
    config = NetworkConfig(word_dim=8, pos_dim=4, rnn_size=8, rnn_layers=3, fnn_size=8,
                           biaffine_bias=biaffine_bias)
    model = ParserModel(config, {SEMANTIC: labels}, *build_vocabs(sentences), seed=1)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(sdpkit)
        s_edge, s_label = model.forward(sentences, SEMANTIC, np.random.default_rng(2))
        semantic_loss(s_edge, s_label, golds, labels).backward()
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    required = {f"autodiff.bilinear.{kind}.{phase}" for kind in ("edge", "label")
                for phase in ("fwd", "bwd")}
    required |= {f"autodiff.lstm_seq.layer{k}.{phase}" for k in range(3)
                 for phase in ("fwd", "bwd")}
    assert required <= set(names), sorted(required - set(names))
    assert not [name for name in names if ".other." in name]
    assert names.count("autodiff.lstm_seq.char.fwd") == 2
    # each encoder layer is one two-direction call: one span per pass and phase
    for k in range(3):
        for phase in ("fwd", "bwd"):
            assert names.count(f"autodiff.lstm_seq.layer{k}.{phase}") == 1, (k, phase)
