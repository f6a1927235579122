"""The benchmark's tracer must still find every name it wraps.

`bench/tracer.py` looks sdpkit names up at install time; a rename or deletion
in the package makes `install` raise. This catches that in the unit suite
instead of in a full benchmark smoke run.
"""

import importlib.util
from pathlib import Path

import sdpkit
import sdpkit.cli

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
