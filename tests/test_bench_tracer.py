"""The benchmark's tracer still finds every function it wraps."""

from pathlib import Path

import tunebench.cli
import tunebench.core

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    substream, main = tunebench.core.substream, tunebench.cli.main
    missing, replaced = tracer.Recorder().install()
    tracer.restore(replaced)
    assert missing == []
    assert replaced
    # restore puts every original binding back
    assert tunebench.core.substream is substream and tunebench.cli.main is main
