"""The benchmark's tracer still finds every function it wraps."""

from collections import Counter
from pathlib import Path

import tunebench.cli
import tunebench.core
from tunebench.hpo import random_search
from tunebench.optim import optimizer_spec
from tunebench.priors import Fixed, PriorSpec
from tunebench.tasks import make_task

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


def test_each_classifier_task_counts_its_own_batches(monkeypatch):
    # both tasks inherit batch_loss_grad from one base; each class must
    # still get its own wrapper and span name
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tasks = {tid: make_task(tid, max_epochs=1) for tid in ("logreg", "mlp")}
    prior = PriorSpec({"learning_rate": Fixed(0.05)})
    recorder = tracer.Recorder()
    missing, replaced = recorder.install()
    try:
        libraries = {
            tid: random_search(optimizer_spec("adagrad"), prior, task, 2, master_seed=3)
            for tid, task in tasks.items()
        }
    finally:
        tracer.restore(replaced)
    assert missing == []
    spans = Counter(recorder.names[i] for i in recorder.name)
    for tid, task in tasks.items():
        assert [t.update_steps for t in libraries[tid].trials] == [task.n_batches] * 2
        assert spans[f"tasks.{tid}.grad"] == 2 * task.n_batches
    assert spans["tasks.quadratic.grad"] == 0
