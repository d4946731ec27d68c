"""Keyed repetition streams: same draws as fresh substreams, one build per key."""

import numpy as np
import pytest

import tunebench.aggregate
import tunebench.core
import tunebench.estimator
import tunebench.hpo
from tunebench.aggregate import probability_of_best
from tunebench.core import Direction, RepetitionStreams, Trial, TrialLibrary, substream
from tunebench.estimator import bootstrap_runs
from tunebench.hpo import time_budget_curve


def library_of(values, optimizer_id):
    return TrialLibrary.from_trials([
        Trial(
            optimizer_id=optimizer_id, task_id="t", seed=i, config={},
            objective=float(v), direction=Direction.MINIMIZE,
            update_steps=1 + i % 3, epochs_run=1,
        )
        for i, v in enumerate(values)
    ])


def test_lookups_draw_what_fresh_substreams_draw():
    streams = RepetitionStreams(12, 5)
    # any order, repeated keys, and a partly consumed generator before a rewind
    for r in (3, 0, 3, 4, 1, 2, 0):
        first = streams[r].integers(0, 100, size=7)
        assert np.array_equal(first, substream(12, r).integers(0, 100, size=7))
        streams[r].standard_normal(3)
        again = streams[r].choice(30, size=6, replace=False)
        assert np.array_equal(again, substream(12, r).choice(30, size=6, replace=False))


def test_repetitions_must_be_positive():
    with pytest.raises(ValueError):
        RepetitionStreams(0, 0)


@pytest.fixture
def builds(monkeypatch):
    calls = []

    def counted(*key):
        calls.append(key)
        return substream(*key)

    # every module that could bind it, so a routine that goes back to
    # building its own streams is counted too
    for module in (tunebench.core, tunebench.aggregate, tunebench.estimator, tunebench.hpo):
        monkeypatch.setattr(module, "substream", counted, raising=False)
    return calls


def test_each_repetition_stream_is_built_once_per_call(builds):
    rng = np.random.default_rng(2)
    libraries = [library_of(rng.standard_normal(10), f"o{j}") for j in range(6)]
    reps = 25

    # several budgets in one call still build each stream once
    probability_of_best(libraries, [1, 4, 12], repetitions=reps, rng_seed=3)
    assert sorted(builds) == [(3, r) for r in range(reps)]

    builds.clear()
    time_budget_curve(libraries, intervals=5, repetitions=reps, rng_seed=4)
    assert sorted(builds) == [(4, r) for r in range(reps)]

    builds.clear()
    bootstrap_runs(libraries[0], budget=8, repetitions=reps, rng_seed=5)
    assert sorted(builds) == [(5, r) for r in range(reps)]
