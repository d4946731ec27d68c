import numpy as np
import pytest

from tunebench.core import BudgetCurve, Direction, Trial, TrialLibrary, substream


def make_trial(objective, diverged=False, steps=3, optimizer="opt", task="task", seed=0):
    return Trial(
        optimizer_id=optimizer,
        task_id=task,
        seed=seed,
        config={"learning_rate": 0.1},
        objective=objective,
        direction=Direction.MINIMIZE,
        update_steps=steps,
        epochs_run=1,
        diverged=diverged,
    )


def test_direction_values_match_wire_format():
    assert Direction.MINIMIZE.value == "min"
    assert Direction.MAXIMIZE.value == "max"
    assert Direction("min") is Direction.MINIMIZE


def test_substream_reproducible_and_distinct():
    a = substream(7, 1).standard_normal(4)
    b = substream(7, 1).standard_normal(4)
    c = substream(7, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trial_validation():
    with pytest.raises(ValueError):
        make_trial(float("nan"))
    with pytest.raises(ValueError):
        make_trial(None)  # not diverged but no objective
    with pytest.raises(ValueError):
        make_trial(1.0, steps=0)
    # diverged trials may omit the objective and may have 0 completed steps
    t = make_trial(None, diverged=True, steps=0)
    assert t.diverged and t.objective is None
    # ... but a nonfinite stored objective is never allowed
    with pytest.raises(ValueError):
        make_trial(float("inf"), diverged=True)


def test_library_checks_membership():
    trials = [make_trial(1.0), make_trial(2.0)]
    lib = TrialLibrary.from_trials(trials)
    assert len(lib) == 2
    with pytest.raises(ValueError):
        TrialLibrary.from_trials([make_trial(1.0), make_trial(2.0, optimizer="other")])
    with pytest.raises(ValueError):
        TrialLibrary(optimizer_id="opt", task_id="task", direction=Direction.MINIMIZE, trials=())


def test_worst_sentinel_is_one_ulp_beyond_worst():
    lib = TrialLibrary.from_trials([make_trial(1.0), make_trial(5.0), make_trial(None, diverged=True)])
    sentinel = lib.worst_sentinel()
    assert sentinel == np.nextafter(5.0, np.inf)
    assert sentinel > 5.0
    objectives = lib.analysis_objectives()
    assert np.array_equal(objectives, [1.0, 5.0, sentinel])


def test_sentinel_direction_maximize():
    up = [
        Trial(
            optimizer_id="o",
            task_id="t",
            seed=0,
            config={},
            objective=v,
            direction=Direction.MAXIMIZE,
            update_steps=1,
            epochs_run=1,
        )
        for v in (0.3, 0.8)
    ]
    lib = TrialLibrary.from_trials(up)
    assert lib.worst_sentinel() == np.nextafter(0.3, -np.inf)


def test_diverged_trial_with_stored_objective_is_still_imputed():
    lib = TrialLibrary.from_trials([make_trial(1.0), make_trial(9.0, diverged=True)])
    # the stored 9.0 is informational only; analysis uses the sentinel
    assert lib.analysis_objectives()[1] == np.nextafter(1.0, np.inf)


def test_all_diverged_library_has_no_sentinel():
    lib = TrialLibrary.from_trials([make_trial(None, diverged=True)])
    with pytest.raises(ValueError, match="no finished trials"):
        lib.worst_sentinel()


def test_update_steps_array():
    lib = TrialLibrary.from_trials([make_trial(1.0, steps=4), make_trial(2.0, steps=7)])
    steps = lib.update_steps()
    assert steps.dtype == np.int64
    assert np.array_equal(steps, [4, 7])


def per_column_stats(samples):
    columns = [samples[:, k] for k in range(samples.shape[1])]
    return [
        np.array([f(c) for c in columns])
        for f in (
            np.mean, np.var,
            lambda c: np.quantile(c, 0.25),
            lambda c: np.quantile(c, 0.50),
            lambda c: np.quantile(c, 0.75),
        )
    ]


@pytest.mark.parametrize("repetitions", [1, 2, 7, 8, 20, 101, 1000])
def test_from_samples_matches_per_column_statistics_bitwise(repetitions):
    rng = np.random.default_rng(repetitions)
    shape = (repetitions, 40)
    sample_sets = [
        rng.standard_normal(shape),
        rng.integers(-2, 3, size=shape) / 2.0,  # many ties
        rng.choice([-0.0, 0.0, 1.0, -1.0], size=shape),
        rng.choice([-0.0, 0.0], size=shape),
    ]
    for samples in sample_sets:
        curve = BudgetCurve.from_samples(np.arange(1, 41), samples)
        got = [curve.mean, curve.variance, *(curve.quantiles[k] for k in ("q25", "q50", "q75"))]
        for mine, reference in zip(got, per_column_stats(samples)):
            assert mine.tobytes() == reference.tobytes()
