import numpy as np
import pytest

from tunebench.core import Direction, Trial, TrialLibrary, substream
from tunebench.estimator import bootstrap_runs
from tunebench.hpo import random_search, time_budget_curve, train_trial
from tunebench.optim import optimizer_spec
from tunebench.priors import default_priors
from tunebench.tasks import make_task


def small_quadratic():
    return make_task("quadratic", dim=10, max_epochs=5)


def library_of(objectives, costs, optimizer_id="opt-a", direction=Direction.MINIMIZE):
    trials = [
        Trial(
            optimizer_id=optimizer_id,
            task_id="synthetic",
            seed=i,
            config={},
            objective=float(o),
            direction=direction,
            update_steps=int(c),
            epochs_run=1,
        )
        for i, (o, c) in enumerate(zip(objectives, costs))
    ]
    return TrialLibrary.from_trials(trials)


# --- train_trial --------------------------------------------------------------

def test_tame_config_finishes_and_improves():
    task = small_quadratic()
    opt = optimizer_spec("sgd-lr")
    start = task.validation_loss(task.init_params(7))
    out = train_trial(
        opt, {"learning_rate": 1e-3, "momentum": 0.0, "weight_decay": 0.0}, task, 7
    )
    assert not out.diverged
    assert np.isfinite(out.objective)
    assert out.objective < start
    assert out.update_steps >= task.n_batches
    assert out.epochs_run >= 1


def test_huge_learning_rate_diverges():
    task = small_quadratic()
    opt = optimizer_spec("sgd-lr")
    out = train_trial(
        opt, {"learning_rate": 100.0, "momentum": 0.0, "weight_decay": 0.0}, task, 7
    )
    assert out.diverged
    assert out.objective is None
    assert out.update_steps >= 1


def test_finite_regression_past_baseline_counts_as_divergence():
    # lr slightly past 2/lambda_max grows the loss without overflowing, so
    # only the worse-than-init rule can catch it, and it fires after the
    # first full epoch.
    task = make_task("quadratic", dim=2, max_epochs=5)
    opt = optimizer_spec("sgd-lr")
    out = train_trial(
        opt, {"learning_rate": 0.021, "momentum": 0.0, "weight_decay": 0.0}, task, 3
    )
    assert out.diverged
    assert out.objective is None
    assert out.update_steps == task.n_batches
    assert out.epochs_run == 0


def test_train_trial_is_deterministic():
    task = small_quadratic()
    opt = optimizer_spec("adam-lr")
    config = {
        "learning_rate": 0.05, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8,
    }
    assert train_trial(opt, config, task, 11) == train_trial(opt, config, task, 11)


def test_train_trial_rejects_config_key_mismatch():
    task = small_quadratic()
    opt = optimizer_spec("sgd-lr")
    with pytest.raises(ValueError, match="config keys"):
        train_trial(opt, {"learning_rate": 0.1}, task, 0)


# --- random search ------------------------------------------------------------

def test_random_search_is_reproducible():
    task = small_quadratic()
    opt = optimizer_spec("sgd-lr")
    prior = default_priors("sgd-lr")
    a = random_search(opt, prior, task, budget=5, master_seed=42)
    b = random_search(opt, prior, task, budget=5, master_seed=42)
    c = random_search(opt, prior, task, budget=5, master_seed=43)
    assert isinstance(a, TrialLibrary) and a.direction is Direction.MINIMIZE
    assert a.trials == b.trials
    assert a.trials != c.trials
    assert len(a.trials) == 5
    assert len({t.seed for t in a.trials}) == 5
    assert all(t.optimizer_id == "sgd-lr" and t.task_id == "quadratic" for t in a.trials)


def test_random_search_rejects_wrong_prior():
    task = small_quadratic()
    with pytest.raises(ValueError, match="do not match"):
        random_search(optimizer_spec("sgd-lr"), default_priors("adam"), task, 3, 0)
    with pytest.raises(ValueError, match="budget"):
        random_search(optimizer_spec("sgd-lr"), default_priors("sgd-lr"), task, 0, 0)


# --- time-budget simulation ----------------------------------------------------

def test_unit_costs_reproduce_bootstrap_statistics_bitwise():
    rng = np.random.default_rng(5)
    objectives = rng.standard_normal(7)
    lib = library_of(objectives, [1] * 7)
    reps, seed = 50, 3
    result = time_budget_curve([lib], intervals=7, repetitions=reps, rng_seed=seed)
    curve = result.curves["opt-a"]
    traces = bootstrap_runs(lib, budget=7, repetitions=reps, rng_seed=seed)
    assert result.max_steps == 7
    for b in range(1, 8):
        finals = traces[:, b - 1]
        assert curve.mean[b - 1] == finals.mean()
        assert curve.variance[b - 1] == finals.var()
        assert curve.quantiles["q25"][b - 1] == np.quantile(finals, 0.25)
        assert curve.quantiles["q50"][b - 1] == np.quantile(finals, 0.50)
        assert curve.quantiles["q75"][b - 1] == np.quantile(finals, 0.75)


def reference_time_curve(libraries, intervals, repetitions, rng_seed):
    """One fresh stream per (library, repetition); statistics per interval column."""
    max_steps = min(int(lib.update_steps().sum()) for lib in libraries)
    boundaries = max_steps * np.arange(1, intervals + 1) / intervals
    accumulate = (
        np.minimum.accumulate if libraries[0].direction is Direction.MINIMIZE
        else np.maximum.accumulate
    )
    stats = {}
    for lib in libraries:
        costs = lib.update_steps()
        objectives = lib.analysis_objectives()
        draws = max_steps // int(costs.min()) + 1
        values = np.empty((repetitions, intervals))
        for r in range(repetitions):
            idx = substream(rng_seed, r).integers(0, objectives.size, size=draws)
            completed = np.searchsorted(np.cumsum(costs[idx]), boundaries, side="right")
            running = accumulate(objectives[idx])
            values[r] = np.where(
                completed > 0, running[np.maximum(completed - 1, 0)], lib.worst_sentinel()
            )
        columns = [values[:, k] for k in range(intervals)]
        stats[lib.optimizer_id] = [
            np.array([f(c) for c in columns])
            for f in (
                np.mean, np.var,
                lambda c: np.quantile(c, 0.25),
                lambda c: np.quantile(c, 0.50),
                lambda c: np.quantile(c, 0.75),
            )
        ]
    return stats


@pytest.mark.parametrize("direction", [Direction.MINIMIZE, Direction.MAXIMIZE])
def test_time_curve_matches_per_library_reference(direction):
    rng = np.random.default_rng(17)

    def library(optimizer_id, size, diverged):
        return TrialLibrary.from_trials([
            Trial(
                optimizer_id=optimizer_id, task_id="synthetic", seed=i, config={},
                objective=None if i < diverged else float(rng.integers(0, 9)) / 8.0,
                direction=direction, update_steps=int(rng.integers(1, 6)),
                epochs_run=1, diverged=i < diverged,
            )
            for i in range(size)
        ])

    libraries = [library("a", 5, 0), library("b", 9, 3), library("c", 5, 1), library("d", 14, 0)]
    result = time_budget_curve(libraries, intervals=11, repetitions=60, rng_seed=4)
    reference = reference_time_curve(libraries, 11, 60, 4)
    for lib in libraries:
        curve = result.curves[lib.optimizer_id]
        got = [curve.mean, curve.variance, *(curve.quantiles[k] for k in ("q25", "q50", "q75"))]
        for mine, theirs in zip(got, reference[lib.optimizer_id]):
            assert mine.tobytes() == theirs.tobytes(), lib.optimizer_id


def test_cheaper_trials_reach_further_into_the_same_stream():
    rng = np.random.default_rng(8)
    objectives = rng.standard_normal(20)
    cheap = library_of(objectives, [1] * 20, optimizer_id="cheap")
    costly = library_of(objectives, [2] * 20, optimizer_id="costly")
    result = time_budget_curve([cheap, costly], intervals=10, repetitions=40, rng_seed=1)
    a = result.curves["cheap"].mean
    b = result.curves["costly"].mean
    assert np.all(a <= b)
    assert a.sum() < b.sum()


def test_single_trial_curve_is_sentinel_then_value():
    lib = library_of([2.0], [5])
    result = time_budget_curve([lib], intervals=5, repetitions=3, rng_seed=0)
    curve = result.curves["opt-a"]
    sentinel = np.nextafter(2.0, np.inf)
    assert np.array_equal(result.boundaries, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(curve.mean, [sentinel] * 4 + [2.0])
    assert np.array_equal(curve.variance, np.zeros(5))


def test_maximize_curve_is_nondecreasing():
    lib = library_of([0.1, 0.9], [1, 1], direction=Direction.MAXIMIZE)
    result = time_budget_curve([lib], intervals=2, repetitions=30, rng_seed=2)
    mean = result.curves["opt-a"].mean
    assert mean[1] >= mean[0]


def test_time_curve_validation():
    lib = library_of([1.0], [1])
    with pytest.raises(ValueError, match="at least one"):
        time_budget_curve([], intervals=2, repetitions=2)
    with pytest.raises(ValueError, match="duplicate"):
        time_budget_curve([lib, lib], intervals=2, repetitions=2)
    with pytest.raises(ValueError, match="positive"):
        time_budget_curve([lib], intervals=0, repetitions=2)
    other_task = TrialLibrary(
        optimizer_id="opt-b",
        task_id="elsewhere",
        direction=Direction.MINIMIZE,
        trials=(
            Trial(
                optimizer_id="opt-b", task_id="elsewhere", seed=0, config={},
                objective=1.0, direction=Direction.MINIMIZE, update_steps=1,
                epochs_run=1,
            ),
        ),
    )
    with pytest.raises(ValueError, match="share one task"):
        time_budget_curve([lib, other_task], intervals=2, repetitions=2)
    free_ride = Trial(
        optimizer_id="opt-c", task_id="synthetic", seed=0, config={},
        objective=None, direction=Direction.MINIMIZE, update_steps=0,
        epochs_run=0, diverged=True,
    )
    finished = Trial(
        optimizer_id="opt-c", task_id="synthetic", seed=1, config={},
        objective=1.0, direction=Direction.MINIMIZE, update_steps=1, epochs_run=1,
    )
    zero_cost = TrialLibrary.from_trials([free_ride, finished])
    with pytest.raises(ValueError, match="update_steps"):
        time_budget_curve([zero_cost], intervals=2, repetitions=2)
