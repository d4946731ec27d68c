"""Random-search driver: trial training, library generation, time-budget runs.

A library is built once per (optimizer, task) and then resampled by the
estimator module to simulate any number of hyperparameter searches.  Trial i
is fully determined by (master_seed, i): its config draw and its training
seed come from substreams keyed on those integers, so generation can be
parallelized or rerun in any order with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from tunebench.core import (
    BudgetCurve,
    Direction,
    RepetitionStreams,
    Trial,
    TrialLibrary,
    substream,
)
from tunebench.optim import (
    OptimizerSpec,
    OptimizerState,
    adagrad_step,
    adam_step,
    early_stop,
    poly_decay,
    sgd_step,
)
from tunebench.priors import PriorSpec, effective_lr_config
from tunebench.tasks import TaskInstance


def train_trial(
    opt: OptimizerSpec,
    config: Mapping[str, float],
    task: TaskInstance,
    trial_seed: int,
) -> Trial:
    """Train one configuration with early stopping and divergence detection.

    A trial is flagged diverged when training produces a nonfinite loss,
    gradient or parameter, or when an epoch ends with the validation loss
    above its value at initialization: the run made the model worse than
    no training at all, which is how exploding runs look long before they
    overflow.  Diverged trials record no objective.
    """
    if set(config) != set(opt.hyperparameters):
        raise ValueError(
            f"config keys {sorted(config)} do not match optimizer "
            f"{opt.optimizer_id!r} hyperparameters {sorted(opt.hyperparameters)}"
        )
    lr0 = config["learning_rate"]
    if opt.effective_lr:
        lr0, momentum = effective_lr_config(lr0, config["effective_learning_rate"])
    else:
        momentum = config.get("momentum", 0.0)
    if opt.family == "sgd":
        update = partial(sgd_step, momentum=momentum, weight_decay=config.get("weight_decay", 0.0))
    elif opt.family == "adam":
        update = partial(
            adam_step, beta1=config["beta1"], beta2=config["beta2"], eps=config["epsilon"]
        )
    else:
        update = adagrad_step

    params = task.init_params(trial_seed)
    state = OptimizerState.initial(params.size)
    baseline = task.validation_loss(params)
    total_steps = task.max_epochs * task.n_batches
    steps = 0
    val_losses: list[float] = []
    diverged = False

    for epoch in range(task.max_epochs):
        for batch in range(task.n_batches):
            loss, grad = task.batch_loss_grad(params, epoch, batch, trial_seed)
            if not (np.isfinite(loss) and np.isfinite(grad).all()):
                diverged = True
                break
            lr = lr0
            if opt.poly_decay:
                lr = poly_decay(lr0, steps, total_steps, config["poly_exponent"])
            params, state = update(params, grad, state, lr)
            steps += 1
            if not np.isfinite(params).all():
                diverged = True
                break
        if diverged:
            break
        val = task.validation_loss(params)
        if not np.isfinite(val) or val > baseline:
            diverged = True
            break
        val_losses.append(val)
        if early_stop(val_losses, patience=2, max_epochs=task.max_epochs):
            break

    return Trial(
        optimizer_id=opt.optimizer_id,
        task_id=task.task_id,
        seed=trial_seed,
        config=config,
        objective=None if diverged else task.objective(params),
        direction=task.direction,
        update_steps=steps,
        epochs_run=len(val_losses),
        diverged=diverged,
    )


def _trial_seed(master_seed: int, index: int) -> int:
    # hash-expanded so trial seeds never collide with the config streams
    return int(np.random.SeedSequence((master_seed, index, 1)).generate_state(1)[0])


def random_search(
    opt: OptimizerSpec,
    prior: PriorSpec,
    task: TaskInstance,
    budget: int,
    master_seed: int,
) -> TrialLibrary:
    """Draw ``budget`` configs from the prior and train each one, in draw order."""
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    if set(prior.names()) != set(opt.hyperparameters):
        raise ValueError(
            f"prior hyperparameters {sorted(prior.names())} do not match "
            f"optimizer {opt.optimizer_id!r} ({sorted(opt.hyperparameters)})"
        )
    # arguments are evaluated left to right: trial i draws its config, then its seed
    return TrialLibrary.from_trials([
        train_trial(opt, prior.sample(substream(master_seed, i, 0)), task, _trial_seed(master_seed, i))
        for i in range(budget)
    ])


@dataclass(frozen=True)
class TimeBudgetResult:
    """Per-optimizer curves over equal step-count intervals."""

    max_steps: int
    boundaries: np.ndarray
    curves: dict[str, BudgetCurve]


def time_budget_curve(
    libraries: Sequence[TrialLibrary],
    intervals: int = 100,
    repetitions: int = 1000,
    rng_seed: int = 0,
) -> TimeBudgetResult:
    """Simulate searches under a shared update-step budget.

    The budget is the smallest total step count any optimizer needed for its
    whole library, split into equal intervals.  Each simulated run draws
    trials with replacement, accumulates their step costs, and records the
    incumbent at every interval boundary; intervals before the first
    completed trial hold the worst sentinel.  Run r of every optimizer uses
    the stream keyed (rng_seed, r), so optimizers of equal library size see
    identical draw sequences and cheaper trials simply reach further into
    the same sequence.  The R streams are built once per call and rewound
    for each library, which is simulated in full before the next one, so
    only one repetitions x intervals sample is held at a time.
    """
    if not libraries:
        raise ValueError("need at least one library")
    if intervals < 1 or repetitions < 1:
        raise ValueError("intervals and repetitions must be positive integers")
    task_id = libraries[0].task_id
    direction = libraries[0].direction
    seen: set[str] = set()
    costs = []
    for lib in libraries:
        if lib.task_id != task_id or lib.direction is not direction:
            raise ValueError("libraries must share one task and direction")
        if lib.optimizer_id in seen:
            raise ValueError(f"duplicate optimizer id {lib.optimizer_id!r}")
        seen.add(lib.optimizer_id)
        costs.append(lib.update_steps())
        if np.any(costs[-1] < 1):
            raise ValueError("every trial must record update_steps >= 1")

    max_steps = min(int(c.sum()) for c in costs)
    boundaries = max_steps * np.arange(1, intervals + 1) / intervals

    curves: dict[str, BudgetCurve] = {}
    best_so_far = np.minimum if direction is Direction.MINIMIZE else np.maximum
    streams = RepetitionStreams(rng_seed, repetitions)
    for lib, cost in zip(libraries, costs):
        objectives = lib.analysis_objectives()
        n = objectives.size
        draws = int(max_steps // int(cost.min())) + 1
        # running[k] is the incumbent after k draws; running[0], before any
        # trial has finished, is the sentinel
        running = np.empty(draws + 1)
        running[0] = lib.worst_sentinel()
        # one row per interval, so from_samples needs no transposed copy
        values = np.empty((intervals, repetitions))
        for r in range(repetitions):
            idx = streams[r].integers(0, n, size=draws)
            completed = np.searchsorted(np.cumsum(cost[idx]), boundaries, side="right")
            best_so_far.accumulate(objectives[idx], out=running[1:])
            values[:, r] = running[completed]
        curves[lib.optimizer_id] = BudgetCurve.from_samples(
            np.arange(1, intervals + 1, dtype=np.int64), values.T
        )
    return TimeBudgetResult(max_steps=max_steps, boundaries=boundaries, curves=curves)
