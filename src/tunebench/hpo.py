"""Random-search driver: population training, library generation, time-budget runs.

A library is built once per (optimizer, task) and then resampled by the
estimator module to simulate any number of hyperparameter searches.  All
trials of a search train together as one population: a (P, dim) parameter
matrix stepped in lockstep, with each hyperparameter a (P, 1) column.  Trial
i is fully determined by (master_seed, i): its config draw and its training
seed come from substreams keyed on those integers, and every operation on
the population acts on each trial's row alone, so a trial's record is bit
for bit the same whether it trains alone, in a population of any size, or
after its neighbours have left the population.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    adagrad_step,
    adam_step,
    early_stop,
    poly_decay,
    sgd_step,
)
from tunebench.priors import PriorSpec, effective_lr_config
from tunebench.tasks import TaskInstance

# Trials per population in random_search.  A population's arrays grow with
# its size (the MLP's (P, batch, hidden) activations, the quadratic's
# (P, n_batches, dim) noise block), so a large budget trains in pieces.
_MAX_POPULATION = 128


def _hyperparameters(opt: OptimizerSpec, configs: Sequence[Mapping[str, float]]) -> dict:
    """The values the update rule reads, one (P, 1) column per name."""
    for config in configs:
        if set(config) != set(opt.hyperparameters):
            raise ValueError(
                f"config keys {sorted(config)} do not match optimizer "
                f"{opt.optimizer_id!r} hyperparameters {sorted(opt.hyperparameters)}"
            )
    if opt.effective_lr:
        pairs = [effective_lr_config(c["learning_rate"], c["effective_learning_rate"]) for c in configs]
    else:
        pairs = [(c["learning_rate"], c.get("momentum", 0.0)) for c in configs]
    columns = {"lr": [lr for lr, _ in pairs]}
    if opt.family == "sgd":
        columns["momentum"] = [momentum for _, momentum in pairs]
        columns["weight_decay"] = [c.get("weight_decay", 0.0) for c in configs]
    elif opt.family == "adam":
        for name in ("beta1", "beta2", "epsilon"):
            columns[name] = [c[name] for c in configs]
    if opt.poly_decay:
        columns["poly_exponent"] = [c["poly_exponent"] for c in configs]
    return {name: np.array(values, dtype=float)[:, None] for name, values in columns.items()}


_BUFFERS = {"sgd": ("velocity",), "adam": ("m", "u"), "adagrad": ("accum",)}


def _update(family: str, live: dict, grad: np.ndarray, lr, step: int) -> None:
    """One update of every live trial, in place."""
    if family == "sgd":
        sgd_step(live["params"], grad, live["velocity"], lr, live["momentum"], live["weight_decay"])
    elif family == "adam":
        adam_step(
            live["params"], grad, live["m"], live["u"], step, lr,
            live["beta1"], live["beta2"], live["epsilon"],
        )
    else:
        adagrad_step(live["params"], grad, live["accum"], lr)


def train_population(
    opt: OptimizerSpec,
    configs: Sequence[Mapping[str, float]],
    task: TaskInstance,
    seeds: Sequence[int],
) -> list[Trial]:
    """Train trial k from ``configs[k]`` and ``seeds[k]``, all trials in lockstep.

    Each trial runs with early stopping and divergence detection.  A trial
    is flagged diverged when training produces a nonfinite loss, gradient
    or parameter, or when an epoch ends with the validation loss above its
    value at initialization: the run made the model worse than no training
    at all, which is how exploding runs look long before they overflow.
    Diverged trials record no objective.  A trial that stops, either way,
    leaves the live set with its step count, epoch count and final
    parameters, and the live arrays are compacted to the trials left.
    """
    live = {
        "trial": np.arange(len(configs)),
        "seed": np.array(seeds),
        "params": np.stack([task.init_params(seed) for seed in seeds]),
        **_hyperparameters(opt, configs),
    }
    for name in _BUFFERS[opt.family]:
        live[name] = np.zeros_like(live["params"])
    live["baseline"] = task.validation_loss(live["params"])
    live["best"] = np.full(len(configs), np.nan)
    live["stale"] = np.zeros(len(configs), dtype=np.int64)

    update_steps = np.zeros(len(configs), dtype=np.int64)
    epochs_run = np.zeros(len(configs), dtype=np.int64)
    diverged = np.zeros(len(configs), dtype=bool)
    objective = np.full(len(configs), np.nan)

    def retire(leaving: np.ndarray, steps: int, epochs: int, failed: bool) -> None:
        rows = live["trial"][leaving]
        update_steps[rows] = steps
        epochs_run[rows] = epochs
        diverged[rows] = failed
        if not failed:
            objective[rows] = task.objective(live["params"][leaving])
        staying = ~leaving
        for name, values in live.items():
            live[name] = values[staying]

    total_steps = task.max_epochs * task.n_batches
    steps = 0
    for epoch in range(task.max_epochs):
        if not live["trial"].size:
            break
        live.pop("noise", None)  # free the last epoch's block before drawing this one
        noise = task.epoch_noise(live["seed"], epoch)
        if noise is not None:
            live["noise"] = noise
        for batch in range(task.n_batches):
            loss, grad = task.batch_loss_grad(live["params"], epoch, batch, live["seed"], live.get("noise"))
            blown = ~(np.isfinite(loss) & np.isfinite(grad).all(axis=1))
            if blown.any():
                retire(blown, steps, epoch, failed=True)
                grad = grad[~blown]
                if not live["trial"].size:
                    break
            lr = live["lr"]
            if opt.poly_decay:
                lr = poly_decay(lr, steps, total_steps, live["poly_exponent"])
            steps += 1
            _update(opt.family, live, grad, lr, steps)
            blown = ~np.isfinite(live["params"]).all(axis=1)
            if blown.any():
                retire(blown, steps, epoch, failed=True)
                if not live["trial"].size:
                    break
        else:  # the epoch ended with trials left
            val = task.validation_loss(live["params"])
            regressed = ~np.isfinite(val) | (val > live["baseline"])
            if regressed.any():
                retire(regressed, steps, epoch, failed=True)
                val = val[~regressed]
            live["best"], live["stale"], stop = early_stop(
                live["best"], live["stale"], val, epoch + 1, max_epochs=task.max_epochs
            )
            if stop.any():
                retire(stop, steps, epoch + 1, failed=False)

    return [
        Trial(
            optimizer_id=opt.optimizer_id,
            task_id=task.task_id,
            seed=seed,
            config=config,
            objective=None if diverged[k] else float(objective[k]),
            direction=task.direction,
            update_steps=int(update_steps[k]),
            epochs_run=int(epochs_run[k]),
            diverged=bool(diverged[k]),
        )
        for k, (config, seed) in enumerate(zip(configs, seeds))
    ]


def train_trial(
    opt: OptimizerSpec,
    config: Mapping[str, float],
    task: TaskInstance,
    trial_seed: int,
) -> Trial:
    """Train one configuration: a population of one."""
    return train_population(opt, [config], task, [trial_seed])[0]


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
    """Draw ``budget`` configs from the prior and train them, in draw order."""
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    if set(prior.names()) != set(opt.hyperparameters):
        raise ValueError(
            f"prior hyperparameters {sorted(prior.names())} do not match "
            f"optimizer {opt.optimizer_id!r} ({sorted(opt.hyperparameters)})"
        )
    configs = [prior.sample(substream(master_seed, i, 0)) for i in range(budget)]
    seeds = [_trial_seed(master_seed, i) for i in range(budget)]
    trials = []
    for start in range(0, budget, _MAX_POPULATION):
        chunk = slice(start, start + _MAX_POPULATION)
        trials += train_population(opt, configs[chunk], task, seeds[chunk])
    return TrialLibrary.from_trials(trials)


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
