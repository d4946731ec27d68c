"""Update rules, learning-rate decay and early stopping for the testbed.

Everything here acts on a population of trials at once: parameters,
gradients and optimizer buffers are (P, dim) arrays with one row per trial,
and a hyperparameter is a number or a (P, 1) column.  Each operation is
elementwise or row by row, so a trial's update does not depend on the other
rows.  The steppers update ``params`` and their buffers in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def sgd_step(params, grads, velocity, lr, momentum=0.0, weight_decay=0.0) -> None:
    """Heavy-ball SGD with decoupled weight decay applied before the update."""
    velocity *= momentum
    velocity += grads
    params *= 1.0 - weight_decay
    params -= lr * velocity


def adam_step(params, grads, m, u, step, lr, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """Adam; ``step`` counts the updates made so far, this one included."""
    m *= beta1
    m += (1.0 - beta1) * grads
    u *= beta2
    u += (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1**step)
    u_hat = u / (1.0 - beta2**step)
    params -= lr * m_hat / (np.sqrt(u_hat) + eps)


def adagrad_step(params, grads, accum, lr, eps=1e-10) -> None:
    accum += grads * grads
    params -= lr * grads / (np.sqrt(accum) + eps)


def poly_decay(lr0, step: int, total_steps: int, exponent):
    """Polynomial decay lr0 * (1 - step/total_steps)**exponent, floored at 0."""
    if np.min(lr0) <= 0:
        raise ValueError("base learning rate must be positive")
    if total_steps < 1:
        raise ValueError("total_steps must be a positive integer")
    if np.min(exponent) <= 0:
        raise ValueError("decay exponent must be positive")
    if step < 0:
        raise ValueError("step must be nonnegative")
    if step >= total_steps:
        return 0.0 * lr0
    return lr0 * (1.0 - step / total_steps) ** exponent


def early_stop(
    best,
    stale,
    losses,
    epochs: int,
    patience: int = 2,
    max_epochs: int | None = None,
    rel_delta: float = 1e-4,
):
    """Fold the validation losses of epoch number ``epochs`` into the
    early-stopping record and decide which trials stop after it.

    An epoch improves when its validation loss beats the best significant
    loss so far by a relative margin of ``rel_delta``; sub-margin downticks
    do not reset the plateau.  ``best`` holds each trial's best significant
    loss (NaN before its first epoch) and ``stale`` the epochs since that
    loss was seen.  Returns the new ``best`` and ``stale`` and the mask of
    trials to stop: those with more than ``patience`` consecutive epochs
    without improvement, and every trial once the epoch cap is reached.
    """
    if epochs < 1:
        raise ValueError("epochs must count at least one epoch")
    if patience < 0:
        raise ValueError("patience must be nonnegative")
    improved = np.isnan(best) | (losses < best - rel_delta * np.abs(best))
    best = np.where(improved, losses, best)
    stale = np.where(improved, 0, stale + 1)
    return best, stale, (stale > patience) | (max_epochs is not None and epochs >= max_epochs)


@dataclass(frozen=True)
class OptimizerSpec:
    """An update-rule family plus its free/fixed hyperparameter split.

    ``free`` names are sampled from a prior; ``fixed`` entries are baked-in
    constants.  A config for this optimizer carries exactly the union.
    """

    optimizer_id: str
    family: str  # "sgd" | "adam" | "adagrad"
    free: tuple[str, ...]
    fixed: dict[str, float] = field(default_factory=dict)
    poly_decay: bool = False
    effective_lr: bool = False

    @property
    def hyperparameters(self) -> tuple[str, ...]:
        return self.free + tuple(self.fixed)


_ROSTER: dict[str, OptimizerSpec] = {
    spec.optimizer_id: spec
    for spec in [
        OptimizerSpec("sgd-lr", "sgd", ("learning_rate",),
                      {"momentum": 0.0, "weight_decay": 0.0}),
        OptimizerSpec("sgd-m", "sgd", ("learning_rate", "momentum"),
                      {"weight_decay": 0.0}),
        OptimizerSpec("sgd-mc", "sgd", ("learning_rate",),
                      {"momentum": 0.9, "weight_decay": 0.0}),
        OptimizerSpec("sgd-mcwc", "sgd", ("learning_rate",),
                      {"momentum": 0.9, "weight_decay": 1e-5}),
        OptimizerSpec("sgd-mcd", "sgd", ("learning_rate", "poly_exponent"),
                      {"momentum": 0.9, "weight_decay": 1e-5}, poly_decay=True),
        OptimizerSpec("sgd-mw", "sgd", ("learning_rate", "momentum", "weight_decay")),
        OptimizerSpec("adagrad", "adagrad", ("learning_rate",)),
        OptimizerSpec("adam-lr", "adam", ("learning_rate",),
                      {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}),
        OptimizerSpec("adam", "adam",
                      ("learning_rate", "beta1", "beta2", "epsilon")),
        OptimizerSpec("adam-wcd", "adam", ("learning_rate", "poly_exponent"),
                      {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8},
                      poly_decay=True),
        OptimizerSpec("sgd-lreff", "sgd",
                      ("learning_rate", "effective_learning_rate", "weight_decay"),
                      effective_lr=True),
    ]
}


def optimizer_ids() -> tuple[str, ...]:
    return tuple(_ROSTER)


def optimizer_spec(optimizer_id: str) -> OptimizerSpec:
    try:
        return _ROSTER[optimizer_id]
    except KeyError:
        known = ", ".join(_ROSTER)
        raise ValueError(f"unknown optimizer id {optimizer_id!r}; known ids: {known}") from None
