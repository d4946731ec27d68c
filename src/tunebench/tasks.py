"""Desk-scale training tasks with minibatch gradient oracles.

Each task is an immutable problem instance: fixed data (or noise model),
fixed train/validation split, and pure functions for batch gradients and
validation metrics.  Batch order is a function of (data seed, epoch) and
gradient noise of (trial seed, epoch, batch), so rerunning a trial
reproduces its loss trajectory exactly.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from tunebench.core import Direction, substream


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |t|
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _logistic_loss(z: np.ndarray, y: np.ndarray) -> float:
    return float(np.logaddexp(0.0, -y * z).mean())


def _check_schedule(batch_size: int, max_epochs: int) -> None:
    if batch_size < 1:
        raise ValueError(f"batch_size = {batch_size} must be >= 1")
    if max_epochs < 1:
        raise ValueError(f"max_epochs = {max_epochs} must be >= 1")


@dataclass(frozen=True)
class QuadraticTask:
    """Diagonal quadratic bowl with additive gradient noise.

    Loss is 0.5 * w'Qw with eigenvalues log-spaced over [1e-2, 1e2]
    (condition number 1e4).  A minibatch contributes the exact gradient Qw
    plus Gaussian noise, realized as the linear term xi'w so that batch loss
    and batch gradient stay consistent.  Validation loss is noise-free.
    """

    dim: int
    data_seed: int
    batch_size: int
    max_epochs: int
    train_size: int
    noise_scale: float
    eigenvalues: np.ndarray

    task_id = "quadratic"
    direction = Direction.MINIMIZE

    @property
    def n_batches(self) -> int:
        return self.train_size // self.batch_size

    def init_params(self, trial_seed: int) -> np.ndarray:
        return np.ones(self.dim)

    def batch_loss_grad(
        self, params: np.ndarray, epoch: int, batch: int, trial_seed: int
    ) -> tuple[float, np.ndarray]:
        noise = self.noise_scale * substream(trial_seed, epoch, batch).standard_normal(self.dim)
        quad = self.eigenvalues * params
        loss = 0.5 * float(params @ quad) + float(noise @ params)
        return loss, quad + noise

    def validation_loss(self, params: np.ndarray) -> float:
        return 0.5 * float(params @ (self.eigenvalues * params))

    def objective(self, params: np.ndarray) -> float:
        return self.validation_loss(params)


def quadratic_deep_task(
    dim: int = 100,
    seed: int = 0,
    batch_size: int = 50,
    max_epochs: int = 50,
    train_size: int = 1000,
) -> QuadraticTask:
    if dim < 2:
        raise ValueError("quadratic task needs dim >= 2")
    if train_size < 1:
        raise ValueError(f"train_size = {train_size} must be >= 1")
    _check_schedule(batch_size, max_epochs)
    return QuadraticTask(
        dim=dim,
        data_seed=seed,
        batch_size=batch_size,
        max_epochs=max_epochs,
        train_size=train_size,
        noise_scale=0.1,
        eigenvalues=np.logspace(-2.0, 2.0, dim),
    )


@dataclass(frozen=True)
class _ClassifierTask:
    """A binary classifier on labels +-1, trained with the logistic loss.

    A model supplies ``_forward(params, x)``, which returns the logits and
    what ``_backward(params, x, saved, dz)`` needs to turn the logit
    gradient ``dz`` into the parameter gradient.  Each epoch's batch order
    is drawn once, when first asked for, and kept on the instance.
    """

    data_seed: int
    batch_size: int
    max_epochs: int
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    _orders: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def train_size(self) -> int:
        return self.train_x.shape[0]

    @property
    def n_batches(self) -> int:
        return self.train_size // self.batch_size

    def _epoch_order(self, epoch: int) -> np.ndarray:
        if epoch not in self._orders:
            self._orders[epoch] = substream(self.data_seed, epoch).permutation(self.train_size)
        return self._orders[epoch]

    def batch_loss_grad(
        self, params: np.ndarray, epoch: int, batch: int, trial_seed: int
    ) -> tuple[float, np.ndarray]:
        rows = self._epoch_order(epoch)[batch * self.batch_size : (batch + 1) * self.batch_size]
        x, y = self.train_x[rows], self.train_y[rows]
        z, saved = self._forward(params, x)
        dz = -y * _sigmoid(-y * z) / y.size
        return _logistic_loss(z, y), self._backward(params, x, saved, dz)

    def validation_loss(self, params: np.ndarray) -> float:
        return _logistic_loss(self._forward(params, self.val_x)[0], self.val_y)

    def accuracy(self, params: np.ndarray) -> float:
        return float((np.sign(self._forward(params, self.val_x)[0]) == self.val_y).mean())


def _shuffled_split(rng: np.random.Generator, x: np.ndarray, y: np.ndarray) -> dict:
    """Training and validation fields from the first 80% and last 20% of a shuffle."""
    order = rng.permutation(y.size)
    x, y = x[order], y[order]
    n_train = int(0.8 * y.size)
    return {"train_x": x[:n_train], "train_y": y[:n_train], "val_x": x[n_train:], "val_y": y[n_train:]}


@dataclass(frozen=True)
class LogRegTask(_ClassifierTask):
    """Binary logistic regression on two Gaussian clusters at +-m.

    The cluster means sit two sigma from the origin (4 sigma apart), so the
    Bayes accuracy is about 0.977 and a tuned linear model clears 0.95.
    The decision boundary passes through the origin by symmetry, so there
    is no bias term and zero weights score exactly ln 2.
    """

    dim: int

    task_id = "logreg"
    direction = Direction.MINIMIZE

    def init_params(self, trial_seed: int) -> np.ndarray:
        return 0.01 * substream(trial_seed).standard_normal(self.dim)

    def _forward(self, params: np.ndarray, x: np.ndarray):
        return x @ params, None

    def _backward(self, params, x, saved, dz) -> np.ndarray:
        return x.T @ dz

    def objective(self, params: np.ndarray) -> float:
        return self.validation_loss(params)


def logreg_task(
    n: int = 2000,
    dim: int = 20,
    seed: int = 0,
    batch_size: int = 100,
    max_epochs: int = 30,
) -> LogRegTask:
    if n < 10:
        raise ValueError("logreg task needs n >= 10")
    if dim < 1:
        raise ValueError("logreg task needs dim >= 1")
    _check_schedule(batch_size, max_epochs)
    rng = substream(seed)
    half = n // 2
    mean = (2.0 / np.sqrt(dim)) * np.ones(dim)  # ||mean|| = 2, clusters 4 sigma apart
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    x = y[:, None] * mean + rng.standard_normal((n, dim))
    return LogRegTask(
        dim=dim,
        data_seed=seed,
        batch_size=batch_size,
        max_epochs=max_epochs,
        **_shuffled_split(rng, x, y),
    )


@dataclass(frozen=True)
class MlpTask(_ClassifierTask):
    """Two-layer tanh perceptron (32 hidden units) on two noisy spirals.

    Parameters are one flat vector: W1 (2x32), b1 (32), w2 (32), b2 (1).
    The recorded objective is validation accuracy (maximized); validation
    loss drives early stopping.
    """

    task_id = "mlp"
    hidden = 32
    direction = Direction.MAXIMIZE

    @property
    def dim(self) -> int:
        return 2 * self.hidden + self.hidden + self.hidden + 1

    def _unpack(self, params: np.ndarray):
        h = self.hidden
        w1 = params[: 2 * h].reshape(2, h)
        b1 = params[2 * h : 3 * h]
        w2 = params[3 * h : 4 * h]
        b2 = params[4 * h]
        return w1, b1, w2, b2

    def init_params(self, trial_seed: int) -> np.ndarray:
        rng = substream(trial_seed)
        h = self.hidden
        w1 = rng.standard_normal((2, h)) / np.sqrt(2.0)
        b1 = 0.1 * rng.standard_normal(h)
        w2 = rng.standard_normal(h) / np.sqrt(h)
        b2 = 0.1 * rng.standard_normal(1)
        return np.concatenate([w1.ravel(), b1, w2, b2])

    def _forward(self, params: np.ndarray, x: np.ndarray):
        w1, b1, w2, b2 = self._unpack(params)
        hidden = np.tanh(x @ w1 + b1)
        return hidden @ w2 + b2, hidden

    def _backward(self, params, x, hidden, dz) -> np.ndarray:
        w2 = self._unpack(params)[2]
        dpre = np.outer(dz, w2) * (1.0 - hidden * hidden)
        return np.concatenate([(x.T @ dpre).ravel(), dpre.sum(axis=0), hidden.T @ dz, [dz.sum()]])

    def objective(self, params: np.ndarray) -> float:
        return self.accuracy(params)


def mlp_task(
    seed: int = 0,
    n: int = 1000,
    batch_size: int = 50,
    max_epochs: int = 40,
) -> MlpTask:
    _check_schedule(batch_size, max_epochs)
    rng = substream(seed)
    half = n // 2
    n = 2 * half  # one point per class per spine position
    x = np.empty((n, 2))
    y = np.empty(n)
    spine = np.linspace(0.0, 1.0, half)
    for k in (0, 1):
        radius = 0.2 + 0.8 * spine
        angle = 3.0 * np.pi * spine + np.pi * k
        block = slice(k * half, (k + 1) * half)
        x[block, 0] = radius * np.cos(angle)
        x[block, 1] = radius * np.sin(angle)
        y[block] = 2.0 * k - 1.0
    x += 0.05 * rng.standard_normal(x.shape)
    return MlpTask(
        data_seed=seed,
        batch_size=batch_size,
        max_epochs=max_epochs,
        **_shuffled_split(rng, x, y),
    )


TaskInstance = QuadraticTask | LogRegTask | MlpTask

_FACTORIES = {"quadratic": quadratic_deep_task, "logreg": logreg_task, "mlp": mlp_task}


def task_ids() -> tuple[str, ...]:
    return tuple(_FACTORIES)


def _factory(task_id: str):
    try:
        return _FACTORIES[task_id]
    except KeyError:
        known = ", ".join(_FACTORIES)
        raise ValueError(f"unknown task id {task_id!r}; known ids: {known}") from None


def task_parameters(task_id: str) -> tuple[str, ...]:
    """Names of the keyword overrides ``make_task`` accepts for a task id."""
    return tuple(inspect.signature(_factory(task_id)).parameters)


def make_task(task_id: str, **overrides) -> TaskInstance:
    """Build a task by id with optional keyword overrides (dim, seed, ...).

    A size below its minimum raises a ValueError that names the key;
    ``check_trainable`` compares the batch size with the training set.
    """
    return _factory(task_id)(**overrides)


def check_trainable(task: TaskInstance) -> None:
    """Reject a task whose batch size exceeds its training set.

    Such a task can still be evaluated, but training it would never take
    an update step.
    """
    if task.n_batches < 1:
        raise ValueError(
            f"batch_size = {task.batch_size} is larger than the {task.train_size}-point training set"
        )


def evaluate(task: TaskInstance, params: np.ndarray) -> float:
    """The task's validation objective at the given parameters."""
    params = np.asarray(params, dtype=float)
    if params.shape != (task.dim,):
        raise ValueError(f"params must have shape ({task.dim},), got {params.shape}")
    return task.objective(params)
