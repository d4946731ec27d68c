"""Seeded trial-library synthesizer for the analysis workloads.

The analysis workloads must feed the parent commit and a changed commit
byte-identical inputs, so this module never calls tunebench's sampling or
training code: it writes JSONL trial records straight from numpy's own
generator, keyed by the workload seed.  The records mirror what real
100-trial libraries from `tunebench generate` look like:

- the diverged share of each library is taken from a measured full-roster
  run (0 to 0.88; SGD on quadratic diverges most, adam-lr on mlp 0.63);
- `update_steps` are whole epochs of batches (quadratic 20, logreg 16,
  mlp 16 per epoch); finished trials stop after 4 epochs at the earliest
  and at the task's epoch cap at the latest; diverged trials stop within
  their first epochs;
- mlp objectives are validation accuracies on 200 points, so they are
  quantized to 1/200 and a 100-trial library holds a few dozen distinct
  values at most; quadratic and logreg objectives are continuous losses;
- every config holds exactly its optimizer's hyperparameter names, drawn
  from the stock prior families.

The seed moves every value and the order of the trials.  The multiset of
step costs and the number of diverged trials per library are fixed by
stratified draws, because the cost of `time-curve` scales with the total
and the smallest step cost of a library: with them fixed, two seeds cost
the same amount of work and differ only in the values being analysed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Per-task constants of the stock tasks: direction, batches per epoch,
# epoch cap.
TASKS = {
    "quadratic": ("min", 20, 50),
    "logreg": ("min", 16, 30),
    "mlp": ("max", 16, 40),
}

_SGD_LR = ("log_normal", -2.09, 1.312)
_FREE = {
    "sgd": {
        "learning_rate": _SGD_LR,
        "effective_learning_rate": _SGD_LR,
        "momentum": ("uniform", 0.0, 1.0),
        "weight_decay": ("log_uniform10", -5.0, -1.0),
        "poly_exponent": ("uniform", 0.5, 5.0),
    },
    "adagrad": {"learning_rate": ("log_normal", -2.004, 1.20)},
    "adam": {
        "learning_rate": ("log_normal", -2.69, 1.42),
        "beta1": ("one_minus_log_uniform10", -5.0, -1.0),
        "beta2": ("one_minus_log_uniform10", -5.0, -1.0),
        "epsilon": ("log_uniform10", -8.0, 0.0),
        "poly_exponent": ("uniform", 0.5, 5.0),
    },
}

_ADAM_FIXED = {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}

# optimizer id -> (family, free names, fixed values); the stock roster.
ROSTER = {
    "sgd-lr": ("sgd", ("learning_rate",), {"momentum": 0.0, "weight_decay": 0.0}),
    "sgd-m": ("sgd", ("learning_rate", "momentum"), {"weight_decay": 0.0}),
    "sgd-mc": ("sgd", ("learning_rate",), {"momentum": 0.9, "weight_decay": 0.0}),
    "sgd-mcwc": ("sgd", ("learning_rate",), {"momentum": 0.9, "weight_decay": 1e-5}),
    "sgd-mcd": ("sgd", ("learning_rate", "poly_exponent"), {"momentum": 0.9, "weight_decay": 1e-5}),
    "sgd-mw": ("sgd", ("learning_rate", "momentum", "weight_decay"), {}),
    "adagrad": ("adagrad", ("learning_rate",), {}),
    "adam-lr": ("adam", ("learning_rate",), _ADAM_FIXED),
    "adam": ("adam", ("learning_rate", "beta1", "beta2", "epsilon"), {}),
    "adam-wcd": ("adam", ("learning_rate", "poly_exponent"), _ADAM_FIXED),
    "sgd-lreff": ("sgd", ("learning_rate", "effective_learning_rate", "weight_decay"), {}),
}

# (optimizer, task) -> (diverged share, median epochs of finished trials),
# measured on a 100-trial full-roster `generate` with seed 0.
SHAPE = {
    ("sgd-lr", "quadratic"): (0.88, 50), ("sgd-lr", "logreg"): (0.00, 30), ("sgd-lr", "mlp"): (0.10, 10),
    ("sgd-m", "quadratic"): (0.88, 50), ("sgd-m", "logreg"): (0.00, 30), ("sgd-m", "mlp"): (0.21, 8),
    ("sgd-mc", "quadratic"): (0.86, 19), ("sgd-mc", "logreg"): (0.00, 10), ("sgd-mc", "mlp"): (0.46, 8),
    ("sgd-mcwc", "quadratic"): (0.77, 18), ("sgd-mcwc", "logreg"): (0.00, 8), ("sgd-mcwc", "mlp"): (0.49, 8),
    ("sgd-mcd", "quadratic"): (0.87, 50), ("sgd-mcd", "logreg"): (0.00, 7), ("sgd-mcd", "mlp"): (0.42, 7),
    ("sgd-mw", "quadratic"): (0.81, 39), ("sgd-mw", "logreg"): (0.00, 22), ("sgd-mw", "mlp"): (0.20, 7),
    ("adagrad", "quadratic"): (0.00, 32), ("adagrad", "logreg"): (0.00, 30), ("adagrad", "mlp"): (0.18, 10),
    ("adam-lr", "quadratic"): (0.00, 11), ("adam-lr", "logreg"): (0.00, 10), ("adam-lr", "mlp"): (0.63, 8),
    ("adam", "quadratic"): (0.01, 7), ("adam", "logreg"): (0.01, 5), ("adam", "mlp"): (0.48, 7),
    ("adam-wcd", "quadratic"): (0.03, 17), ("adam-wcd", "logreg"): (0.00, 10), ("adam-wcd", "mlp"): (0.50, 8),
    ("sgd-lreff", "quadratic"): (0.83, 19), ("sgd-lreff", "logreg"): (0.00, 30), ("sgd-lreff", "mlp"): (0.17, 7),
}

# Epochs completed before an mlp trial diverges (0 = inside the first
# epoch); quadratic and logreg trials diverge in their first epoch.
_MLP_DIVERGE_EPOCHS = (0, 1, 2, 3, 4, 5)
_MLP_DIVERGE_WEIGHTS = (0.65, 0.12, 0.05, 0.03, 0.02, 0.13)

_MIN_EPOCHS = 4  # early stopping with patience 2 never stops sooner
_MLP_VAL_POINTS = 200
_MLP_TOP_HITS = 130  # best accuracy seen on the spiral task: 0.65


def _stratified(quantile, n: int) -> list:
    """n values of a quantile function at the midpoints of n equal strata."""
    return [quantile((i + 0.5) / n) for i in range(n)]


def _finished_epochs(median: int, cap: int, n: int) -> list[int]:
    # e(p) = 4 + (cap - 4) * p**gamma, gamma chosen so e(0.5) = median
    span = cap - _MIN_EPOCHS
    frac = min(max((median - _MIN_EPOCHS) / span, 1e-3), 0.97)
    gamma = math.log(frac) / math.log(0.5)
    return _stratified(lambda p: _MIN_EPOCHS + round(span * p**gamma), n)


def _diverged_epochs(task: str, n: int) -> list[int]:
    if task != "mlp":
        return [0] * n
    edges = np.cumsum(_MLP_DIVERGE_WEIGHTS)
    return _stratified(lambda p: _MLP_DIVERGE_EPOCHS[int(np.searchsorted(edges, p))], n)


def _draw(rng: np.random.Generator, spec) -> float:
    family, a, b = spec
    if family == "log_normal":
        return float(np.exp(rng.normal(a, b)))
    if family == "uniform":
        return float(rng.uniform(a, b))
    if family == "log_uniform10":
        return float(10.0 ** rng.uniform(a, b))
    return float(1.0 - 10.0 ** rng.uniform(a, b))  # one_minus_log_uniform10


def _config(rng: np.random.Generator, optimizer: str) -> dict[str, float]:
    family, free, fixed = ROSTER[optimizer]
    config = {name: _draw(rng, _FREE[family][name]) for name in free}
    config.update(fixed)
    return config


def _objective(rng: np.random.Generator, task: str, hits_scale: float) -> float:
    if task == "quadratic":
        return float(np.exp(rng.normal(math.log(0.06), 1.4)))
    if task == "logreg":
        return float(0.048 + np.exp(rng.normal(math.log(0.008), 1.3)))
    misses = min(int(rng.exponential(hits_scale)), 40)
    return (_MLP_TOP_HITS - misses) / _MLP_VAL_POINTS


def library_records(seed: int, index: int, optimizer: str, task: str, size: int) -> list[dict]:
    """Records of one synthesized library, in trial order."""
    direction, batches, cap = TASKS[task]
    share, median = SHAPE[(optimizer, task)]
    n_div = round(share * size)
    n_fin = size - n_div
    outcomes = [(False, e * batches, e) for e in _finished_epochs(median, cap, n_fin)]
    outcomes += [(True, (e + 1) * batches, e) for e in _diverged_epochs(task, n_div)]
    rng = np.random.default_rng([seed, index])
    order = rng.permutation(size)
    hits_scale = rng.uniform(2.0, 4.5)
    records = []
    for i in order:
        diverged, steps, epochs = outcomes[int(i)]
        records.append(
            {
                "optimizer": optimizer,
                "task": task,
                "seed": int(rng.integers(0, 2**32)),
                "config": _config(rng, optimizer),
                "objective": None if diverged else _objective(rng, task, hits_scale),
                "direction": direction,
                "update_steps": steps,
                "epochs_run": epochs,
                "diverged": diverged,
                "schema_version": 1,
            }
        )
    return records


def write_libraries(out: Path, seed: int, optimizers, tasks, size: int) -> list[Path]:
    """Write one <optimizer>__<task>.jsonl library per pair; return the paths."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for oi, optimizer in enumerate(optimizers):
        for ti, task in enumerate(tasks):
            records = library_records(seed, oi * len(tasks) + ti, optimizer, task, size)
            path = out / f"{optimizer}__{task}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            paths.append(path)
    return paths


def digest(paths) -> str:
    """sha256 over the named files, in the given order, names included."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        h.update(b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()
