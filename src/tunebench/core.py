"""Shared vocabulary: directions, trials, trial libraries, budget curves, substreams."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

HyperparameterConfig = Mapping[str, float]


def substream(*key: int) -> np.random.Generator:
    """Independent random stream derived from a tuple of integers.

    The key is hash-expanded (splitmix-style, via numpy's SeedSequence) into
    generator state, so distinct keys give statistically independent streams
    and the same key always reproduces the same stream.  Work that is keyed
    by (seed, repetition index) can therefore run in any order or in parallel
    without changing results.
    """
    return np.random.default_rng(np.random.SeedSequence(key))


class RepetitionStreams:
    """The streams ``substream(seed, r)`` for ``r < repetitions``, each built once.

    A Monte-Carlo routine draws repetition r of every optimizer, library or
    budget from the stream keyed (seed, r).  Building a generator costs about
    16 us, rewinding one to a kept starting state about 2 us (numpy 2.4,
    2-CPU x86-64), so this builds each keyed generator once, keeps its
    starting state, and answers ``streams[r]`` by rewinding one shared
    generator to state r.  The draws are those of a fresh
    ``substream(seed, r)``.  The next lookup rewinds the returned generator
    again: finish drawing from it first.
    """

    def __init__(self, seed: int, repetitions: int) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be a positive integer")
        self._starts = []
        for r in range(repetitions):
            self._gen = substream(seed, r)
            self._state = self._gen.bit_generator.state
            inner = self._state["state"]
            self._starts.append((inner["state"], inner["inc"]))

    def __getitem__(self, r: int) -> np.random.Generator:
        # a fresh generator differs from another only in these two words
        inner = self._state["state"]
        inner["state"], inner["inc"] = self._starts[r]
        self._gen.bit_generator.state = self._state
        return self._gen


class Direction(enum.Enum):
    """Whether smaller or larger objective values are better."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass(frozen=True)
class Trial:
    """One hyperparameter draw trained to completion on one task.

    ``objective`` is None exactly when the run diverged; analysis code
    substitutes a worst-sentinel value via ``TrialLibrary.analysis_objectives``
    so arithmetic never sees NaN.
    """

    optimizer_id: str
    task_id: str
    seed: int
    config: HyperparameterConfig
    objective: float | None
    direction: Direction
    update_steps: int
    epochs_run: int
    diverged: bool = False

    def __post_init__(self) -> None:
        if self.diverged:
            if self.objective is not None and not math.isfinite(self.objective):
                raise ValueError("diverged trial objective must be None or finite")
        else:
            if self.objective is None or not math.isfinite(self.objective):
                raise ValueError("non-diverged trial requires a finite objective")
            if self.update_steps < 1:
                raise ValueError("non-diverged trial must record update_steps >= 1")
        if self.update_steps < 0 or self.epochs_run < 0:
            raise ValueError("update_steps and epochs_run must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class TrialLibrary:
    """All trials for one (optimizer, task) pair, in generation order."""

    optimizer_id: str
    task_id: str
    direction: Direction
    trials: tuple[Trial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", tuple(self.trials))
        if not self.trials:
            raise ValueError("library must contain at least one trial")
        for t in self.trials:
            if t.optimizer_id != self.optimizer_id or t.task_id != self.task_id:
                raise ValueError("trial optimizer/task ids do not match library")
            if t.direction is not self.direction:
                raise ValueError("trial direction does not match library")

    @classmethod
    def from_trials(cls, trials: Sequence[Trial]) -> "TrialLibrary":
        first = trials[0]
        return cls(
            optimizer_id=first.optimizer_id,
            task_id=first.task_id,
            direction=first.direction,
            trials=tuple(trials),
        )

    def __len__(self) -> int:
        return len(self.trials)

    def worst_sentinel(self) -> float:
        """Value one ulp beyond the worst finite objective in the library.

        Used both for diverged trials and for budget intervals before any
        trial has finished: strictly worse than everything observed, finite.
        """
        return self._sentinel

    @cached_property
    def _sentinel(self) -> float:
        # the trials are frozen, so the scan is done once per library
        finished = [t.objective for t in self.trials if not t.diverged]
        if not finished:
            raise ValueError("library has no finished trials")
        if self.direction is Direction.MINIMIZE:
            return float(np.nextafter(max(finished), np.inf))
        return float(np.nextafter(min(finished), -np.inf))

    def analysis_objectives(self) -> np.ndarray:
        """Objectives with diverged trials mapped to the worst sentinel.

        The flag decides, not the stored value: a diverged trial that still
        carries a (finite) last-seen objective is imputed all the same.
        """
        sentinel = None
        out = np.empty(len(self.trials), dtype=float)
        for i, t in enumerate(self.trials):
            if t.diverged:
                if sentinel is None:
                    sentinel = self.worst_sentinel()
                out[i] = sentinel
            else:
                out[i] = t.objective
        return out

    def update_steps(self) -> np.ndarray:
        return np.array([t.update_steps for t in self.trials], dtype=np.int64)


@dataclass(frozen=True)
class BudgetCurve:
    """Statistics of the best objective found, indexed by search budget."""

    budgets: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    quantiles: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        b = np.asarray(self.budgets, dtype=np.int64)
        m = np.asarray(self.mean, dtype=float)
        v = np.asarray(self.variance, dtype=float)
        if not (b.shape == m.shape == v.shape):
            raise ValueError("budgets, mean and variance must have equal shape")
        if np.any(v < 0):
            raise ValueError("variance must be nonnegative")
        for key, q in self.quantiles.items():
            if np.asarray(q).shape != b.shape:
                raise ValueError(f"quantile track {key!r} has mismatched shape")
        object.__setattr__(self, "budgets", b)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "variance", v)

    @classmethod
    def from_samples(cls, budgets, samples: np.ndarray) -> "BudgetCurve":
        """Sample mean, variance and quartiles of ``samples[:, k]`` at ``budgets[k]``."""
        # Each budget's sample becomes one contiguous row.  An axis=1
        # reduction sums every row pairwise in the same order as the 1-D
        # column it came from, so the statistics equal the per-column ones
        # bit for bit; an axis=0 reduction over ``samples`` would add the
        # rows one after another instead.  np.quantile gets one level per
        # call: with several levels it may return -0.0 where the column's
        # own quantile is 0.0 (and the reverse).
        rows = np.ascontiguousarray(samples.T)
        return cls(
            budgets=budgets,
            mean=rows.mean(axis=1),
            variance=rows.var(axis=1),
            quantiles={
                name: np.quantile(rows, q, axis=1)
                for name, q in (("q25", 0.25), ("q50", 0.50), ("q75", 0.75))
            },
        )
