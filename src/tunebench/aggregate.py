"""Condense budget curves into scalar tunability and comparison metrics.

The expected incumbent trace of an optimizer tells the whole story of a
search; the functions here weight, threshold or cross-compare those traces
so optimizers can be ranked by how much tuning they need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tunebench.core import Direction, RepetitionStreams, TrialLibrary

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class WeightScheme:
    """Nonnegative per-budget weights summing to one."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.weights.shape[0])


def weights_one_hot(horizon: int, k: int) -> WeightScheme:
    """All weight on budget k: the incumbent quality after exactly k trials."""
    if horizon < 1:
        raise ValueError("horizon must be a positive integer")
    if not 1 <= k <= horizon:
        raise ValueError("k must lie in 1..horizon")
    w = np.zeros(horizon)
    w[k - 1] = 1.0
    return WeightScheme(w)


def weights_cpe(horizon: int) -> WeightScheme:
    """Early-budget emphasis: weight at budget i proportional to horizon - i.

    The final budget gets weight zero, so this rewards optimizers that are
    already good after little tuning.  Needs a horizon of at least 2.
    """
    if horizon < 2:
        raise ValueError("early-emphasis weights need a horizon of at least 2")
    i = np.arange(1, horizon + 1)
    w = (horizon - i) / (horizon * (horizon - 1) / 2)
    return WeightScheme(w)


def weights_cpl(horizon: int) -> WeightScheme:
    """Late-budget emphasis: weight at budget i proportional to i."""
    if horizon < 1:
        raise ValueError("horizon must be a positive integer")
    i = np.arange(1, horizon + 1)
    w = i / (horizon * (horizon + 1) / 2)
    return WeightScheme(w)


def weights_cpu(horizon: int) -> WeightScheme:
    """Uniform emphasis: every budget weighted 1/horizon."""
    if horizon < 1:
        raise ValueError("horizon must be a positive integer")
    return WeightScheme(np.full(horizon, 1.0 / horizon))


def _trace_values(trace) -> np.ndarray:
    arr = np.asarray(trace, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("trace must be a nonempty 1-d sequence")
    return arr


def omega_tunability(trace, scheme: WeightScheme) -> float:
    """Weighted average of an incumbent trace under a budget weighting."""
    values = _trace_values(trace)
    if values.shape[0] != len(scheme):
        raise ValueError("trace and weight scheme must have equal length")
    return float(values @ scheme.weights)


def shifted_scores(trace, direction: Direction) -> tuple[np.ndarray, float]:
    """Map a trace, or a task's optimizer x budget matrix, onto a positive
    higher-is-better scale.

    Maximization values are used as-is and must already be positive.  For
    minimization the scores are (worst observed - value) + delta with
    delta = 1e-9 * observed range, so the best entry scores highest and the
    worst still scores above zero; when every value is equal they all score
    1 with delta 0, so identical curves tie.  Returns (scores, shift delta);
    callers that report threshold metrics should record the delta alongside
    them.
    """
    values = np.asarray(trace, dtype=float)
    if values.ndim not in (1, 2) or values.size == 0:
        raise ValueError("scores need a nonempty trace or optimizer x budget matrix")
    if direction is Direction.MAXIMIZE:
        if np.any(values <= 0):
            raise ValueError(
                "scores must be positive; shift the objective before aggregating"
            )
        return values, 0.0
    worst = float(values.max())
    span = worst - float(values.min())
    if span == 0.0:
        return np.ones_like(values), 0.0
    delta = 1e-9 * span
    return (worst - values) + delta, delta


def alpha_tunability(trace, alpha: float, direction: Direction) -> float:
    """Fraction of the budget horizon needed to reach alpha times final quality.

    Quality is measured on the shifted positive scale, so the result lies in
    (0, 1] and smaller values mean the optimizer tunes up faster.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    scores, _ = shifted_scores(_trace_values(trace), direction)
    horizon = scores.shape[0]
    target = alpha * scores[-1]
    hits = np.nonzero(scores >= target)[0]
    if hits.size == 0:
        raise RuntimeError("no budget reaches the target; trace is not an incumbent trace")
    return (int(hits[0]) + 1) / horizon


def sharpness(
    trace,
    direction: Direction,
    alpha_hi: float = 0.99,
    alpha_lo: float = 0.9,
) -> float:
    """Budget-fraction gap between nearly-final and roughly-final quality.

    Large values mean the last stretch of tuning is slow: many extra trials
    buy only the final percent of quality.
    """
    if alpha_hi <= alpha_lo:
        raise ValueError("alpha_hi must exceed alpha_lo")
    return alpha_tunability(trace, alpha_hi, direction) - alpha_tunability(
        trace, alpha_lo, direction
    )


def relative_summary(perf: np.ndarray) -> np.ndarray:
    """Cross-task score: mean over tasks of performance relative to the best.

    ``perf[o, p]`` is the (positive, higher-is-better) expected performance
    of optimizer o on task p at some fixed budget.  Each column is divided
    by its best optimizer, so the result is 1 only for an optimizer that
    wins every task.
    """
    matrix = np.asarray(perf, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("perf must be a nonempty optimizer x task matrix")
    if np.any(matrix <= 0):
        raise ValueError(
            "scores must be positive; shift the objective before aggregating"
        )
    ratios = matrix / matrix.max(axis=0, keepdims=True)
    return ratios.mean(axis=1)


def probability_of_best(
    libraries: Sequence[TrialLibrary],
    budgets: Sequence[int],
    repetitions: int,
    rng_seed: int,
) -> np.ndarray:
    """Monte-Carlo probability that each optimizer wins a K-trial shootout.

    Returns one row per budget K and one column per library.  Every
    repetition gives each optimizer K draws from its own library (without
    replacement when the library is large enough, with replacement
    otherwise) and the best draw wins; exact ties split the win equally.
    Repetition r draws from the stream keyed (rng_seed, r) for every
    optimizer and budget, so libraries of equal size share their draw
    indices: they are drawn once per size and applied to all those
    libraries at once, and identical libraries tie on every repetition.
    The R streams are built once per call, whatever the number of budgets.
    """
    if len(libraries) < 2:
        raise ValueError("need at least two optimizers to compare")
    task_id = libraries[0].task_id
    direction = libraries[0].direction
    for lib in libraries:
        if lib.task_id != task_id or lib.direction is not direction:
            raise ValueError("libraries must share one task and direction")
    if not len(budgets) or min(budgets) < 1 or repetitions < 1:
        raise ValueError("budgets and repetitions must be positive integers")

    objectives = [lib.analysis_objectives() for lib in libraries]
    by_size: dict[int, list[int]] = {}
    for j, arr in enumerate(objectives):
        by_size.setdefault(arr.size, []).append(j)
    # (size, optimizer positions, their objectives stacked as rows)
    groups = [
        (n, np.array(members), np.vstack([objectives[j] for j in members]))
        for n, members in by_size.items()
    ]
    minimize = direction is Direction.MINIMIZE
    streams = RepetitionStreams(rng_seed, repetitions)
    wins = np.zeros((len(budgets), len(libraries)))
    best = np.empty(len(libraries))
    for r in range(repetitions):
        for k, budget in enumerate(budgets):
            for n, members, stack in groups:
                gen = streams[r]
                if budget <= n:
                    idx = gen.choice(n, size=budget, replace=False)
                else:
                    idx = gen.integers(0, n, size=budget)
                drawn = stack[:, idx]
                # a row's min may carry the other zero sign than a 1-D min would;
                # the tie test compares with ==, so the wins do not depend on it
                best[members] = drawn.min(axis=1) if minimize else drawn.max(axis=1)
            top = best.min() if minimize else best.max()
            tied = np.nonzero(best == top)[0]
            wins[k, tied] += 1.0 / tied.size
    return wins / repetitions


def sampling_replacement(budget: int, library_size: int) -> bool:
    """True when a K-trial draw must fall back to sampling with replacement."""
    return budget > library_size
