"""Exact and bootstrap estimators for the best objective found at a budget.

Random search with budget S draws S configurations independently from the
same distribution, so the best result after S trials is the extremum of S
i.i.d. draws.  Given a finite library of N completed trials, the empirical
CDF F makes that distribution exact and cheap: the best of S draws takes the
value y_i with probability ``F(y_i)**S - F(y_{i-1})**S`` (for maximization),
which yields closed forms for the mean, variance and quantiles at every
budget without simulating anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from tunebench.core import BudgetCurve, Direction, RepetitionStreams, TrialLibrary

# E[best^2] - E[best]^2 in floats can land a hair below zero for degenerate
# libraries; anything below this is a genuine bug, not roundoff.
_VARIANCE_SLACK = 1e-12


@dataclass(frozen=True)
class EmpiricalCdf:
    """Step CDF on a finite support.

    ``counts`` holds multiplicities when the CDF was built from samples and
    is None for derived distributions (e.g. the best-of-S distribution).
    """

    support: np.ndarray
    cdf: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        cdf = np.asarray(self.cdf, dtype=float)
        if support.ndim != 1 or support.size == 0:
            raise ValueError("support must be a nonempty 1-d array")
        if support.shape != cdf.shape:
            raise ValueError("support and cdf must have equal length")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(np.diff(cdf) < 0) or cdf[0] < 0:
            raise ValueError("cdf must be nondecreasing and nonnegative")
        if cdf[-1] != 1.0:
            raise ValueError("cdf must reach exactly 1 at the largest support point")
        support.setflags(write=False)
        cdf.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "cdf", cdf)

    @property
    def masses(self) -> np.ndarray:
        return np.diff(self.cdf, prepend=0.0)

    def mean(self) -> float:
        return float(self.support @ self.masses)

    def variance(self) -> float:
        m = self.masses
        first = float(self.support @ m)
        second = float((self.support * self.support) @ m)
        return _clamp_variance(second - first * first)

    def quantile(self, q: float) -> float:
        """Generalized inverse: smallest support value y with F(y) >= q."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile level must lie in (0, 1]")
        idx = int(np.searchsorted(self.cdf, q, side="left"))
        return float(self.support[idx])


def _clamp_variance(var: float) -> float:
    if var < 0.0:
        if var < -_VARIANCE_SLACK:
            raise RuntimeError(f"variance computation produced {var}; expected >= 0")
        return 0.0
    return var


def _checked_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must all be finite")
    return arr


def _checked_budget(budget: int) -> int:
    b = int(budget)
    if b < 1:
        raise ValueError("budget must be a positive integer")
    return b


def empirical_cdf(values) -> EmpiricalCdf:
    """Empirical CDF of a finite sample, duplicates merged into counts."""
    arr = _checked_values(values)
    support, counts = np.unique(arr, return_counts=True)
    cdf = np.cumsum(counts) / arr.size
    return EmpiricalCdf(support=support, cdf=cdf, counts=counts)


def _checked_budgets(budgets: Sequence[int]) -> list[int]:
    checked = [_checked_budget(b) for b in budgets]
    if not checked:
        raise ValueError("need at least one budget")
    return checked


def _best_distributions(
    values, budgets: Sequence[int], direction: Direction
) -> Iterator[EmpiricalCdf]:
    """Distribution of the best of S i.i.d. draws from ``values``, for each S.

    The values are sorted once; each budget then costs one elementwise power.
    """
    budgets = _checked_budgets(budgets)
    arr = _checked_values(values)
    minimize = direction is Direction.MINIMIZE
    # min(X) = -max(-X): work on the negated values under MINIMIZE
    support, counts = np.unique(-arr if minimize else arr, return_counts=True)
    base = np.cumsum(counts) / arr.size
    flipped = -support[::-1]
    for budget in budgets:
        # distribution of max(X_1..X_S): P(max <= y) = F(y)**S
        powered = base**budget
        if not minimize:
            yield EmpiricalCdf(support=support, cdf=powered)
            continue
        # flip the support back and complement the CDF so the top entry is
        # exactly 1 by construction.
        padded = np.concatenate(([0.0], powered))
        yield EmpiricalCdf(support=flipped, cdf=1.0 - padded[support.size - 1 :: -1])


def best_at_distribution(values, budget: int, direction: Direction) -> EmpiricalCdf:
    """Full distribution of the best of ``budget`` i.i.d. draws from ``values``."""
    return next(_best_distributions(values, [budget], direction))


def expected_best_at(values, budget: int, direction: Direction) -> float:
    """Exact expectation of the best of ``budget`` i.i.d. draws from ``values``."""
    return best_at_distribution(values, budget, direction).mean()


def variance_best_at(values, budget: int, direction: Direction) -> float:
    """Exact variance of the best of ``budget`` i.i.d. draws from ``values``."""
    return best_at_distribution(values, budget, direction).variance()


def exact_budget_curve(library: TrialLibrary, budgets: Sequence[int]) -> BudgetCurve:
    """Closed-form budget curve at the given budgets.

    Returns the mean, variance and quartiles of the best objective after t
    library draws, for every budget t.  Diverged trials enter as the
    library's worst sentinel so they drag the curve the way a failed run
    would.
    """
    dists = _best_distributions(library.analysis_objectives(), budgets, library.direction)
    stats = np.array([
        (d.mean(), d.variance(), d.quantile(0.25), d.quantile(0.50), d.quantile(0.75))
        for d in dists
    ])
    return BudgetCurve(
        budgets=budgets,
        mean=stats[:, 0],
        variance=stats[:, 1],
        quantiles={"q25": stats[:, 2], "q50": stats[:, 3], "q75": stats[:, 4]},
    )


def bootstrap_runs(
    library: TrialLibrary,
    budget: int,
    repetitions: int,
    rng_seed: int,
) -> np.ndarray:
    """Simulate random-search runs by resampling the library with replacement.

    Returns the (repetitions, budget) array whose row r is run r's running
    best: entry [r, t - 1] is its incumbent after t draws.

    Repetition r draws its indices from the stream keyed (rng_seed, r), so
    repetitions are independent of execution order and can be parallelized
    or compared across budgets: a longer budget extends the same draws.
    The R streams come from one ``RepetitionStreams``, as in the other
    Monte-Carlo routines.
    """
    budget = _checked_budget(budget)
    if repetitions < 1:
        raise ValueError("repetitions must be a positive integer")
    objectives = library.analysis_objectives()
    n = objectives.size
    streams = RepetitionStreams(rng_seed, repetitions)
    indices = np.empty((repetitions, budget), dtype=np.int64)
    for r in range(repetitions):
        indices[r] = streams[r].integers(0, n, size=budget)
    best_so_far = np.minimum if library.direction is Direction.MINIMIZE else np.maximum
    return best_so_far.accumulate(objectives[indices], axis=1)


def bootstrap_budget_curve(
    library: TrialLibrary,
    budgets: Sequence[int],
    repetitions: int,
    rng_seed: int,
) -> BudgetCurve:
    """Monte-Carlo budget curve from ``repetitions`` simulated searches.

    The searches are drawn once, at the largest budget, and read at every
    budget: draws are prefix-shared, so the incumbent after t draws is the
    one a separate run at budget t would end with.
    """
    budgets = np.array(_checked_budgets(budgets), dtype=np.int64)
    runs = bootstrap_runs(library, int(budgets.max()), repetitions, rng_seed)
    return BudgetCurve.from_samples(budgets, runs[:, budgets - 1])
