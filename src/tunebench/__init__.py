"""Benchmarking toolkit for measuring how tunable an optimizer is.

Random search over hyperparameter priors produces trial libraries;
order-statistics estimators turn those libraries into expected-quality-at-budget
curves; aggregation metrics condense the curves into tunability scores.
"""

from tunebench.core import BudgetCurve, Direction, Trial, TrialLibrary

__all__ = ["BudgetCurve", "Direction", "Trial", "TrialLibrary"]

__version__ = "0.1.0"
