import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunebench.core import Direction, Trial, TrialLibrary
from tunebench.estimator import (
    EmpiricalCdf,
    best_at_distribution,
    bootstrap_budget_curve,
    bootstrap_runs,
    empirical_cdf,
    exact_budget_curve,
    expected_best_at,
    variance_best_at,
)

MIN, MAX = Direction.MINIMIZE, Direction.MAXIMIZE


def brute_force_best(values, budget, direction):
    """Independent oracle: enumerate all |values|**budget ordered draws."""
    pick = min if direction is MIN else max
    bests = [pick(tup) for tup in itertools.product(values, repeat=budget)]
    mean = sum(bests) / len(bests)
    var = sum((b - mean) ** 2 for b in bests) / len(bests)
    return mean, var


def library_of(values, direction=MIN):
    trials = [
        Trial(
            optimizer_id="o",
            task_id="t",
            seed=i,
            config={},
            objective=float(v),
            direction=direction,
            update_steps=1,
            epochs_run=1,
        )
        for i, v in enumerate(values)
    ]
    return TrialLibrary.from_trials(trials)


# frozen closed-form values, worked by hand from the order-statistic CDF
def test_expected_best_frozen_values():
    assert expected_best_at([1.0, 2.0, 3.0], 2, MAX) == pytest.approx(22 / 9, abs=1e-15)
    assert expected_best_at([1.0, 2.0, 3.0], 2, MIN) == pytest.approx(14 / 9, abs=1e-15)
    # P(max of 2 = 1) = 1/4: var = E[X^2] - E[X]^2 = 3/4 - 9/16
    assert variance_best_at([0.0, 1.0], 2, MAX) == pytest.approx(3 / 16, abs=1e-15)
    assert variance_best_at([0.0, 1.0], 2, MIN) == pytest.approx(3 / 16, abs=1e-15)


def test_best_at_distribution_frozen_cdfs():
    dist_max = best_at_distribution([1.0, 2.0, 3.0], 2, MAX)
    assert np.allclose(dist_max.cdf, [1 / 9, 4 / 9, 1.0], atol=1e-15)
    assert dist_max.cdf[-1] == 1.0
    dist_min = best_at_distribution([1.0, 2.0, 3.0], 2, MIN)
    assert np.array_equal(dist_min.support, [1.0, 2.0, 3.0])
    assert np.allclose(dist_min.cdf, [5 / 9, 8 / 9, 1.0], atol=1e-15)
    assert dist_min.cdf[-1] == 1.0


def test_distribution_mean_matches_expected_best():
    values = [0.3, 0.1, 4.0, 0.1, 2.5]
    for budget in (1, 2, 7):
        # maximize shares the exact code path: bitwise equality
        dist = best_at_distribution(values, budget, MAX)
        assert dist.mean() == expected_best_at(values, budget, MAX)
        assert dist.variance() == variance_best_at(values, budget, MAX)
        # minimize goes through the complemented CDF: equal to roundoff
        dist = best_at_distribution(values, budget, MIN)
        assert dist.mean() == pytest.approx(
            expected_best_at(values, budget, MIN), rel=1e-14, abs=1e-14
        )
        assert dist.variance() == pytest.approx(
            variance_best_at(values, budget, MIN), rel=1e-13, abs=1e-14
        )


def test_minimize_is_exact_mirror_of_maximize():
    values = np.array([0.25, 1.5, 1.5, -3.0])
    for budget in (1, 3, 10):
        lhs = expected_best_at(values, budget, MIN)
        rhs = -expected_best_at(-values, budget, MAX)
        assert lhs == rhs  # bitwise, not approx


def test_matches_brute_force_small_sweep():
    for values in ([0.0, 1.0], [1.0, 1.0, 2.0], [0.0, 2.0, 2.0, 3.0], [1.0]):
        for budget in (1, 2, 3, 4):
            for direction in (MIN, MAX):
                bf_mean, bf_var = brute_force_best(values, budget, direction)
                assert expected_best_at(values, budget, direction) == pytest.approx(
                    bf_mean, abs=1e-12
                )
                assert variance_best_at(values, budget, direction) == pytest.approx(
                    bf_var, abs=1e-12
                )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=5),
    st.integers(1, 4),
    st.sampled_from([MIN, MAX]),
)
def test_matches_brute_force_property(values, budget, direction):
    values = [float(v) for v in values]
    bf_mean, bf_var = brute_force_best(values, budget, direction)
    assert expected_best_at(values, budget, direction) == pytest.approx(bf_mean, abs=1e-12)
    assert variance_best_at(values, budget, direction) == pytest.approx(bf_var, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
    st.integers(1, 200),
    st.sampled_from([MIN, MAX]),
)
def test_variance_nonnegative_and_mean_in_hull(values, budget, direction):
    assert variance_best_at(values, budget, direction) >= 0.0
    mean = expected_best_at(values, budget, direction)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


def test_large_budget_approaches_the_best_value():
    values = np.concatenate([[0.1], 0.5 + np.arange(99) / 1000])
    assert expected_best_at(values, 4000, MIN) == pytest.approx(0.1, abs=1e-12)
    assert expected_best_at(values, 4000, MAX) == pytest.approx(values.max(), abs=1e-12)


def test_budget_one_is_the_plain_mean():
    values = [0.3, 0.7, 0.7, 2.0]
    assert expected_best_at(values, 1, MIN) == pytest.approx(np.mean(values), abs=1e-15)
    assert variance_best_at(values, 1, MAX) == pytest.approx(np.var(values), abs=1e-15)


def test_empirical_cdf_merges_duplicates():
    dist = empirical_cdf([1.0, 1.0, 2.0])
    assert np.array_equal(dist.support, [1.0, 2.0])
    assert np.allclose(dist.cdf, [2 / 3, 1.0], atol=1e-15)
    assert np.array_equal(dist.counts, [2, 1])
    assert np.allclose(dist.masses, [2 / 3, 1 / 3], atol=1e-15)


def test_quantile_is_generalized_inverse():
    dist = best_at_distribution([1.0, 2.0, 3.0], 2, MIN)  # cdf 5/9, 8/9, 1
    assert dist.quantile(0.5) == 1.0
    assert dist.quantile(5 / 9) == 1.0  # left side: first support with F >= q
    assert dist.quantile(0.6) == 2.0
    assert dist.quantile(1.0) == 3.0
    with pytest.raises(ValueError):
        dist.quantile(0.0)
    with pytest.raises(ValueError):
        dist.quantile(1.1)


def test_empirical_cdf_validation():
    with pytest.raises(ValueError):
        EmpiricalCdf(support=np.array([2.0, 1.0]), cdf=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        EmpiricalCdf(support=np.array([1.0, 2.0]), cdf=np.array([0.9, 0.5]))
    with pytest.raises(ValueError):
        EmpiricalCdf(support=np.array([1.0, 2.0]), cdf=np.array([0.5, 0.9]))
    with pytest.raises(ValueError):
        EmpiricalCdf(support=np.array([1.0]), cdf=np.array([-0.1]))
    # powered CDFs may underflow to exactly zero at the bottom of the support
    ok = EmpiricalCdf(support=np.array([1.0, 2.0]), cdf=np.array([0.0, 1.0]))
    assert ok.masses[0] == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        expected_best_at([], 1, MIN)
    with pytest.raises(ValueError):
        expected_best_at([1.0, float("nan")], 1, MIN)
    with pytest.raises(ValueError):
        expected_best_at([1.0], 0, MIN)
    with pytest.raises(ValueError):
        empirical_cdf([[1.0, 2.0]])


def test_exact_budget_curve_shapes_and_monotonicity():
    lib = library_of([3.0, 0.5, 2.0, 0.9, 4.0])
    curve = exact_budget_curve(lib, range(1, 9))
    assert np.array_equal(curve.budgets, np.arange(1, 9))
    assert np.all(np.diff(curve.mean) <= 1e-15)  # minimize: nonincreasing
    assert np.all(curve.variance >= 0)
    assert curve.quantiles["q25"].shape == (8,)
    # quartiles are ordered
    assert np.all(curve.quantiles["q25"] <= curve.quantiles["q50"])
    assert np.all(curve.quantiles["q50"] <= curve.quantiles["q75"])
    assert curve.mean[0] == pytest.approx(np.mean([3.0, 0.5, 2.0, 0.9, 4.0]), abs=1e-14)


def test_exact_budget_curve_imputes_diverged_trials():
    fine = library_of([1.0, 2.0])
    trials = list(fine.trials) + [
        Trial(
            optimizer_id="o",
            task_id="t",
            seed=9,
            config={},
            objective=None,
            direction=MIN,
            update_steps=0,
            epochs_run=0,
            diverged=True,
        )
    ]
    lib = TrialLibrary.from_trials(trials)
    curve = exact_budget_curve(lib, [1])
    sentinel = lib.worst_sentinel()
    assert curve.mean[0] == pytest.approx((1.0 + 2.0 + sentinel) / 3, abs=1e-12)


def test_bootstrap_is_deterministic_per_seed():
    lib = library_of([0.4, 0.1, 2.0, 0.8])
    a = bootstrap_runs(lib, budget=6, repetitions=20, rng_seed=5)
    b = bootstrap_runs(lib, budget=6, repetitions=20, rng_seed=5)
    c = bootstrap_runs(lib, budget=6, repetitions=20, rng_seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bootstrap_budget_extension_shares_prefixes():
    # the pinned stream property: a longer budget extends the same draws,
    # so traces at budget 4 are exact prefixes of traces at budget 9
    lib = library_of([0.4, 0.1, 2.0, 0.8, 1.5])
    short = bootstrap_runs(lib, budget=4, repetitions=30, rng_seed=11)
    long = bootstrap_runs(lib, budget=9, repetitions=30, rng_seed=11)
    assert np.array_equal(short, long[:, :4])


@pytest.mark.parametrize("direction", [MIN, MAX])
def test_budget_curves_match_per_budget_reference(direction):
    # reference: one distribution, or one bootstrap run, per budget
    lib = library_of([0.4, 0.1, 2.0, 0.8, 0.1, 1.5], direction=direction)
    budgets = [5, 1, 3, 9]
    exact = exact_budget_curve(lib, budgets)
    boot = bootstrap_budget_curve(lib, budgets, repetitions=25, rng_seed=4)
    assert np.array_equal(exact.budgets, budgets) and np.array_equal(boot.budgets, budgets)
    for k, budget in enumerate(budgets):
        dist = best_at_distribution(lib.analysis_objectives(), budget, direction)
        assert exact.mean[k] == dist.mean()
        assert exact.variance[k] == dist.variance()
        assert exact.quantiles["q50"][k] == dist.quantile(0.5)
        finals = bootstrap_runs(lib, budget, 25, 4)[:, -1]
        assert boot.mean[k] == finals.mean()
        assert boot.variance[k] == finals.var()
        assert boot.quantiles["q25"][k] == np.quantile(finals, 0.25)
        assert boot.quantiles["q75"][k] == np.quantile(finals, 0.75)
    with pytest.raises(ValueError, match="at least one budget"):
        exact_budget_curve(lib, [])
    with pytest.raises(ValueError, match="at least one budget"):
        bootstrap_budget_curve(lib, [], repetitions=25, rng_seed=4)


def test_bootstrap_traces_are_monotone_and_converge_to_exact():
    rng = np.random.default_rng(42)
    values = rng.uniform(0.0, 1.0, size=50)
    lib = library_of(values)
    repetitions = 2000
    runs = bootstrap_runs(lib, budget=8, repetitions=repetitions, rng_seed=3)
    finals = runs[:, -1]
    assert np.all(np.diff(runs[:10], axis=1) <= 0)
    exact = expected_best_at(values, 8, MIN)
    se = np.sqrt(variance_best_at(values, 8, MIN) / repetitions)
    assert abs(finals.mean() - exact) <= 4 * se


def test_bootstrap_validation():
    lib = library_of([1.0])
    with pytest.raises(ValueError):
        bootstrap_runs(lib, budget=0, repetitions=5, rng_seed=0)
    with pytest.raises(ValueError):
        bootstrap_runs(lib, budget=2, repetitions=0, rng_seed=0)
