import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunebench.aggregate import (
    WeightScheme,
    alpha_tunability,
    omega_tunability,
    probability_of_best,
    relative_summary,
    sampling_replacement,
    sharpness,
    shifted_scores,
    weights_cpe,
    weights_cpl,
    weights_cpu,
    weights_one_hot,
)
from tunebench.core import Direction, Trial, TrialLibrary, substream

MIN, MAX = Direction.MINIMIZE, Direction.MAXIMIZE


def library_of(values, optimizer="o", task="t", direction=MIN):
    return TrialLibrary.from_trials(
        [
            Trial(
                optimizer_id=optimizer,
                task_id=task,
                seed=i,
                config={},
                objective=float(v),
                direction=direction,
                update_steps=1,
                epochs_run=1,
            )
            for i, v in enumerate(values)
        ]
    )


def test_cpe_weights_frozen_identity():
    scheme = weights_cpe(3)
    assert np.allclose(scheme.weights, [2 / 3, 1 / 3, 0.0], atol=1e-15)
    assert omega_tunability([3.0, 1.0, 1.0], scheme) == pytest.approx(7 / 3, abs=1e-12)


def test_cpe_final_weight_is_zero_and_needs_two_steps():
    assert weights_cpe(5).weights[-1] == 0.0
    with pytest.raises(ValueError):
        weights_cpe(1)


def test_one_hot_weights():
    scheme = weights_one_hot(4, 2)
    assert np.array_equal(scheme.weights, [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        weights_one_hot(4, 0)
    with pytest.raises(ValueError):
        weights_one_hot(4, 5)


def test_one_hot_final_recovers_last_entry_exactly():
    trace = np.minimum.accumulate([5.0, 4.0, 4.0, 0.25])
    value = omega_tunability(trace, weights_one_hot(4, 4))
    assert value == 0.25  # exact, not approx


def test_cpu_equals_arithmetic_mean():
    trace = np.array([4.0, 2.0, 1.0])
    assert omega_tunability(trace, weights_cpu(3)) == pytest.approx(np.mean(trace), abs=1e-12)


def test_cpl_leans_late():
    scheme = weights_cpl(3)
    assert np.allclose(scheme.weights, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


@given(st.integers(2, 40))
def test_weight_families_sum_to_one(horizon):
    for scheme in (
        weights_cpe(horizon),
        weights_cpl(horizon),
        weights_cpu(horizon),
        weights_one_hot(horizon, 1),
        weights_one_hot(horizon, horizon),
    ):
        assert abs(scheme.weights.sum() - 1.0) <= 1e-12
        assert np.all(scheme.weights >= 0)


def test_weight_scheme_validation():
    with pytest.raises(ValueError):
        WeightScheme(weights=np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        WeightScheme(weights=np.array([1.5, -0.5]))  # negative entry


def test_omega_length_mismatch():
    with pytest.raises(ValueError):
        omega_tunability([1.0, 2.0], weights_cpu(3))


def test_shifted_scores_minimize_frozen():
    scores, delta = shifted_scores([10.0, 5.0, 1.0], MIN)
    assert delta == pytest.approx(9e-9, abs=1e-18)
    assert np.allclose(scores, [9e-9, 5 + 9e-9, 9 + 9e-9], atol=1e-15)
    assert np.all(scores > 0)
    # an optimizer x budget matrix shares one worst value and one delta
    scores, delta = shifted_scores(np.array([[10.0, 5.0], [4.0, 1.0]]), MIN)
    assert delta == pytest.approx(9e-9, abs=1e-18)
    assert np.allclose(scores, [[9e-9, 5 + 9e-9], [6 + 9e-9, 9 + 9e-9]], atol=1e-15)
    # constant values: every entry scores 1 with no shift, so they tie
    scores, delta = shifted_scores(np.full((2, 3), 4.5), MIN)
    assert np.array_equal(scores, np.ones((2, 3)))
    assert delta == 0.0


def test_shifted_scores_maximize_passthrough():
    values = np.array([0.2, 0.5, 0.9])
    scores, delta = shifted_scores(values, MAX)
    assert np.array_equal(scores, values)
    assert delta == 0.0
    with pytest.raises(ValueError, match="shift the objective"):
        shifted_scores([0.0, 1.0], MAX)


def test_alpha_tunability_frozen():
    trace = [10.0, 5.0, 1.0]  # shifted scores ~ [0, 5, 9]
    assert alpha_tunability(trace, 0.9, MIN) == pytest.approx(1.0)
    assert alpha_tunability(trace, 0.5, MIN) == pytest.approx(2 / 3)
    # with a tiny alpha, the shift delta alone clears the target at t = 1
    assert alpha_tunability(trace, 1e-12, MIN) == pytest.approx(1 / 3)
    trace_up = [1.0, 9.0, 10.0]  # scores used as-is for maximize
    assert alpha_tunability(trace_up, 0.95, MAX) == pytest.approx(1.0)
    assert alpha_tunability(trace_up, 0.9, MAX) == pytest.approx(2 / 3)
    assert alpha_tunability(trace_up, 0.05, MAX) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        alpha_tunability(trace, 0.0, MIN)
    with pytest.raises(ValueError):
        alpha_tunability(trace, 1.5, MIN)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 100.0), min_size=2, max_size=12),
    st.floats(0.1, 0.45),
)
def test_alpha_tunability_nondecreasing_in_alpha(values, low_alpha):
    trace = np.minimum.accumulate(values)
    zeta_low = alpha_tunability(trace, low_alpha, MIN)
    zeta_high = alpha_tunability(trace, 2 * low_alpha, MIN)
    assert zeta_low <= zeta_high
    assert 0 < zeta_low <= 1.0


def test_sharpness_frozen():
    trace = [10.0, 5.0, 1.0]
    expected = alpha_tunability(trace, 0.99, MIN) - alpha_tunability(trace, 0.9, MIN)
    assert sharpness(trace, MIN) == pytest.approx(expected, abs=1e-15)
    assert sharpness(trace, MIN) >= 0
    with pytest.raises(ValueError):
        sharpness(trace, MIN, alpha_hi=0.5, alpha_lo=0.9)


def test_relative_summary_single_optimizer_is_one():
    perf = np.array([[3.0, 5.0, 1.0]])
    assert np.allclose(relative_summary(perf), [1.0], atol=1e-15)


def test_relative_summary_frozen():
    perf = np.array([[2.0, 4.0], [1.0, 4.0]])
    # per-task ratios: task1 -> (1, 0.5), task2 -> (1, 1); row means
    assert np.allclose(relative_summary(perf), [1.0, 0.75], atol=1e-15)


def test_relative_summary_rejects_nonpositive():
    with pytest.raises(ValueError):
        relative_summary(np.array([[1.0, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.floats(0.1, 100.0),
)
def test_relative_summary_scale_invariant_per_task(n_opt, n_task, scale):
    rng = np.random.default_rng(n_opt * 17 + n_task)
    perf = rng.uniform(0.5, 2.0, size=(n_opt, n_task))
    scaled = perf.copy()
    scaled[:, 0] *= scale  # rescaling one task changes nothing
    assert np.allclose(relative_summary(perf), relative_summary(scaled), atol=1e-12)


def test_probability_of_best_conserves_mass_and_orders():
    good = library_of(np.linspace(0.0, 1.0, 30), optimizer="good")
    bad = library_of(np.linspace(5.0, 6.0, 30), optimizer="bad")
    mid = library_of(np.linspace(0.5, 5.5, 30), optimizer="mid")
    probs = probability_of_best([good, mid, bad], [4], repetitions=500, rng_seed=0)[0]
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert probs[0] == 1.0  # every draw from `good` beats everything else
    assert probs[2] == 0.0


def test_probability_identical_libraries_tie_exactly():
    values = np.linspace(0.0, 1.0, 25)
    libs = [library_of(values, optimizer=name) for name in ("a", "b", "c")]
    probs = probability_of_best(libs, [5], repetitions=200, rng_seed=9)[0]
    assert probs[0] == probs[1] == probs[2]
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_probability_with_replacement_when_budget_exceeds_library():
    small = library_of([1.0, 2.0], optimizer="small")
    large = library_of(np.linspace(1.5, 3.0, 40), optimizer="large")
    probs = probability_of_best([small, large], [10], repetitions=300, rng_seed=1)[0]
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert probs[0] > 0.9  # min of `small` beats min of `large`
    assert sampling_replacement(10, 2)
    assert not sampling_replacement(10, 40)


def test_probability_of_best_validation():
    lib = library_of([1.0, 2.0])
    with pytest.raises(ValueError):
        probability_of_best([lib], [1], repetitions=10, rng_seed=0)
    other_task = library_of([1.0], optimizer="x", task="elsewhere")
    with pytest.raises(ValueError):
        probability_of_best([lib, other_task], [1], repetitions=10, rng_seed=0)
    two = library_of([1.0, 3.0], optimizer="p")
    with pytest.raises(ValueError):
        probability_of_best([lib, two], [0], repetitions=10, rng_seed=0)


def test_probability_deterministic_per_seed():
    # a coin-flip matchup: `a` wins exactly when it draws the 0.0 trial
    a = library_of([0.0, 1.0], optimizer="a")
    b = library_of([0.5, 0.6], optimizer="b")
    p1 = probability_of_best([a, b], [1], repetitions=100, rng_seed=4)[0]
    p2 = probability_of_best([a, b], [1], repetitions=100, rng_seed=4)[0]
    p3 = probability_of_best([a, b], [1], repetitions=100, rng_seed=5)[0]
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)
    assert 0.3 < p1[0] < 0.7


def reference_probability_of_best(libraries, budget, repetitions, rng_seed):
    """One fresh stream per (repetition, optimizer), one library at a time."""
    minimize = libraries[0].direction is MIN
    wins = np.zeros(len(libraries))
    best = np.empty(len(libraries))
    for r in range(repetitions):
        for j, lib in enumerate(libraries):
            arr = lib.analysis_objectives()
            n = arr.size
            gen = substream(rng_seed, r)
            if budget <= n:
                idx = gen.choice(n, size=budget, replace=False)
            else:
                idx = gen.integers(0, n, size=budget)
            best[j] = arr[idx].min() if minimize else arr[idx].max()
        top = best.min() if minimize else best.max()
        tied = np.nonzero(best == top)[0]
        wins[tied] += 1.0 / tied.size
    return wins / repetitions


@pytest.mark.parametrize("direction", [MIN, MAX])
@pytest.mark.parametrize("budget", [1, 5, 9])
def test_probability_of_best_matches_per_optimizer_reference(direction, budget):
    # sizes 4, 7 and 12: at budget 5 the 4-trial libraries are drawn with
    # replacement and the others without; quartered integers give ties
    rng = np.random.default_rng(31)
    shared = rng.integers(0, 12, size=7) / 4.0
    libraries = [
        library_of(rng.integers(0, 12, size=4) / 4.0, optimizer="a", direction=direction),
        library_of(shared, optimizer="b", direction=direction),
        library_of(rng.integers(0, 12, size=12) / 4.0, optimizer="c", direction=direction),
        library_of(shared, optimizer="twin", direction=direction),
        library_of(rng.integers(0, 12, size=4) / 4.0, optimizer="d", direction=direction),
        library_of(rng.integers(0, 12, size=7) / 4.0, optimizer="e", direction=direction),
    ]
    # one call for all three budgets; this case checks its own row
    probs = probability_of_best(libraries, [1, 5, 9], repetitions=150, rng_seed=6)
    probs = probs[[1, 5, 9].index(budget)]
    reference = reference_probability_of_best(libraries, budget, 150, 6)
    assert probs.tobytes() == reference.tobytes()
    assert probs[1] == probs[3]  # identical libraries tie exactly
