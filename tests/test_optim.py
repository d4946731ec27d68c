import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunebench.optim import (
    adagrad_step,
    adam_step,
    early_stop,
    optimizer_ids,
    optimizer_spec,
    poly_decay,
    sgd_step,
)


def row(*values):
    """A population of one trial, as the steppers take it."""
    return np.array([values], dtype=float)


def test_sgd_plain_step_frozen():
    w, v = row(1.0), row(0.0)
    sgd_step(w, row(2.0), v, lr=0.1)
    assert w[0, 0] == pytest.approx(0.8, abs=1e-15)
    assert v[0, 0] == 2.0


def test_sgd_weight_decay_applies_before_the_update():
    # zero gradient isolates the decay: w <- (1 - wd) * w
    w = row(1.0)
    sgd_step(w, row(0.0), row(0.0), lr=0.1, weight_decay=0.5)
    assert w[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_sgd_momentum_two_steps_frozen():
    w, v = row(0.0), row(0.0)
    sgd_step(w, row(1.0), v, lr=1.0, momentum=0.5)
    assert w[0, 0] == pytest.approx(-1.0, abs=1e-15)  # v = 1
    sgd_step(w, row(1.0), v, lr=1.0, momentum=0.5)
    assert w[0, 0] == pytest.approx(-2.5, abs=1e-15)  # v = 1.5
    assert v[0, 0] == pytest.approx(1.5, abs=1e-15)


def test_adam_first_step_is_sign_scaled():
    # bias corrections cancel at t=1: step = lr * g / (|g| + eps)
    w = row(0.0)
    adam_step(w, row(3.0), row(0.0), row(0.0), 1, lr=0.1)
    expected = -0.1 * 3.0 / (3.0 + 1e-8)
    assert w[0, 0] == pytest.approx(expected, rel=1e-12)


def test_adam_zero_betas_reduces_to_normalized_gradient():
    w = row(1.0)
    adam_step(w, row(-2.0), row(0.0), row(0.0), 1, lr=0.5, beta1=0.0, beta2=0.0)
    assert w[0, 0] == pytest.approx(1.0 + 0.5, rel=1e-8)  # minus lr * sign(g)


def test_adam_moments_update():
    m, u = row(0.0), row(0.0)
    adam_step(row(0.0), row(2.0), m, u, 1, lr=0.1, beta1=0.9, beta2=0.99)
    assert m[0, 0] == pytest.approx(0.2, abs=1e-15)
    assert u[0, 0] == pytest.approx(0.04, abs=1e-15)


def test_adagrad_two_steps_frozen():
    w, accum = row(0.0), row(0.0)
    adagrad_step(w, row(1.0), accum, lr=1.0, eps=0.0)
    assert w[0, 0] == pytest.approx(-1.0, abs=1e-15)
    adagrad_step(w, row(1.0), accum, lr=1.0, eps=0.0)
    assert w[0, 0] == pytest.approx(-1.0 - 1.0 / np.sqrt(2.0), abs=1e-15)
    assert accum[0, 0] == 2.0


def test_steppers_do_not_mutate_inputs():
    # the steppers write to the parameters and their own buffers only
    grads = row(0.5, 0.5)
    columns = np.array([[0.1], [0.2]])
    for stepper in (
        lambda w: sgd_step(w, grads, row(0.0, 0.0), lr=columns[:1], momentum=0.9),
        lambda w: adam_step(w, grads, row(0.0, 0.0), row(0.0, 0.0), 1, lr=columns[:1]),
        lambda w: adagrad_step(w, grads, row(0.0, 0.0), lr=columns[:1]),
    ):
        w = row(1.0, 2.0)
        stepper(w)
        assert not np.array_equal(w, [[1.0, 2.0]])
        assert np.array_equal(grads, [[0.5, 0.5]])
        assert np.array_equal(columns, [[0.1], [0.2]])


def test_steppers_are_bitwise_deterministic():
    # and each row of a population steps as it would alone
    params = np.array([[0.3, -0.7], [1.5, 0.25]])
    grads = np.array([[0.11, 0.22], [-0.4, 0.05]])
    lr = np.array([[0.01], [0.3]])
    pair = params.copy()
    adam_step(pair, grads, np.zeros((2, 2)), np.zeros((2, 2)), 3, lr)
    for k in range(2):
        alone = params[k : k + 1].copy()
        adam_step(alone, grads[k : k + 1], np.zeros((1, 2)), np.zeros((1, 2)), 3, lr[k : k + 1])
        assert alone.tobytes() == pair[k : k + 1].tobytes()


def test_poly_decay_frozen_values():
    assert poly_decay(2.0, 5, 10, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert poly_decay(2.0, 5, 10, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert poly_decay(2.0, 0, 10, 3.0) == 2.0
    assert poly_decay(2.0, 10, 10, 1.0) == 0.0
    assert poly_decay(2.0, 15, 10, 1.0) == 0.0  # past the horizon stays 0


def test_poly_decay_validation():
    with pytest.raises(ValueError):
        poly_decay(0.0, 1, 10, 1.0)
    with pytest.raises(ValueError):
        poly_decay(1.0, 1, 0, 1.0)
    with pytest.raises(ValueError):
        poly_decay(1.0, 1, 10, 0.0)
    with pytest.raises(ValueError):
        poly_decay(1.0, -1, 10, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 10.0), st.integers(1, 100), st.floats(0.5, 5.0))
def test_poly_decay_monotone_nonincreasing(lr0, total, exponent):
    values = [poly_decay(lr0, t, total, exponent) for t in range(total + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == lr0
    assert values[-1] == 0.0


def stops(losses, patience=2, max_epochs=None, rel_delta=1e-4):
    """Whether early stopping fires after the last of one trial's epoch losses."""
    best, stale = np.full(1, np.nan), np.zeros(1, dtype=np.int64)
    for epochs, loss in enumerate(losses, start=1):
        best, stale, stop = early_stop(
            best, stale, np.array([loss]), epochs, patience, max_epochs, rel_delta
        )
    return bool(stop[0])


def test_early_stop_flat_sequence():
    # a flat run: epoch 1 is the last "improvement"; patience 2 stops at epoch 4
    assert not stops([1.0], patience=2)
    assert not stops([1.0, 1.0], patience=2)
    assert not stops([1.0, 1.0, 1.0], patience=2)
    assert stops([1.0, 1.0, 1.0, 1.0], patience=2)


def test_early_stop_needs_significant_improvement():
    # 0.49999 is less than 0.5 but not by the relative margin
    losses = [1.0, 0.5, 0.49999, 0.49998, 0.49997]
    assert stops(losses, patience=2, rel_delta=1e-4)
    # a genuine improvement resets the plateau
    assert not stops([1.0, 0.5, 0.4, 0.3, 0.2], patience=2, rel_delta=1e-4)


def test_early_stop_max_epochs_cap():
    decreasing = [1.0 / (i + 1) for i in range(6)]
    assert not stops(decreasing, patience=2, max_epochs=10)
    assert stops(decreasing, patience=2, max_epochs=6)


def test_early_stop_validation():
    best, stale, losses = np.full(1, np.nan), np.zeros(1, dtype=np.int64), np.ones(1)
    with pytest.raises(ValueError):
        early_stop(best, stale, losses, 0, patience=2)
    with pytest.raises(ValueError):
        early_stop(best, stale, losses, 1, patience=-1)


def test_roster_ids_and_hyperparameters():
    ids = optimizer_ids()
    assert set(ids) == {
        "sgd-lr",
        "sgd-m",
        "sgd-mc",
        "sgd-mcwc",
        "sgd-mcd",
        "sgd-mw",
        "adagrad",
        "adam-lr",
        "adam",
        "adam-wcd",
        "sgd-lreff",
    }
    sgd_lr = optimizer_spec("sgd-lr")
    assert sgd_lr.free == ("learning_rate",)
    assert sgd_lr.fixed == {"momentum": 0.0, "weight_decay": 0.0}
    assert set(sgd_lr.hyperparameters) == {"learning_rate", "momentum", "weight_decay"}

    assert optimizer_spec("sgd-mcd").poly_decay
    assert optimizer_spec("adam-wcd").poly_decay
    assert optimizer_spec("sgd-lreff").effective_lr
    assert optimizer_spec("adam").free == ("learning_rate", "beta1", "beta2", "epsilon")

    with pytest.raises(ValueError, match="unknown optimizer"):
        optimizer_spec("rmsprop")
