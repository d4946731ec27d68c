import numpy as np
import pytest

from tunebench.core import Direction, substream
from tunebench.optim import adam_step, sgd_step
from tunebench.tasks import evaluate, logreg_task, make_task, mlp_task, quadratic_deep_task, task_ids


def fd_gradient(loss_at, params, h=1e-6):
    """Central finite differences, step scaled per coordinate."""
    grad = np.empty_like(params)
    for i in range(params.size):
        step = h * max(1.0, abs(params[i]))
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        grad[i] = (loss_at(up) - loss_at(down)) / (2.0 * step)
    return grad


def relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-8)


def batch_loss_fn(task, epoch=0, batch=0, trial_seed=123):
    return lambda w: task.batch_loss_grad(w, epoch, batch, trial_seed)[0]


# --- quadratic ---------------------------------------------------------------

def test_quadratic_geometry():
    task = quadratic_deep_task(dim=100)
    assert task.direction is Direction.MINIMIZE
    assert task.eigenvalues.max() / task.eigenvalues.min() == pytest.approx(1e4, rel=1e-10)
    assert task.validation_loss(np.zeros(100)) == 0.0
    expected_init = 0.5 * task.eigenvalues.sum()
    assert task.validation_loss(task.init_params(0)) == pytest.approx(expected_init, rel=1e-12)
    assert np.array_equal(task.init_params(0), task.init_params(99))  # seed-independent start
    assert task.n_batches == 20


def test_quadratic_batch_noise_is_keyed_and_consistent():
    task = quadratic_deep_task(dim=10)
    w = task.init_params(0)
    l1, g1 = task.batch_loss_grad(w, epoch=2, batch=3, trial_seed=7)
    l2, g2 = task.batch_loss_grad(w, epoch=2, batch=3, trial_seed=7)
    l3, _ = task.batch_loss_grad(w, epoch=2, batch=4, trial_seed=7)
    assert l1 == l2 and np.array_equal(g1, g2)
    assert l1 != l3


def test_quadratic_gradient_matches_finite_differences():
    task = quadratic_deep_task(dim=12)
    rng = substream(17)
    for point in range(5):
        w = rng.standard_normal(12)
        _, grad = task.batch_loss_grad(w, epoch=0, batch=point % 4, trial_seed=5)
        fd = fd_gradient(batch_loss_fn(task, epoch=0, batch=point % 4, trial_seed=5), w)
        assert relative_error(fd, grad) < 1e-5


def test_quadratic_sgd_descends():
    task = quadratic_deep_task(dim=30)
    w = task.init_params(0)[None]
    start = task.validation_loss(w)
    velocity = np.zeros_like(w)
    for epoch in range(3):
        for batch in range(task.n_batches):
            _, grad = task.batch_loss_grad(w, epoch, batch, trial_seed=[11])
            sgd_step(w, grad, velocity, lr=1e-3)
    assert task.validation_loss(w) < 0.5 * start


def test_quadratic_objective_is_validation_loss():
    task = quadratic_deep_task(dim=5)
    w = substream(3).standard_normal(5)
    assert task.objective(w) == task.validation_loss(w)


def test_quadratic_rejects_tiny_dim():
    with pytest.raises(ValueError):
        quadratic_deep_task(dim=1)


# --- logistic regression -----------------------------------------------------

def test_logreg_zero_weights_score_ln2_exactly():
    task = logreg_task()
    assert task.validation_loss(np.zeros(task.dim)) == pytest.approx(np.log(2.0), abs=1e-15)


def test_logreg_split_and_batching():
    task = logreg_task(n=2000, dim=20, batch_size=100)
    assert task.train_x.shape == (1600, 20)
    assert task.val_x.shape == (400, 20)
    assert task.n_batches == 16
    assert set(np.unique(task.train_y)) == {-1.0, 1.0}


def test_logreg_data_is_deterministic():
    a = logreg_task(seed=5)
    b = logreg_task(seed=5)
    c = logreg_task(seed=6)
    assert np.array_equal(a.train_x, b.train_x)
    assert not np.array_equal(a.train_x, c.train_x)


def test_logreg_gradient_matches_finite_differences():
    task = logreg_task(n=200, dim=8)
    rng = substream(23)
    for point in range(5):
        w = rng.standard_normal(8)
        _, grad = task.batch_loss_grad(w, epoch=1, batch=point % 2, trial_seed=5)
        fd = fd_gradient(batch_loss_fn(task, epoch=1, batch=point % 2, trial_seed=5), w)
        assert relative_error(fd, grad) < 1e-5


def test_logreg_loss_is_convex_on_lines():
    task = logreg_task(n=400, dim=6)
    rng = substream(31)
    for _ in range(10):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        mid = task.validation_loss((a + b) / 2.0)
        avg = (task.validation_loss(a) + task.validation_loss(b)) / 2.0
        assert mid <= avg + 1e-12


def test_logreg_trains_to_high_accuracy():
    task = logreg_task()
    w = task.init_params(0)[None]
    velocity = np.zeros_like(w)
    for epoch in range(5):
        for batch in range(task.n_batches):
            _, grad = task.batch_loss_grad(w, epoch, batch, trial_seed=[3])
            sgd_step(w, grad, velocity, lr=0.5)
    assert task.accuracy(w) > 0.9
    assert task.validation_loss(w) < np.log(2.0)


# --- MLP ---------------------------------------------------------------------

def test_mlp_parameter_layout():
    task = mlp_task()
    assert task.dim == 2 * 32 + 32 + 32 + 1 == 129
    assert task.direction is Direction.MAXIMIZE
    assert task.train_x.shape == (800, 2)
    assert task.val_x.shape == (200, 2)


def test_mlp_losses_positive_and_chance_accuracy_at_init():
    task = mlp_task()
    w = task.init_params(0)
    assert task.validation_loss(w) > 0
    assert 0.2 <= task.accuracy(w) <= 0.8


def test_mlp_objective_is_accuracy():
    task = mlp_task()
    w = task.init_params(1)
    assert task.objective(w) == task.accuracy(w)


def test_mlp_gradient_matches_finite_differences():
    task = mlp_task(n=200)
    rng = substream(41)
    for point in range(3):
        w = 0.5 * rng.standard_normal(task.dim)
        _, grad = task.batch_loss_grad(w, epoch=0, batch=point, trial_seed=9)
        fd = fd_gradient(batch_loss_fn(task, epoch=0, batch=point, trial_seed=9), w)
        assert relative_error(fd, grad) < 1e-5


def test_mlp_adam_learns_the_spirals():
    # Interleaved spirals are slow going for a 32-unit net; 200 epochs is
    # enough to pull clear of chance without tuning anything.
    task = mlp_task()
    w = task.init_params(0)[None]
    start = task.accuracy(w)
    m, u = np.zeros_like(w), np.zeros_like(w)
    steps = 0
    for epoch in range(200):
        for batch in range(task.n_batches):
            _, grad = task.batch_loss_grad(w, epoch, batch, trial_seed=[2])
            steps += 1
            adam_step(w, grad, m, u, steps, lr=0.01)
    assert task.accuracy(w) > max(0.65, start)
    assert task.validation_loss(w) < 0.65


# --- shared classifier path ------------------------------------------------------

def reference_forward(task, params, x):
    """Logits and hidden activations, written out per model."""
    if task.task_id == "logreg":
        return x @ params, None
    h = task.hidden
    w1, b1 = params[: 2 * h].reshape(2, h), params[2 * h : 3 * h]
    w2, b2 = params[3 * h : 4 * h], params[4 * h]
    hidden = np.tanh(x @ w1 + b1)
    return hidden @ w2 + b2, hidden


def reference_batch_loss_grad(task, params, epoch, batch):
    """Batch loss and gradient, rebuilding the epoch's order on every call."""
    order = substream(task.data_seed, epoch).permutation(task.train_x.shape[0])
    rows = order[batch * task.batch_size : (batch + 1) * task.batch_size]
    x, y = task.train_x[rows], task.train_y[rows]
    z, hidden = reference_forward(task, params, x)
    loss = float(np.logaddexp(0.0, -y * z).mean())
    dz = -y * (0.5 * (1.0 + np.tanh(0.5 * (-y * z)))) / y.size
    if task.task_id == "logreg":
        return loss, x.T @ dz
    dpre = np.outer(dz, params[3 * task.hidden : 4 * task.hidden]) * (1.0 - hidden * hidden)
    return loss, np.concatenate([(x.T @ dpre).ravel(), dpre.sum(axis=0), hidden.T @ dz, [dz.sum()]])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("make", [
    lambda seed: logreg_task(n=300, dim=5, seed=seed, batch_size=40, max_epochs=4),
    lambda seed: mlp_task(seed=seed, n=200, batch_size=30, max_epochs=4),
], ids=["logreg", "mlp"])
def test_classifier_tasks_match_the_reference_bitwise(make, seed):
    task = make(seed)
    rng = substream(seed, 99)
    # epochs out of order and repeated, and one past max_epochs
    for epoch in (3, 0, 3, 1, task.max_epochs + 2):
        for batch in (task.n_batches - 1, 0, 2):
            w = rng.standard_normal(task.dim)
            loss, grad = task.batch_loss_grad(w, epoch, batch, trial_seed=5)
            ref_loss, ref_grad = reference_batch_loss_grad(task, w, epoch, batch)
            assert loss == ref_loss and np.array_equal(grad, ref_grad), (epoch, batch)
    for _ in range(3):
        w = rng.standard_normal(task.dim)
        z, _ = reference_forward(task, w, task.val_x)
        val = float(np.logaddexp(0.0, -task.val_y * z).mean())
        acc = float((np.sign(z) == task.val_y).mean())
        assert task.validation_loss(w) == val
        assert task.accuracy(w) == acc
        assert task.objective(w) == (val if task.task_id == "logreg" else acc)


# --- registry ----------------------------------------------------------------

def test_task_registry():
    assert set(task_ids()) == {"quadratic", "logreg", "mlp"}
    task = make_task("quadratic", dim=10)
    assert task.dim == 10
    with pytest.raises(ValueError, match="unknown task id"):
        make_task("cifar")


def test_evaluate_checks_shape():
    task = make_task("logreg", n=100, dim=4)
    with pytest.raises(ValueError):
        evaluate(task, np.zeros(5))
    assert evaluate(task, np.zeros(4)) == pytest.approx(np.log(2.0), abs=1e-15)
