"""The population training engine against a per-trial reference, and a
trial's independence from the population it trains in."""

import numpy as np
import pytest

import tunebench.hpo as hpo
from tunebench.core import substream
from tunebench.hpo import random_search, train_trial
from tunebench.optim import optimizer_ids, optimizer_spec
from tunebench.priors import LogUniform10, PriorSpec, default_priors, effective_lr_config
from tunebench.tasks import make_task

SHRUNKEN = {
    "quadratic": dict(dim=8, train_size=200, batch_size=50, max_epochs=8),
    "logreg": dict(n=200, dim=5, batch_size=40, max_epochs=8),
    "mlp": dict(n=120, batch_size=30, max_epochs=8),
}

# The engine and the reference below differ only in how a power is taken:
# numpy's vectorized pow against Python's for the Adam bias corrections and
# the polynomial decay, which disagree in the last bit for a few percent of
# inputs.  Training amplifies such a difference by at most a few orders of
# magnitude over these short runs, so objectives must agree to 1e-10
# relative; a real error in a formula moves them by far more.
REL_TOL = 1e-10


# --- the per-trial reference ---------------------------------------------------------

def reference_loss_grad(task, params, epoch, batch, noise):
    """One trial's batch loss and gradient, written out per task."""
    if task.task_id == "quadratic":
        quad = task.eigenvalues * params
        return 0.5 * float(params @ quad) + float(noise[batch] @ params), quad + noise[batch]
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


def reference_forward(task, params, x):
    if task.task_id == "logreg":
        return x @ params, None
    h = task.hidden
    w1, b1 = params[: 2 * h].reshape(2, h), params[2 * h : 3 * h]
    w2, b2 = params[3 * h : 4 * h], params[4 * h]
    hidden = np.tanh(x @ w1 + b1)
    return hidden @ w2 + b2, hidden


def reference_validation(task, params):
    if task.task_id == "quadratic":
        return 0.5 * float(params @ (task.eigenvalues * params))
    return float(np.logaddexp(0.0, -task.val_y * reference_forward(task, params, task.val_x)[0]).mean())


def reference_objective(task, params):
    if task.task_id == "mlp":
        return float((np.sign(reference_forward(task, params, task.val_x)[0]) == task.val_y).mean())
    return reference_validation(task, params)


def reference_stop(val_losses, patience, max_epochs, rel_delta=1e-4):
    if len(val_losses) >= max_epochs:
        return True
    best, last_improving = val_losses[0], 0
    for i, loss in enumerate(val_losses[1:], start=1):
        if loss < best - rel_delta * abs(best):
            best, last_improving = loss, i
    return (len(val_losses) - 1) - last_improving > patience


def reference_trial(opt, config, task, seed):
    """Outcome of one trial, trained alone with Python-float hyperparameters:
    the per-trial loop that the population engine replaced, with the
    quadratic's noise drawn once per (trial seed, epoch)."""
    lr0 = config["learning_rate"]
    if opt.effective_lr:
        lr0, momentum = effective_lr_config(lr0, config["effective_learning_rate"])
    else:
        momentum = config.get("momentum", 0.0)
    weight_decay = config.get("weight_decay", 0.0)
    params = task.init_params(seed)
    velocity = m = u = accum = np.zeros(task.dim)
    baseline = reference_validation(task, params)
    total_steps = task.max_epochs * task.n_batches
    steps, val_losses, diverged = 0, [], False
    for epoch in range(task.max_epochs):
        noise = None
        if task.task_id == "quadratic":
            block = substream(seed, epoch).standard_normal((task.n_batches, task.dim))
            noise = task.noise_scale * block
        for batch in range(task.n_batches):
            loss, grad = reference_loss_grad(task, params, epoch, batch, noise)
            if not (np.isfinite(loss) and np.isfinite(grad).all()):
                diverged = True
                break
            lr = lr0
            if opt.poly_decay:
                lr = lr0 * (1.0 - steps / total_steps) ** config["poly_exponent"]
            if opt.family == "sgd":
                velocity = momentum * velocity + grad
                params = (1.0 - weight_decay) * params - lr * velocity
            elif opt.family == "adam":
                t = steps + 1
                beta1, beta2 = config["beta1"], config["beta2"]
                m = beta1 * m + (1.0 - beta1) * grad
                u = beta2 * u + (1.0 - beta2) * grad * grad
                m_hat, u_hat = m / (1.0 - beta1**t), u / (1.0 - beta2**t)
                params = params - lr * m_hat / (np.sqrt(u_hat) + config["epsilon"])
            else:
                accum = accum + grad * grad
                params = params - lr * grad / (np.sqrt(accum) + 1e-10)
            steps += 1
            if not np.isfinite(params).all():
                diverged = True
                break
        if diverged:
            break
        val = reference_validation(task, params)
        if not np.isfinite(val) or val > baseline:
            diverged = True
            break
        val_losses.append(val)
        if reference_stop(val_losses, patience=2, max_epochs=task.max_epochs):
            break
    objective = None if diverged else reference_objective(task, params)
    return diverged, steps, len(val_losses), objective


@pytest.mark.parametrize("task_id", sorted(SHRUNKEN))
def test_population_matches_the_per_trial_reference(task_id):
    task = make_task(task_id, **SHRUNKEN[task_id])
    compared = 0
    for oid in optimizer_ids():
        opt = optimizer_spec(oid)
        library = random_search(opt, default_priors(oid), task, budget=6, master_seed=21)
        for trial in library.trials:
            diverged, steps, epochs, objective = reference_trial(opt, trial.config, task, trial.seed)
            where = (oid, trial.seed)
            assert (trial.diverged, trial.update_steps, trial.epochs_run) == (diverged, steps, epochs), where
            if objective is None:
                assert trial.objective is None, where
            else:
                assert trial.objective == pytest.approx(objective, rel=REL_TOL, abs=1e-300), where
            compared += 1
    assert compared == 6 * len(optimizer_ids())


# --- independence from the population ----------------------------------------------

def wide_sgd_prior():
    # learning rates up to 1000 on a bowl with curvature up to 100: many
    # trials blow up within the first epoch while the rest train on
    return PriorSpec({
        "learning_rate": LogUniform10(-4.0, 3.0),
        "momentum": LogUniform10(-3.0, -1.0),
        "weight_decay": LogUniform10(-6.0, -4.0),
    })


# 100 batches an epoch, so a blow-up overflows within the first epoch
WIDE_TASK = dict(dim=8, train_size=1000, batch_size=10, max_epochs=4)

CASES = [
    (oid, task_id, SHRUNKEN[task_id], None) for oid in optimizer_ids() for task_id in sorted(SHRUNKEN)
] + [("sgd-mw", "quadratic", WIDE_TASK, wide_sgd_prior())]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "oid,task_id,sizes,prior", CASES,
    ids=[f"{oid}-{task_id}" + ("-wide" if prior else "") for oid, task_id, _, prior in CASES],
)
def test_a_trial_does_not_depend_on_its_population(oid, task_id, sizes, prior, monkeypatch):
    opt = optimizer_spec(oid)
    prior = prior or default_priors(oid)
    task = make_task(task_id, **sizes)
    library = random_search(opt, prior, task, budget=14, master_seed=5)
    alone = [train_trial(opt, t.config, task, t.seed) for t in library.trials]
    assert list(library.trials) == alone
    assert random_search(opt, prior, task, budget=3, master_seed=5).trials == library.trials[:3]
    # a budget above the population cap trains in pieces, with the same result
    monkeypatch.setattr(hpo, "_MAX_POPULATION", 5)
    assert random_search(opt, prior, task, budget=14, master_seed=5).trials == library.trials


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_the_wide_prior_case_compacts_in_the_first_epoch():
    task = make_task("quadratic", **WIDE_TASK)
    library = random_search(optimizer_spec("sgd-mw"), wide_sgd_prior(), task, budget=14, master_seed=5)
    early = [t for t in library.trials if t.diverged and t.epochs_run == 0]
    assert 2 <= len(early) <= 12
    assert len({t.update_steps for t in early}) > 1  # they leave at different steps
    assert any(not t.diverged and t.epochs_run > 1 for t in library.trials)
