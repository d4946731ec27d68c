"""Acceptance gate: ten checks, each printing one PASS/FAIL line.

Every check pins the tolerance it is allowed to use; none may be loosened
to make a failing implementation look healthy.
"""

import itertools
import time
from pathlib import Path

import numpy as np

from tunebench import aggregate, estimator
from tunebench.cli import main as cli_main
from tunebench.cli import write_trials
from tunebench.core import Direction, Trial, TrialLibrary, substream
from tunebench.hpo import random_search
from tunebench.optim import optimizer_spec
from tunebench.priors import LogNormal, default_priors
from tunebench.tasks import logreg_task, make_task, mlp_task, quadratic_deep_task

MIN = Direction.MINIMIZE
MAX = Direction.MAXIMIZE


def library_of(values, optimizer_id="opt-a", direction=MIN, steps=1):
    trials = [
        Trial(
            optimizer_id=optimizer_id,
            task_id="synthetic",
            seed=i,
            config={"learning_rate": 0.1},
            objective=float(v),
            direction=direction,
            update_steps=steps,
            epochs_run=1,
        )
        for i, v in enumerate(values)
    ]
    return TrialLibrary.from_trials(trials)


def report(capsys, number, label, body, limit=None):
    start = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - start
        if limit is not None:
            assert elapsed < limit, f"took {elapsed:.1f}s, limit {limit}s"
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number:2d} FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"acceptance {number:2d} PASS  {label} ({elapsed:.1f}s)")


def test_criterion_1_estimator_exactness(capsys):
    def body():
        for n in range(1, 7):
            for multiset in itertools.combinations_with_replacement(range(4), n):
                arr = np.array(multiset, dtype=float)
                for budget in range(1, 5):
                    tuples = np.array(list(itertools.product(arr, repeat=budget)))
                    for direction, reduce in ((MIN, np.min), (MAX, np.max)):
                        best = reduce(tuples, axis=1)
                        mean = estimator.expected_best_at(arr, budget, direction)
                        var = estimator.variance_best_at(arr, budget, direction)
                        assert abs(mean - best.mean()) <= 1e-12
                        assert abs(var - best.var()) <= 1e-12

    report(capsys, 1, "expected/variance best match brute force (N<=6, S<=4, 1e-12)", body, limit=10.0)


def test_criterion_2_bootstrap_consistency(capsys):
    def body():
        values = substream(2024).uniform(0.1, 2.0, size=100)
        lib = library_of(values)
        objectives = lib.analysis_objectives()
        repetitions = 100_000
        # draws are prefix-shared, so column budget - 1 of one run at budget 64
        # holds the samples a run at that budget would draw
        runs = estimator.bootstrap_runs(lib, 64, repetitions, rng_seed=11)
        for budget in (1, 4, 16, 64):
            exact = estimator.expected_best_at(objectives, budget, MIN)
            var = estimator.variance_best_at(objectives, budget, MIN)
            boot = runs[:, budget - 1].mean()
            se = np.sqrt(var / repetitions)
            assert abs(boot - exact) <= 4.0 * se, (budget, boot, exact, se)

    report(capsys, 2, "bootstrap mean within 4 SE of closed form (R=100000)", body, limit=30.0)


def test_criterion_3_budget_dependent_ranking(capsys):
    def body():
        narrow_deep = np.concatenate(([0.10], np.linspace(0.50, 1.00, 99)))
        wide_shallow = np.concatenate((np.linspace(0.15, 0.20, 60), np.linspace(0.25, 1.00, 40)))
        assert narrow_deep.size == 100 and wide_shallow.size == 100
        curve_e = np.array([estimator.expected_best_at(narrow_deep, b, MIN) for b in range(1, 401)])
        curve_f = np.array([estimator.expected_best_at(wide_shallow, b, MIN) for b in range(1, 401)])
        assert curve_f[0] < curve_e[0]
        assert curve_e[399] < curve_f[399]
        gap = curve_e - curve_f
        crossing = int(np.argmax(gap < 0)) + 1
        assert gap[crossing - 2] > 0 and gap[crossing - 1] < 0
        assert 1 < crossing <= 400

    report(capsys, 3, "narrow-deep vs wide-shallow curves cross at a finite budget", body)


def test_criterion_4_calibration_recovery(capsys):
    def body():
        truth = LogNormal(-2.69, 1.42)
        rng = substream(7)
        draws = np.array([truth.sample(rng) for _ in range(10_000)])
        fitted = LogNormal.fit(draws)
        assert abs(fitted.mu - truth.mu) <= 0.05
        assert abs(fitted.sigma - truth.sigma) <= 0.05

    report(capsys, 4, "LogNormal(-2.69, 1.42) refit within +/-0.05 on 10k draws", body, limit=1.0)


def test_criterion_5_aggregation_identities(capsys):
    def body():
        cpe = aggregate.weights_cpe(3)
        assert abs(float(np.dot(cpe.weights, [3.0, 1.0, 1.0])) - 7.0 / 3.0) <= 1e-12

        trace = substream(15).uniform(0.0, 4.0, size=6)
        final_only = aggregate.weights_one_hot(6, 6)
        assert aggregate.omega_tunability(trace, final_only) == trace[-1]
        uniform = aggregate.weights_cpu(6)
        assert abs(aggregate.omega_tunability(trace, uniform) - trace.mean()) <= 1e-12

        schemes = [
            aggregate.weights_one_hot(6, 1),
            aggregate.weights_one_hot(6, 6),
            aggregate.weights_cpe(6),
            aggregate.weights_cpl(6),
            aggregate.weights_cpu(6),
        ]
        for scheme in schemes:
            assert abs(scheme.weights.sum() - 1.0) <= 1e-12

    report(capsys, 5, "weight schemes: CPE dot = 7/3, one-hot exact, CPU = mean, sums = 1", body)


def test_criterion_6_probability_conservation(capsys):
    def body():
        rng = substream(33)
        libs = [
            library_of(rng.uniform(0.0, 1.0, size=30), optimizer_id=f"opt-{k}")
            for k in range(3)
        ]
        for budget in (1, 2, 4, 8, 16):
            probs = aggregate.probability_of_best(libs, [budget], repetitions=1000, rng_seed=5)[0]
            assert probs.shape == (3,)
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) <= 1e-12

        shared = rng.uniform(0.0, 1.0, size=25)
        clones = [library_of(shared, optimizer_id=f"clone-{k}") for k in range(3)]
        for budget in (1, 3, 9):
            probs = aggregate.probability_of_best(clones, [budget], repetitions=1000, rng_seed=6)[0]
            assert probs[0] == probs[1] == probs[2]

    report(capsys, 6, "win probabilities sum to 1; identical libraries tie exactly", body)


def fd_gradient(loss_at, params, h=1e-6):
    grad = np.empty_like(params)
    for i in range(params.size):
        step = h * max(1.0, abs(params[i]))
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        grad[i] = (loss_at(up) - loss_at(down)) / (2.0 * step)
    return grad


def test_criterion_7_gradient_checks(capsys):
    def body():
        tasks = [quadratic_deep_task(dim=20), logreg_task(), mlp_task()]
        for t, task in enumerate(tasks):
            rng = substream(900 + t)
            for point in range(100):
                params = rng.standard_normal(task.dim)
                epoch, batch, seed = 0, point % task.n_batches, 1000 + point
                _, grad = task.batch_loss_grad(params, epoch, batch, seed)
                fd = fd_gradient(
                    lambda w: task.batch_loss_grad(w, epoch, batch, seed)[0], params
                )
                err = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-8)
                assert err < 1e-5, (task.task_id, point, err)

    report(capsys, 7, "analytic gradients match central differences (100 points/task)", body, limit=10.0)


def test_criterion_8_end_to_end_testbed(capsys):
    def body():
        task = quadratic_deep_task()
        init_loss = task.validation_loss(task.init_params(0))
        for optimizer_id in ("sgd-lr", "adam-lr"):
            lib = random_search(
                optimizer_spec(optimizer_id),
                default_priors(optimizer_id),
                task,
                budget=100,
                master_seed=0,
            )
            objectives = lib.analysis_objectives()
            curve = np.array(
                [estimator.expected_best_at(objectives, b, MIN) for b in range(1, 101)]
            )
            assert curve[0] < init_loss, (optimizer_id, curve[0], init_loss)
            slack = 1e-12 * np.abs(curve).max()
            assert np.all(np.diff(curve) <= slack), optimizer_id

    report(capsys, 8, "100-trial SGD/Adam libraries beat init at budget 1, monotone", body, limit=300.0)


def test_criterion_9_time_budget_reduction(capsys, tmp_path):
    def body():
        rng = substream(88)
        size = 40
        paths = []
        for optimizer_id in ("opt-a", "opt-b"):
            lib = library_of(rng.uniform(0.0, 1.0, size=size), optimizer_id=optimizer_id, steps=3)
            path = tmp_path / f"{optimizer_id}__synthetic.jsonl"
            write_trials(path, lib.trials)
            paths.append(str(path))

        an, tc = tmp_path / "an", tmp_path / "tc"
        assert cli_main(["analyze", *paths, "--bootstrap", "200", "--seed", "5",
                         "--budget", f"1..{size}", "--out", str(an)]) == 0
        assert cli_main(["time-curve", *paths, "--intervals", str(size),
                         "--repetitions", "200", "--seed", "5", "--out", str(tc)]) == 0

        curve_lines = (an / "curves.csv").read_text().splitlines()[1:]
        boot = {}
        for line in curve_lines:
            cells = line.split(",")
            boot[(cells[0], int(cells[3]))] = (cells[4], cells[6], cells[8])
        time_lines = (tc / "time_curve.csv").read_text().splitlines()[1:]
        assert len(time_lines) == 2 * size
        for line in time_lines:
            cells = line.split(",")
            mean, q25, q75 = boot[(cells[3], int(cells[1]))]
            assert cells[4] == mean
            assert cells[5] == q25
            assert cells[6] == q75

    report(capsys, 9, "equal-cost time curves equal bootstrap curves cell for cell", body)


CONFIG = """\
[search]
optimizers = sgd-lr, adam-lr
tasks = quadratic
trials = 40
seed = 3

[task.quadratic]
dim = 5
max_epochs = 2
"""


def run_pipeline(root: Path, config: Path) -> None:
    gen = root / "gen"
    assert cli_main(["generate", str(config), "--out", str(gen)]) == 0
    files = sorted(str(p) for p in gen.glob("*.jsonl"))
    assert len(files) == 2
    assert cli_main(["calibrate", *files, "--retention", "1000.0",
                     "--out", str(root / "cal")]) == 0
    assert cli_main(["analyze", *files, "--out", str(root / "exact")]) == 0
    assert cli_main(["analyze", *files, "--bootstrap", "50", "--seed", "2",
                     "--budget", "1..8", "--out", str(root / "boot")]) == 0
    assert cli_main(["summarize", str(root / "exact" / "curves.csv"),
                     "--out", str(root / "summary")]) == 0
    assert cli_main(["prob-best", *files, "--repetitions", "100",
                     "--out", str(root / "prob")]) == 0
    assert cli_main(["time-curve", *files, "--intervals", "5", "--repetitions", "50",
                     "--out", str(root / "time")]) == 0
    assert cli_main(["plot",
                     str(root / "exact" / "curves.csv"),
                     str(root / "summary" / "relative.csv"),
                     str(root / "prob" / "prob_best.csv"),
                     str(root / "time" / "time_curve.csv"),
                     "--out", str(root / "fig")]) == 0


def test_criterion_10_cli_determinism(capsys, tmp_path):
    def body():
        config = tmp_path / "search.ini"
        config.write_text(CONFIG)
        first, second = tmp_path / "run1", tmp_path / "run2"
        run_pipeline(first, config)
        run_pipeline(second, config)
        produced = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert produced
        assert produced == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        for rel in produced:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), str(rel)

    report(capsys, 10, "full CLI pipeline rerun is byte-identical", body)
