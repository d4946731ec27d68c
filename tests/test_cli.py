import json
from pathlib import Path

import numpy as np
import pytest

from tunebench import cli, estimator
from tunebench.cli import main, prior_from_json, read_trials, write_trials
from tunebench.core import Direction, Trial, TrialLibrary


CONFIG = """\
[search]
optimizers = sgd-lr
tasks = quadratic
trials = 3
seed = 1

[task.quadratic]
dim = 5
max_epochs = 2
"""


def run(argv):
    return main([str(a) for a in argv])


def synthetic_trials(objectives, optimizer_id="opt-a", task_id="synthetic", steps=1):
    return [
        Trial(
            optimizer_id=optimizer_id,
            task_id=task_id,
            seed=i,
            config={"learning_rate": 0.1},
            objective=float(o),
            direction=Direction.MINIMIZE,
            update_steps=steps,
            epochs_run=1,
        )
        for i, o in enumerate(objectives)
    ]


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# --- record round trip ---------------------------------------------------------

def test_trial_jsonl_round_trip(tmp_path):
    trials = synthetic_trials([1.5, 0.25])
    trials.append(
        Trial(
            optimizer_id="opt-a", task_id="synthetic", seed=9,
            config={"learning_rate": 3.0}, objective=None,
            direction=Direction.MINIMIZE, update_steps=4, epochs_run=0,
            diverged=True,
        )
    )
    path = tmp_path / "trials.jsonl"
    write_trials(path, trials)
    assert list(read_trials(path)) == trials
    first = json.loads(path.read_text().splitlines()[0])
    assert first["schema_version"] == 1
    assert json.loads(path.read_text().splitlines()[2])["objective"] is None


# --- generate -------------------------------------------------------------------

def test_generate_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "search.ini"
    cfg.write_text(CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["generate", cfg, "--out", out1]) == 0
    assert str(out1 / "sgd-lr__quadratic.jsonl") in capsys.readouterr().out
    assert run(["generate", cfg, "--out", out2]) == 0
    blob1 = (out1 / "sgd-lr__quadratic.jsonl").read_bytes()
    assert blob1 == (out2 / "sgd-lr__quadratic.jsonl").read_bytes()
    assert len(read_trials(out1 / "sgd-lr__quadratic.jsonl")) == 3


def test_generate_config_errors(tmp_path, capsys):
    bad = [
        CONFIG + "bogus = 1\n",
        CONFIG.replace("sgd-lr", "sgd-turbo"),
        CONFIG.replace("quadratic", "cifar"),
        CONFIG + "\n[plot]\ncolor = red\n",
        "[search]\ntasks = quadratic\n",
    ]
    for i, text in enumerate(bad):
        cfg = tmp_path / f"bad{i}.ini"
        cfg.write_text(text)
        assert run(["generate", cfg, "--out", tmp_path / f"o{i}"]) == 2
        assert "tunebench: error:" in capsys.readouterr().err


# --- trial file validation -------------------------------------------------------

def write_raw(tmp_path, name, records):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def good_record():
    return {
        "optimizer": "opt-a", "task": "synthetic", "seed": 0,
        "config": {"learning_rate": 0.1}, "objective": 1.0, "direction": "min",
        "update_steps": 1, "epochs_run": 1, "diverged": False, "schema_version": 1,
    }


def test_record_validation_exit_codes(tmp_path):
    missing = good_record()
    del missing["seed"]
    path = write_raw(tmp_path, "missing.jsonl", [missing])
    assert run(["analyze", path, "--out", tmp_path / "m"]) == 5

    unknown = good_record()
    unknown["flavor"] = "hot"
    path = write_raw(tmp_path, "unknown.jsonl", [unknown])
    assert run(["analyze", path, "--out", tmp_path / "u"]) == 6

    versioned = good_record()
    versioned["schema_version"] = 2
    path = write_raw(tmp_path, "versioned.jsonl", [versioned])
    assert run(["analyze", path, "--out", tmp_path / "v"]) == 6

    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text('{"optimizer": \n')
    assert run(["analyze", garbled, "--out", tmp_path / "g"]) == 6

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run(["analyze", empty, "--out", tmp_path / "e"]) == 6

    typed = good_record()
    typed["seed"] = "zero"
    path = write_raw(tmp_path, "typed.jsonl", [typed])
    assert run(["analyze", path, "--out", tmp_path / "t"]) == 6


# --- analyze ---------------------------------------------------------------------

def test_analyze_exact_matches_estimator(tmp_path):
    trials = synthetic_trials([3.0, 1.0, 2.0, 1.0])
    src = tmp_path / "opt-a__synthetic.jsonl"
    write_trials(src, trials)
    assert run(["analyze", src, "--out", tmp_path]) == 0
    header, rows = read_rows(tmp_path / "curves.csv")
    assert header == list(cli._CURVE_HEADER)
    lib = TrialLibrary.from_trials(trials)
    objectives = lib.analysis_objectives()
    assert len(rows) == 4
    for row in rows:
        assert row[0] == "opt-a" and row[1] == "synthetic" and row[2] == "min"
        budget = int(row[3])
        dist = estimator.best_at_distribution(objectives, budget, lib.direction)
        assert row[4] == format(dist.mean(), ".17g")
        assert row[5] == format(dist.variance(), ".17g")
        assert row[6] == format(dist.quantile(0.25), ".17g")
        assert row[7] == format(dist.quantile(0.50), ".17g")
        assert row[8] == format(dist.quantile(0.75), ".17g")


def test_analyze_bootstrap_clamps_and_reruns_identically(tmp_path, capsys):
    src = tmp_path / "opt-a__synthetic.jsonl"
    write_trials(src, synthetic_trials([3.0, 1.0, 2.0]))
    args = ["analyze", src, "--bootstrap", "20", "--seed", "7",
            "--budget", "1,5", "--out", tmp_path]
    assert run(args) == 0
    err = capsys.readouterr().err
    assert "budget 5 exceeds the 3-trial library" in err
    assert "clamping" in err
    blob = (tmp_path / "curves.csv").read_bytes()
    _, rows = read_rows(tmp_path / "curves.csv")
    assert [int(r[3]) for r in rows] == [1, 3]
    assert run(args) == 0
    assert (tmp_path / "curves.csv").read_bytes() == blob


# --- summarize -------------------------------------------------------------------

def write_curves(path, rows):
    lines = [",".join(cli._CURVE_HEADER)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_summarize_frozen_tables(tmp_path):
    curves = tmp_path / "curves.csv"
    write_curves(curves, [
        ("A", "t", "min", 1, 2.0, 0, 0, 0, 0),
        ("A", "t", "min", 2, 1.0, 0, 0, 0, 0),
        ("B", "t", "min", 1, 4.0, 0, 0, 0, 0),
        ("B", "t", "min", 2, 3.0, 0, 0, 0, 0),
    ])
    assert run(["summarize", curves, "--out", tmp_path]) == 0

    delta = 1e-9 * 3.0
    _, rows = read_rows(tmp_path / "relative.csv")
    rel = {(r[0], r[1], int(r[2])): (float(r[3]), float(r[4])) for r in rows}
    assert len(rel) == len(rows) == 8
    assert rel[("t", "A", 1)] == (1.0, delta)
    assert rel[("t", "A", 2)] == (1.0, delta)
    assert rel[("t", "B", 1)][0] == pytest.approx(delta / (2 + delta), rel=1e-12)
    assert rel[("t", "B", 2)][0] == pytest.approx((1 + delta) / (3 + delta), rel=1e-12)
    assert rel[("ALL", "A", 1)] == (1.0, 0.0)
    assert rel[("ALL", "B", 2)][0] == pytest.approx((1 + delta) / (3 + delta), rel=1e-12)

    _, rows = read_rows(tmp_path / "tunability.csv")
    tun = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    assert tun[("t", "A", "one_hot_1")] == 2.0
    assert tun[("t", "A", "one_hot_final")] == 1.0
    assert tun[("t", "A", "cpe")] == 2.0
    assert tun[("t", "A", "cpl")] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert tun[("t", "A", "cpu")] == 1.5
    assert tun[("t", "B", "cpl")] == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert tun[("t", "B", "cpu")] == 3.5

    _, rows = read_rows(tmp_path / "alpha.csv")
    alpha = {(r[0], r[1], r[2]): (float(r[3]), float(r[4])) for r in rows}
    for oid in ("A", "B"):
        for metric in ("zeta_0.90", "zeta_0.95", "zeta_0.99"):
            assert alpha[("t", oid, metric)] == (1.0, 1e-9)
        assert alpha[("t", oid, "sharpness")] == (0.0, 1e-9)


def test_summarize_grid_errors(tmp_path):
    missing_pair = tmp_path / "missing.csv"
    write_curves(missing_pair, [
        ("A", "t", "min", 1, 2.0, 0, 0, 0, 0),
        ("A", "t", "min", 2, 1.0, 0, 0, 0, 0),
        ("B", "t", "min", 1, 4.0, 0, 0, 0, 0),
    ])
    assert run(["summarize", missing_pair, "--out", tmp_path / "a"]) == 4

    gapped = tmp_path / "gapped.csv"
    write_curves(gapped, [
        ("A", "t", "min", 2, 2.0, 0, 0, 0, 0),
        ("A", "t", "min", 3, 1.0, 0, 0, 0, 0),
    ])
    assert run(["summarize", gapped, "--out", tmp_path / "b"]) == 4

    conflicted = tmp_path / "conflicted.csv"
    write_curves(conflicted, [
        ("A", "t", "min", 1, 2.0, 0, 0, 0, 0),
        ("B", "t", "max", 1, 4.0, 0, 0, 0, 0),
    ])
    assert run(["summarize", conflicted, "--out", tmp_path / "c"]) == 4

    wrong_header = tmp_path / "wrong.csv"
    wrong_header.write_text("a,b,c\n1,2,3\n")
    assert run(["summarize", wrong_header, "--out", tmp_path / "d"]) == 6


# --- prob-best -------------------------------------------------------------------

def test_prob_best_identical_libraries_split_evenly(tmp_path):
    objectives = [3.0, 1.0, 2.0, 4.0]
    a = tmp_path / "opt-a__synthetic.jsonl"
    b = tmp_path / "opt-b__synthetic.jsonl"
    write_trials(a, synthetic_trials(objectives, optimizer_id="opt-a"))
    write_trials(b, synthetic_trials(objectives, optimizer_id="opt-b"))
    assert run(["prob-best", a, b, "--budget", "1,2,8",
                "--repetitions", "200", "--out", tmp_path]) == 0
    header, rows = read_rows(tmp_path / "prob_best.csv")
    assert header == list(cli._PROB_HEADER)
    for row in rows:
        assert row[0] == "synthetic"
        assert float(row[3]) == 0.5
    replacement = {int(r[1]): r[4] for r in rows}
    assert replacement[1] == "false" and replacement[2] == "false"
    assert replacement[8] == "true"


def test_prob_best_needs_two_optimizers(tmp_path):
    a = tmp_path / "opt-a__synthetic.jsonl"
    write_trials(a, synthetic_trials([1.0, 2.0]))
    assert run(["prob-best", a, "--out", tmp_path]) == 4


# --- time-curve ------------------------------------------------------------------

def test_time_curve_matches_bootstrap_analyze_cells(tmp_path):
    rng = np.random.default_rng(12)
    a = tmp_path / "opt-a__synthetic.jsonl"
    b = tmp_path / "opt-b__synthetic.jsonl"
    write_trials(a, synthetic_trials(rng.standard_normal(6), optimizer_id="opt-a"))
    write_trials(b, synthetic_trials(rng.standard_normal(6), optimizer_id="opt-b"))

    assert run(["analyze", a, b, "--bootstrap", "30", "--seed", "4",
                "--budget", "1..6", "--out", tmp_path / "an"]) == 0
    assert run(["time-curve", a, b, "--intervals", "6", "--repetitions", "30",
                "--seed", "4", "--out", tmp_path / "tc"]) == 0

    _, curve_rows = read_rows(tmp_path / "an" / "curves.csv")
    boot = {(r[0], int(r[3])): (r[4], r[6], r[8]) for r in curve_rows}
    _, time_rows = read_rows(tmp_path / "tc" / "time_curve.csv")
    assert len(time_rows) == 12
    for row in time_rows:
        oid, interval = row[3], int(row[1])
        mean, q25, q75 = boot[(oid, interval)]
        assert row[4] == mean
        assert row[5] == q25
        assert row[6] == q75
        assert row[2] == format(float(interval), ".17g")


# --- calibrate -------------------------------------------------------------------

def test_calibrate_writes_loadable_priors(tmp_path, capsys):
    cfg = tmp_path / "search.ini"
    cfg.write_text(CONFIG.replace("trials = 3", "trials = 25"))
    gen = tmp_path / "gen"
    assert run(["generate", cfg, "--out", gen]) == 0
    capsys.readouterr()
    assert run(["calibrate", gen / "sgd-lr__quadratic.jsonl",
                "--out", tmp_path / "cal"]) == 0
    prior_path = tmp_path / "cal" / "prior_sgd-lr.json"
    assert prior_path.exists()
    oid, prior = prior_from_json(prior_path.read_text(), str(prior_path))
    assert oid == "sgd-lr"
    assert set(prior.names()) == {"learning_rate", "momentum", "weight_decay"}
    gen2 = tmp_path / "gen2"
    assert run(["generate", cfg, "--priors", tmp_path / "cal", "--out", gen2]) == 0
    assert (gen2 / "sgd-lr__quadratic.jsonl").exists()


def test_calibrate_failure_exits_3(tmp_path, capsys):
    src = tmp_path / "opt__t.jsonl"
    write_trials(src, synthetic_trials([1.0], optimizer_id="sgd-lr"))
    assert run(["calibrate", src, "--out", tmp_path / "cal"]) == 3
    assert "tunebench: error:" in capsys.readouterr().err


# --- plot ------------------------------------------------------------------------

def test_plot_renders_self_contained_svg(tmp_path):
    src = tmp_path / "opt-a__synthetic.jsonl"
    write_trials(src, synthetic_trials([3.0, 1.0, 2.0]))
    an = tmp_path / "an"
    assert run(["analyze", src, "--out", an]) == 0
    assert run(["plot", an / "curves.csv", "--out", tmp_path / "fig"]) == 0
    svg = (tmp_path / "fig" / "curves_synthetic.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    # self-contained: nothing scripted, linked or fetched beyond the namespace
    assert "<script" not in svg and "href" not in svg and "<image" not in svg
    assert "opt-a" in svg


def test_plot_rejects_unknown_header(tmp_path):
    weird = tmp_path / "weird.csv"
    weird.write_text("alpha,beta\n1,2\n")
    assert run(["plot", weird, "--out", tmp_path]) == 6


# --- degenerate inputs -------------------------------------------------------------

MLP_CONFIG = CONFIG.replace("quadratic", "mlp").replace("dim = 5\n", "")

# name: (argv, config text, exit code, fragment of the one-line message).
# In argv, {a} and {b} are two small libraries, {a_again} is {a} reached
# through "..", {diverged} is a library whose trials all diverged, {latin1}
# is a file that is not UTF-8, {priors} is a directory whose sgd-lr prior
# file is not UTF-8, and {config} is the config text written to a file.
# The numeric-flag rows name {latin1}, which exits 6 if it is read first.
DEGENERATE = {
    "analyze_all_diverged": (
        ["analyze", "{diverged}"], None,
        4, "opt-a/synthetic: library has no finished trials"),
    "bootstrap_all_diverged": (
        ["analyze", "{diverged}", "--bootstrap", "20"], None,
        4, "no finished trials"),
    "mlp_batch_size_0": (
        ["generate", "{config}"], MLP_CONFIG + "batch_size = 0\n",
        2, "batch_size = 0"),
    "batch_size_above_training_set": (
        ["generate", "{config}"], CONFIG + "batch_size = 2000\n",
        2, "batch_size = 2000"),
    "max_epochs_0": (
        ["generate", "{config}"], CONFIG.replace("max_epochs = 2", "max_epochs = 0"),
        2, "max_epochs = 0"),
    "train_size_0": (
        ["generate", "{config}"], CONFIG + "train_size = 0\n",
        2, "train_size = 0"),
    "mlp_n_12": (
        ["generate", "{config}"], MLP_CONFIG + "n = 12\n",
        2, "batch_size = 50"),
    "optimizer_named_twice": (
        ["generate", "{config}"], CONFIG.replace("= sgd-lr", "= sgd-lr, sgd-lr"),
        2, "'sgd-lr' named twice"),
    "task_named_twice": (
        ["generate", "{config}"], CONFIG.replace("= quadratic", "= quadratic quadratic"),
        2, "'quadratic' named twice"),
    "analyze_file_twice": (["analyze", "{a}", "{a}"], None, 2, "named twice"),
    "analyze_file_twice_by_another_path": (
        ["analyze", "{a}", "{b}", "{a_again}"], None, 2, "named twice"),
    "prob_best_file_twice": (["prob-best", "{a}", "{b}", "{b}"], None, 2, "named twice"),
    "time_curve_file_twice": (["time-curve", "{a}", "{b}", "{a}"], None, 2, "named twice"),
    "calibrate_file_twice": (["calibrate", "{a}", "{a}"], None, 2, "named twice"),
    "plot_short_row": (
        ["plot", "{config}"], ",".join(cli._PROB_HEADER) + "\nt,1,a\n",
        6, "row with 3 cells"),
    "plot_cell_over_csv_limit": (
        ["plot", "{config}"], ",".join(cli._PROB_HEADER) + '\n"' + "x" * 200_000 + '",1,a,1,\n',
        6, "field larger than field limit"),
    "summarize_bad_direction": (
        ["summarize", "{config}"],
        ",".join(cli._CURVE_HEADER) + "\no,t,sideways,1,1,0,1,1,1\no,t,sideways,2,1,0,1,1,1\n",
        6, "direction must be 'min' or 'max'"),
    "analyze_not_utf8": (["analyze", "{latin1}"], None, 6, "not UTF-8 text"),
    "calibrate_not_utf8": (["calibrate", "{latin1}"], None, 6, "not UTF-8 text"),
    "summarize_not_utf8": (["summarize", "{latin1}"], None, 6, "not UTF-8 text"),
    "plot_not_utf8": (["plot", "{latin1}"], None, 6, "not UTF-8 text"),
    "generate_config_not_utf8": (["generate", "{latin1}"], None, 2, "not UTF-8 text"),
    "generate_prior_not_utf8": (
        ["generate", "{config}", "--priors", "{priors}"], CONFIG, 6, "not UTF-8 text"),
    "generate_prior_missing": (
        ["generate", "{config}", "--priors", "{priors}/none"], CONFIG,
        2, "no prior file for 'sgd-lr'"),
    "bootstrap_negative_seed": (
        ["analyze", "{latin1}", "--bootstrap", "20", "--seed", "-1"], None,
        2, "--seed must be >= 0"),
    "prob_best_negative_seed": (
        ["prob-best", "{latin1}", "--seed", "-1"], None, 2, "--seed must be >= 0"),
    "time_curve_negative_seed": (
        ["time-curve", "{latin1}", "--seed", "-1"], None, 2, "--seed must be >= 0"),
    "retention_nan": (
        ["calibrate", "{latin1}", "--retention", "nan"], None,
        2, "--retention must be positive and finite"),
    "retention_inf": (
        ["calibrate", "{latin1}", "--retention", "inf"], None,
        2, "--retention must be positive and finite"),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_inputs_exit_with_one_line(case, tmp_path, capsys):
    argv, config, code, fragment = DEGENERATE[case]
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("a", "b", "diverged")}
    write_trials(paths["a"], synthetic_trials([3.0, 1.0, 2.0], optimizer_id="opt-a"))
    write_trials(paths["b"], synthetic_trials([2.0, 4.0, 1.0], optimizer_id="opt-b"))
    write_trials(paths["diverged"], [
        Trial(
            optimizer_id="opt-a", task_id="synthetic", seed=i,
            config={"learning_rate": 3.0}, objective=None,
            direction=Direction.MINIMIZE, update_steps=2, epochs_run=0, diverged=True,
        )
        for i in range(3)
    ])
    paths["a_again"] = tmp_path / ".." / tmp_path.name / "a.jsonl"
    paths["latin1"] = tmp_path / "latin1.txt"
    paths["latin1"].write_bytes(b"caf\xe9\n")
    paths["priors"] = tmp_path / "priors"
    paths["priors"].mkdir()
    (paths["priors"] / "prior_sgd-lr.json").write_bytes(b"caf\xe9\n")
    paths["config"] = tmp_path / "search.ini"
    if config is not None:
        paths["config"].write_text(config)
    assert run([arg.format(**paths) for arg in argv] + ["--out", tmp_path / "out"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("tunebench: error:")]
    assert len(lines) == 1 and fragment in lines[0], err


# --- outputs are replaced whole --------------------------------------------------

def test_write_trials_that_fails_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "runs.jsonl"
    write_trials(path, synthetic_trials([1.0, 2.0]))
    before = path.read_bytes()
    to_record = cli.trial_to_record
    calls = []

    def second_fails(trial):
        calls.append(trial)
        if len(calls) == 2:
            raise RuntimeError("record 2 cannot be written")
        return to_record(trial)

    monkeypatch.setattr(cli, "trial_to_record", second_fails)
    with pytest.raises(RuntimeError, match="record 2"):
        write_trials(path, synthetic_trials([3.0, 4.0, 5.0]))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.jsonl"]


def test_csv_that_fails_leaves_the_old_file(tmp_path):
    path = tmp_path / "table.csv"
    cli._write_csv(path, ("a", "b"), [(1, 2.5)])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        cli._write_csv(path, ("a", "b"), [(3, 4.5), (object(), 5.5)])
    assert path.read_bytes() == before == b"a,b\n1,2.5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
