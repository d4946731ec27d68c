"""Command-line interface for the benchmarking pipeline.

Subcommands cover the full workflow: ``generate`` runs random search and
writes trial records, ``calibrate`` refits priors from those records,
``analyze`` turns a trial library into expected-best-at-budget curves,
``summarize`` reduces curves to tunability tables, ``prob-best`` and
``time-curve`` run the Monte-Carlo comparisons, and ``plot`` renders any
of the CSV outputs as self-contained SVG charts.

Every command is deterministic for fixed inputs and flags: floats are
written with 17 significant digits, row order is fixed, and reruns
produce byte-identical files.

Exit codes: 0 success, 2 bad configuration or usage (including a name or
trial file given twice, out-of-range task sizes, an unreadable file, a
search config that is not UTF-8, and an out-of-range numeric flag, checked
before any file is read), 3 calibration failure, 4 inconsistent result grid
or a library with no finished trials, 5 missing record fields, 6 malformed
input files (including trial, prior and CSV files that are not UTF-8).
Every error is one ``tunebench: error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from tunebench import aggregate, estimator
from tunebench.core import Direction, Trial, TrialLibrary
from tunebench.hpo import random_search, time_budget_curve
from tunebench.optim import optimizer_spec
from tunebench.priors import (
    Distribution,
    Fixed,
    LogNormal,
    LogUniform10,
    OneMinusLogUniform10,
    PriorSpec,
    Uniform,
    calibrate,
    default_priors,
    retained_trials,
)
from tunebench.tasks import check_trainable, make_task, task_ids, task_parameters

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_GRID = 4
EXIT_MISSING_FIELD = 5
EXIT_PARSE = 6

SCHEMA_VERSION = 1


class CliError(Exception):
    """Error with a process exit code attached."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _fmt(value) -> str:
    """Fixed-width-free but round-trippable cell formatting."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@contextlib.contextmanager
def _replacing(path: Path, newline: str | None = None):
    """A text file that replaces ``path`` whole, from a sibling temporary file,
    when the block ends; if the block raises, ``path`` is left as it was.
    The output directory is made if it does not exist yet.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _read_text(path, code: int, newline: str | None = None, context: str = "") -> str:
    """The whole text of a UTF-8 file.

    A file that cannot be read exits 2, its reason after ``context``; bytes
    that are not UTF-8 exit with ``code``, the code of the file's other
    parse errors.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except OSError as err:
        raise CliError(EXIT_CONFIG, f"{context}{err}")
    except UnicodeDecodeError as err:
        raise CliError(code, f"{path}: not UTF-8 text ({err.reason} at byte {err.start})")


def _read_csv(path: Path) -> tuple[tuple[str, ...], list[list[str]]]:
    # newline="" keeps line breaks inside quoted cells, as the csv module asks
    reader = csv.reader(io.StringIO(_read_text(path, EXIT_PARSE, newline=""), newline=""))
    try:
        header = tuple(next(reader))
        rows = [row for row in reader if row]
    except StopIteration:
        raise CliError(EXIT_PARSE, f"{path}: empty CSV")
    except csv.Error as err:
        raise CliError(EXIT_PARSE, f"{path}: {err}")
    if not rows:
        raise CliError(EXIT_PARSE, f"{path}: no data rows")
    for row in rows:
        if len(row) != len(header):
            raise CliError(
                EXIT_PARSE, f"{path}: row with {len(row)} cells under a {len(header)}-column header"
            )
    return header, rows


# --- trial records ---------------------------------------------------------

_RECORD_FIELDS = (
    "optimizer",
    "task",
    "seed",
    "config",
    "objective",
    "direction",
    "update_steps",
    "epochs_run",
    "diverged",
    "schema_version",
)


def trial_to_record(trial: Trial) -> dict:
    return {
        "optimizer": trial.optimizer_id,
        "task": trial.task_id,
        "seed": trial.seed,
        "config": {k: float(v) for k, v in trial.config.items()},
        "objective": None if trial.objective is None else float(trial.objective),
        "direction": trial.direction.value,
        "update_steps": trial.update_steps,
        "epochs_run": trial.epochs_run,
        "diverged": trial.diverged,
        "schema_version": SCHEMA_VERSION,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def record_to_trial(record: dict, where: str) -> Trial:
    """Validate one decoded JSONL record and build the trial.

    Missing fields exit with code 5, anything else malformed with 6.
    """
    if not isinstance(record, dict):
        raise CliError(EXIT_PARSE, f"{where}: record is not a JSON object")
    for name in _RECORD_FIELDS:
        if name not in record:
            raise CliError(EXIT_MISSING_FIELD, f"{where}: missing field {name!r}")
    unknown = set(record) - set(_RECORD_FIELDS)
    if unknown:
        raise CliError(EXIT_PARSE, f"{where}: unknown field {sorted(unknown)[0]!r}")
    if record["schema_version"] != SCHEMA_VERSION:
        raise CliError(
            EXIT_PARSE,
            f"{where}: unsupported schema_version {record['schema_version']!r}",
        )
    if not isinstance(record["optimizer"], str) or not isinstance(record["task"], str):
        raise CliError(EXIT_PARSE, f"{where}: optimizer and task must be strings")
    for name in ("seed", "update_steps", "epochs_run"):
        if not _is_int(record[name]):
            raise CliError(EXIT_PARSE, f"{where}: {name} must be an integer")
    if not isinstance(record["diverged"], bool):
        raise CliError(EXIT_PARSE, f"{where}: diverged must be a boolean")
    config = record["config"]
    if not isinstance(config, dict) or not all(
        isinstance(k, str) and _is_number(v) for k, v in config.items()
    ):
        raise CliError(EXIT_PARSE, f"{where}: config must map names to numbers")
    objective = record["objective"]
    if objective is not None and not _is_number(objective):
        raise CliError(EXIT_PARSE, f"{where}: objective must be a number or null")
    try:
        direction = Direction(record["direction"])
    except ValueError:
        raise CliError(EXIT_PARSE, f"{where}: direction must be 'min' or 'max'")
    try:
        return Trial(
            optimizer_id=record["optimizer"],
            task_id=record["task"],
            seed=record["seed"],
            config={k: float(v) for k, v in config.items()},
            objective=None if objective is None else float(objective),
            direction=direction,
            update_steps=record["update_steps"],
            epochs_run=record["epochs_run"],
            diverged=record["diverged"],
        )
    except ValueError as err:
        raise CliError(EXIT_PARSE, f"{where}: {err}")


def write_trials(path: Path, trials: Sequence[Trial]) -> None:
    with _replacing(path, newline="\n") as fh:
        for trial in trials:
            fh.write(json.dumps(trial_to_record(trial)) + "\n")


def read_trials(path: Path) -> list[Trial]:
    trials = []
    for lineno, line in enumerate(_read_text(path, EXIT_PARSE).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise CliError(EXIT_PARSE, f"{where}: invalid JSON ({err.msg})")
        trials.append(record_to_trial(record, where))
    if not trials:
        raise CliError(EXIT_PARSE, f"{path}: no trial records")
    return trials


def _read_trial_files(paths: Sequence[str]) -> list[Trial]:
    """All records of the given files in order; a file named twice is an error."""
    seen = set()
    trials = []
    for path in paths:
        resolved = Path(path).resolve()
        if resolved in seen:
            raise CliError(EXIT_CONFIG, f"{path}: trial file named twice")
        seen.add(resolved)
        trials.extend(read_trials(Path(path)))
    return trials


def _load_libraries(paths: Sequence[str]) -> dict[tuple[str, str], TrialLibrary]:
    """Group records from all files into one library per (optimizer, task)."""
    grouped: dict[tuple[str, str], list[Trial]] = {}
    for trial in _read_trial_files(paths):
        grouped.setdefault((trial.optimizer_id, trial.task_id), []).append(trial)
    libraries = {}
    for (oid, tid), trials in grouped.items():
        try:
            libraries[(oid, tid)] = TrialLibrary.from_trials(trials)
        except ValueError as err:
            raise CliError(EXIT_PARSE, f"{oid}/{tid}: {err}")
        if all(trial.diverged for trial in trials):
            raise CliError(EXIT_GRID, f"{oid}/{tid}: library has no finished trials")
    return libraries


# --- prior files ------------------------------------------------------------

_DIST_CODECS: dict[type, tuple[str, tuple[str, ...]]] = {
    LogNormal: ("log_normal", ("mu", "sigma")),
    LogUniform10: ("log_uniform10", ("low", "high")),
    Uniform: ("uniform", ("low", "high")),
    OneMinusLogUniform10: ("one_minus_log_uniform10", ("low", "high")),
    Fixed: ("fixed", ("value",)),
}
_DIST_DECODERS = {family: (cls, fields) for cls, (family, fields) in _DIST_CODECS.items()}


def prior_to_json(
    optimizer_id: str,
    retention: float,
    retained_counts: dict[str, int],
    prior: PriorSpec,
) -> str:
    distributions = {}
    for name in prior.names():
        dist = prior.distributions[name]
        family, fields = _DIST_CODECS[type(dist)]
        spec = {"family": family}
        for field in fields:
            spec[field] = float(getattr(dist, field))
        distributions[name] = spec
    payload = {
        "optimizer": optimizer_id,
        "retention": retention,
        "retained": retained_counts,
        "distributions": distributions,
        "schema_version": SCHEMA_VERSION,
    }
    return json.dumps(payload, indent=2) + "\n"


def prior_from_json(text: str, where: str) -> tuple[str, PriorSpec]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise CliError(EXIT_PARSE, f"{where}: invalid JSON ({err.msg})")
    try:
        if payload["schema_version"] != SCHEMA_VERSION:
            raise CliError(EXIT_PARSE, f"{where}: unsupported schema_version")
        distributions: dict[str, Distribution] = {}
        for name, spec in payload["distributions"].items():
            cls, fields = _DIST_DECODERS[spec["family"]]
            distributions[name] = cls(**{f: spec[f] for f in fields})
        return payload["optimizer"], PriorSpec(distributions)
    except (KeyError, TypeError, ValueError) as err:
        raise CliError(EXIT_PARSE, f"{where}: malformed prior file ({err})")


# --- generate ---------------------------------------------------------------

_SEARCH_KEYS = ("optimizers", "tasks", "trials", "seed")


def _split_names(raw: str) -> list[str]:
    return [part for chunk in raw.split(",") for part in chunk.split() if part]


def parse_search_config(text: str, where: str):
    """Read the line-oriented generate configuration.

    Returns (optimizer ids, task ids, trials, seed, task overrides).
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=where)
    except configparser.Error as err:
        raise CliError(EXIT_CONFIG, f"{where}: {err}")
    if "search" not in parser:
        raise CliError(EXIT_CONFIG, f"{where}: missing [search] section")
    search = parser["search"]
    for key in search:
        if key not in _SEARCH_KEYS:
            raise CliError(EXIT_CONFIG, f"{where}: unknown search key {key!r}")
    for key in ("optimizers", "tasks"):
        if key not in search:
            raise CliError(EXIT_CONFIG, f"{where}: [search] must set {key!r}")
    optimizers = _split_names(search["optimizers"])
    tasks = _split_names(search["tasks"])
    if not optimizers or not tasks:
        raise CliError(EXIT_CONFIG, f"{where}: optimizers and tasks must be nonempty")
    for key, names in (("optimizers", optimizers), ("tasks", tasks)):
        twice = [name for i, name in enumerate(names) if name in names[:i]]
        if twice:
            raise CliError(EXIT_CONFIG, f"{where}: {twice[0]!r} named twice in [search] {key}")

    def _int_option(section, key: str, default: int, minimum: int) -> int:
        raw = section.get(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise CliError(EXIT_CONFIG, f"{where}: {key} must be an integer, got {raw!r}")
        if value < minimum:
            raise CliError(EXIT_CONFIG, f"{where}: {key} must be >= {minimum}")
        return value

    trials = _int_option(search, "trials", 100, 1)
    seed = _int_option(search, "seed", 0, 0)

    overrides: dict[str, dict[str, int]] = {}
    for section in parser.sections():
        if section == "search":
            continue
        if not section.startswith("task."):
            raise CliError(EXIT_CONFIG, f"{where}: unknown section [{section}]")
        task_id = section[len("task."):]
        if task_id not in task_ids():
            known = ", ".join(task_ids())
            raise CliError(EXIT_CONFIG, f"{where}: unknown task {task_id!r} (known: {known})")
        allowed = task_parameters(task_id)
        values = {}
        for key in parser[section]:
            if key not in allowed:
                raise CliError(
                    EXIT_CONFIG, f"{where}: unknown key {key!r} in [{section}]"
                )
            values[key] = _int_option(parser[section], key, 0, 0)
        overrides[task_id] = values

    for task_id in tasks:
        if task_id not in task_ids():
            known = ", ".join(task_ids())
            raise CliError(EXIT_CONFIG, f"{where}: unknown task {task_id!r} (known: {known})")
    return optimizers, tasks, trials, seed, overrides


def cmd_generate(args) -> int:
    text = _read_text(args.config, EXIT_CONFIG)
    optimizers, tasks, trials, seed, overrides = parse_search_config(text, args.config)

    specs = []
    for oid in optimizers:
        try:
            specs.append(optimizer_spec(oid))
        except ValueError as err:
            raise CliError(EXIT_CONFIG, str(err))

    priors = {}
    for spec in specs:
        if args.priors is not None:
            prior_path = Path(args.priors) / f"prior_{spec.optimizer_id}.json"
            text = _read_text(
                prior_path, EXIT_PARSE, context=f"no prior file for {spec.optimizer_id!r}: "
            )
            _, priors[spec.optimizer_id] = prior_from_json(text, str(prior_path))
        else:
            priors[spec.optimizer_id] = default_priors(spec.optimizer_id)

    instances = {}
    for tid in tasks:
        try:
            instances[tid] = make_task(tid, **overrides.get(tid, {}))
            check_trainable(instances[tid])
        except (TypeError, ValueError) as err:
            raise CliError(EXIT_CONFIG, f"task {tid!r}: {err}")

    out = Path(args.out)
    for oi, spec in enumerate(specs):
        for ti, tid in enumerate(tasks):
            master = int(np.random.SeedSequence((seed, oi, ti)).generate_state(1)[0])
            try:
                lib = random_search(spec, priors[spec.optimizer_id], instances[tid], trials, master)
            except ValueError as err:
                raise CliError(EXIT_CONFIG, str(err))
            path = out / f"{spec.optimizer_id}__{tid}.jsonl"
            write_trials(path, lib.trials)
            print(path)
    return EXIT_OK


# --- calibrate ---------------------------------------------------------------

def cmd_calibrate(args) -> int:
    grouped: dict[str, list[Trial]] = {}
    for trial in _read_trial_files(args.files):
        grouped.setdefault(trial.optimizer_id, []).append(trial)
    out = Path(args.out)
    for oid, trials in grouped.items():
        try:
            prior = calibrate(trials, retention=args.retention)
            kept = retained_trials(trials, retention=args.retention)
        except ValueError as err:
            raise CliError(EXIT_CALIBRATION, f"{oid}: {err}")
        counts: dict[str, int] = {}
        for trial in kept:
            counts[trial.task_id] = counts.get(trial.task_id, 0) + 1
        path = out / f"prior_{oid}.json"
        with _replacing(path) as fh:
            fh.write(prior_to_json(oid, args.retention, counts, prior))
        print(path)
    return EXIT_OK


# --- analyze -----------------------------------------------------------------

_CURVE_HEADER = ("optimizer", "task", "direction", "budget", "mean", "variance", "q25", "q50", "q75")


def parse_budgets(text: str) -> list[int]:
    """Budget list syntax: comma-separated integers, ``A..B`` for ranges."""
    budgets: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ".." in part:
                lo_text, hi_text = part.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise CliError(EXIT_CONFIG, f"empty budget range {part!r}")
                budgets.extend(range(lo, hi + 1))
            else:
                budgets.append(int(part))
        except ValueError:
            raise CliError(EXIT_CONFIG, f"bad budget {part!r}")
    if not budgets or any(b < 1 for b in budgets):
        raise CliError(EXIT_CONFIG, "budgets must be positive integers")
    return budgets


def _effective_budgets(budgets: Sequence[int], size: int, label: str) -> list[int]:
    """Clamp requested budgets to the library size, warning once per clamp."""
    seen = set()
    out = []
    for budget in budgets:
        if budget > size:
            print(
                f"tunebench: warning: budget {budget} exceeds the {size}-trial "
                f"library for {label}; clamping",
                file=sys.stderr,
            )
            budget = size
        if budget not in seen:
            seen.add(budget)
            out.append(budget)
    return out


def cmd_analyze(args) -> int:
    budgets = None if args.budget is None else parse_budgets(args.budget)
    libraries = _load_libraries(args.files)
    if budgets is None:
        budgets = list(range(1, min(len(lib) for lib in libraries.values()) + 1))
    rows = []
    for (oid, tid), lib in libraries.items():
        effective = _effective_budgets(budgets, len(lib), f"{oid}/{tid}")
        if args.bootstrap is None:
            curve = estimator.exact_budget_curve(lib, effective)
        else:
            curve = estimator.bootstrap_budget_curve(lib, effective, args.bootstrap, args.seed)
        q = curve.quantiles
        rows.extend(
            (oid, tid, lib.direction.value, *cells)
            for cells in zip(
                curve.budgets, curve.mean, curve.variance, q["q25"], q["q50"], q["q75"]
            )
        )
    path = Path(args.out) / "curves.csv"
    _write_csv(path, _CURVE_HEADER, rows)
    print(path)
    return EXIT_OK


# --- summarize ---------------------------------------------------------------

_RELATIVE_HEADER = ("task", "optimizer", "budget", "score", "score_shift")
_TUNABILITY_HEADER = ("task", "optimizer", "scheme", "value")
_ALPHA_HEADER = ("task", "optimizer", "metric", "value", "score_shift")


def _grid(pairs, what: str) -> tuple[list[str], list[str]]:
    """Task and optimizer ids of (optimizer, task) pairs, in first-seen order.

    Every task must have a ``what`` for every optimizer; a gap exits 4.
    """
    optimizers = list(dict.fromkeys(oid for oid, _ in pairs))
    tasks = list(dict.fromkeys(tid for _, tid in pairs))
    for tid in tasks:
        for oid in optimizers:
            if (oid, tid) not in pairs:
                raise CliError(EXIT_GRID, f"task {tid!r} has no {what} for optimizer {oid!r}")
    return tasks, optimizers


def _read_curves(path: Path):
    """Parse an analyze CSV back into per-task mean traces.

    Returns (task order, optimizer order, direction per task, an optimizer x
    budget matrix of means per task over the common budgets 1..T, T).
    """
    header, raw_rows = _read_csv(path)
    if header != _CURVE_HEADER:
        raise CliError(EXIT_PARSE, f"{path}: expected analyze output columns {_CURVE_HEADER}")
    directions: dict[str, Direction] = {}
    points: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for oid, tid, cell, budget, mean, *_ in raw_rows:
        try:
            point = (int(budget), float(mean))
        except ValueError:
            raise CliError(EXIT_PARSE, f"{path}: non-numeric budget or mean")
        try:
            direction = Direction(cell)
        except ValueError:
            raise CliError(EXIT_PARSE, f"{path}: direction must be 'min' or 'max'")
        if directions.setdefault(tid, direction) != direction:
            raise CliError(EXIT_GRID, f"{path}: conflicting directions for task {tid!r}")
        points.setdefault((oid, tid), []).append(point)
    tasks, optimizers = _grid(points, "curve")
    grids = {tuple(b for b, _ in value) for value in points.values()}
    if len(grids) > 1:
        raise CliError(EXIT_GRID, "curves do not share one budget grid")
    (grid,) = grids
    horizon = len(grid)
    if grid != tuple(range(1, horizon + 1)):
        raise CliError(
            EXIT_GRID,
            "trace metrics need contiguous budgets 1..T; rerun analyze with --budget 1..T",
        )
    means = {
        tid: np.array([[m for _, m in points[(oid, tid)]] for oid in optimizers])
        for tid in tasks
    }
    return tasks, optimizers, directions, means, horizon


def cmd_summarize(args) -> int:
    tasks, optimizers, directions, means, horizon = _read_curves(Path(args.curves))
    out = Path(args.out)

    scores: dict[str, np.ndarray] = {}
    shifts: dict[str, float] = {}
    for tid in tasks:
        try:
            scores[tid], shifts[tid] = aggregate.shifted_scores(means[tid], directions[tid])
        except ValueError as err:
            raise CliError(EXIT_GRID, f"task {tid!r}: {err}")

    relative_rows = []
    for tid in tasks:
        ratio = scores[tid] / scores[tid].max(axis=0)
        for i, oid in enumerate(optimizers):
            for k in range(horizon):
                relative_rows.append((tid, oid, k + 1, ratio[i, k], shifts[tid]))
    for k in range(horizon):
        perf = np.column_stack([scores[tid][:, k] for tid in tasks])
        summary = aggregate.relative_summary(perf)
        for i, oid in enumerate(optimizers):
            relative_rows.append(("ALL", oid, k + 1, summary[i], 0.0))
    relative_path = out / "relative.csv"
    _write_csv(relative_path, _RELATIVE_HEADER, relative_rows)

    schemes: list[tuple[str, object]] = [
        ("one_hot_1", aggregate.weights_one_hot(horizon, 1)),
        ("one_hot_final", aggregate.weights_one_hot(horizon, horizon)),
    ]
    if horizon >= 2:
        schemes.append(("cpe", aggregate.weights_cpe(horizon)))
    schemes.append(("cpl", aggregate.weights_cpl(horizon)))
    schemes.append(("cpu", aggregate.weights_cpu(horizon)))
    tunability_rows = []
    for tid in tasks:
        for oid, trace in zip(optimizers, means[tid]):
            for name, scheme in schemes:
                tunability_rows.append((tid, oid, name, aggregate.omega_tunability(trace, scheme)))
    tunability_path = out / "tunability.csv"
    _write_csv(tunability_path, _TUNABILITY_HEADER, tunability_rows)

    alpha_rows = []
    for tid in tasks:
        direction = directions[tid]
        for oid, trace in zip(optimizers, means[tid]):
            try:
                _, shift = aggregate.shifted_scores(trace, direction)
                for alpha in (0.90, 0.95, 0.99):
                    zeta = aggregate.alpha_tunability(trace, alpha, direction)
                    alpha_rows.append((tid, oid, f"zeta_{alpha:.2f}", zeta, shift))
                delta = aggregate.sharpness(trace, direction)
                alpha_rows.append((tid, oid, "sharpness", delta, shift))
            except ValueError as err:
                raise CliError(EXIT_GRID, f"{tid}/{oid}: {err}")
    alpha_path = out / "alpha.csv"
    _write_csv(alpha_path, _ALPHA_HEADER, alpha_rows)

    print(relative_path)
    print(tunability_path)
    print(alpha_path)
    return EXIT_OK


# --- prob-best ---------------------------------------------------------------

_PROB_HEADER = ("task", "budget", "optimizer", "probability", "with_replacement")


def cmd_prob_best(args) -> int:
    budgets = None if args.budget is None else parse_budgets(args.budget)
    libraries = _load_libraries(args.files)
    tasks, optimizers = _grid(libraries, "library")
    if len(optimizers) < 2:
        raise CliError(EXIT_GRID, "prob-best needs libraries for at least two optimizers")
    if budgets is None:
        smallest = min(len(lib) for lib in libraries.values())
        budgets = []
        b = 1
        while b <= smallest:
            budgets.append(b)
            b *= 2

    rows = []
    probs = {}
    for tid in tasks:
        libs = [libraries[(oid, tid)] for oid in optimizers]
        try:
            probs[tid] = aggregate.probability_of_best(libs, budgets, args.repetitions, args.seed)
        except ValueError as err:
            raise CliError(EXIT_GRID, f"task {tid!r}: {err}")
        for budget, row in zip(budgets, probs[tid]):
            rows.extend(
                (tid, budget, oid, prob, aggregate.sampling_replacement(budget, len(lib)))
                for oid, lib, prob in zip(optimizers, libs, row)
            )
    if len(tasks) > 1:
        # the mean over tasks, summed in task order
        overall = sum(probs.values()) / len(tasks)
        for budget, row in zip(budgets, overall):
            rows.extend(("ALL", budget, oid, prob, "") for oid, prob in zip(optimizers, row))

    path = Path(args.out) / "prob_best.csv"
    _write_csv(path, _PROB_HEADER, rows)
    print(path)
    return EXIT_OK


# --- time-curve --------------------------------------------------------------

_TIME_HEADER = ("task", "interval", "steps", "optimizer", "mean", "q25", "q75")


def cmd_time_curve(args) -> int:
    libraries = _load_libraries(args.files)
    tasks, optimizers = _grid(libraries, "library")
    rows = []
    for tid in tasks:
        libs = [libraries[(oid, tid)] for oid in optimizers]
        try:
            result = time_budget_curve(
                libs, intervals=args.intervals, repetitions=args.repetitions, rng_seed=args.seed
            )
        except ValueError as err:
            raise CliError(EXIT_GRID, f"task {tid!r}: {err}")
        for oid in optimizers:
            curve = result.curves[oid]
            for k in range(args.intervals):
                rows.append(
                    (
                        tid,
                        k + 1,
                        result.boundaries[k],
                        oid,
                        curve.mean[k],
                        curve.quantiles["q25"][k],
                        curve.quantiles["q75"][k],
                    )
                )
    path = Path(args.out) / "time_curve.csv"
    _write_csv(path, _TIME_HEADER, rows)
    print(path)
    return EXIT_OK


# --- plot --------------------------------------------------------------------

_PALETTE = (
    "#4269d0",
    "#efb118",
    "#ff725c",
    "#6cc5b0",
    "#3ca951",
    "#ff8ab7",
    "#a463f2",
    "#97bbf5",
    "#9c6b4e",
    "#9498a0",
)

_SVG_W, _SVG_H = 720, 440
_PLOT = (64.0, 30.0, 696.0, 392.0)  # left, top, right, bottom


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + i * (hi - lo) / 4.0 for i in range(5)]


def _svg_chart(
    title: str,
    xlabel: str,
    ylabel: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    stacked: bool = False,
) -> str:
    left, top, right, bottom = _PLOT
    xs_all = [x for _, xs, _ in series for x in xs]
    xlo, xhi = min(xs_all), max(xs_all)
    if xlo == xhi:
        pad = max(abs(xlo) * 0.05, 0.5)
        xlo, xhi = xlo - pad, xhi + pad
    if stacked:
        ylo, yhi = 0.0, 1.0
    else:
        ys_all = [y for _, _, ys in series for y in ys]
        ylo, yhi = min(ys_all), max(ys_all)
        if ylo == yhi:
            pad = max(abs(ylo) * 0.05, 0.5)
            ylo, yhi = ylo - pad, yhi + pad
        else:
            pad = 0.05 * (yhi - ylo)
            ylo, yhi = ylo - pad, yhi + pad

    def px(x: float) -> float:
        return left + (x - xlo) / (xhi - xlo) * (right - left)

    def py(y: float) -> float:
        return bottom - (y - ylo) / (yhi - ylo) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
        f'<text x="{(left + right) / 2:.2f}" y="18" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    for tx in _ticks(xlo, xhi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{bottom:.2f}" x2="{px(tx):.2f}" '
            f'y2="{bottom + 5:.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{bottom + 18:.2f}" text-anchor="middle">'
            f"{tx:.4g}</text>"
        )
    for ty in _ticks(ylo, yhi):
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{py(ty):.2f}" x2="{left:.2f}" '
            f'y2="{py(ty):.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{py(ty) + 4:.2f}" text-anchor="end">'
            f"{ty:.4g}</text>"
        )
        parts.append(
            f'<line x1="{left:.2f}" y1="{py(ty):.2f}" x2="{right:.2f}" '
            f'y2="{py(ty):.2f}" stroke="#eeeeee"/>'
        )

    if stacked:
        base = [0.0] * len(series[0][1])
        xs = list(series[0][1])
        for i, (_, _, ys) in enumerate(series):
            tops = [b + y for b, y in zip(base, ys)]
            forward = " ".join(f"{px(x):.2f},{py(t):.2f}" for x, t in zip(xs, tops))
            backward = " ".join(
                f"{px(x):.2f},{py(b):.2f}" for x, b in zip(reversed(xs), reversed(base))
            )
            color = _PALETTE[i % len(_PALETTE)]
            parts.append(
                f'<polygon points="{forward} {backward}" fill="{color}" '
                'fill-opacity="0.85" stroke="none"/>'
            )
            base = tops
    else:
        for i, (_, xs, ys) in enumerate(series):
            color = _PALETTE[i % len(_PALETTE)]
            points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
            for x, y in zip(xs, ys):
                parts.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2" fill="{color}"/>'
                )

    parts.append(
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{bottom:.2f}" '
        'stroke="#333333"/>'
    )
    parts.append(
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" y2="{bottom:.2f}" '
        'stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{_SVG_H - 8}" text-anchor="middle">'
        f"{xlabel}</text>"
    )
    parts.append(
        f'<text x="14" y="{(top + bottom) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(top + bottom) / 2:.2f})">{ylabel}</text>'
    )
    for i, (name, _, _) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        ly = top + 8 + 16 * i
        parts.append(
            f'<rect x="{right - 150:.2f}" y="{ly - 9:.2f}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(f'<text x="{right - 136:.2f}" y="{ly:.2f}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _plot_grouped(
    rows: list[list[str]],
    task_col: int,
    x_col: int,
    series_col: int,
    y_col: int,
) -> dict[str, list[tuple[str, list[float], list[float]]]]:
    """Arrange CSV rows into per-task series keyed by the series column."""
    charts: dict[str, dict[str, tuple[list[float], list[float]]]] = {}
    for row in rows:
        tid, name = row[task_col], row[series_col]
        try:
            x = float(row[x_col])
            y = float(row[y_col])
        except ValueError:
            raise CliError(EXIT_PARSE, f"non-numeric value in row {row}")
        xs, ys = charts.setdefault(tid, {}).setdefault(name, ([], []))
        xs.append(x)
        ys.append(y)
    return {
        tid: [(name, xs, ys) for name, (xs, ys) in groups.items()]
        for tid, groups in charts.items()
    }


# CSV header -> (task, x, series and y columns), title, x label, y label, stacked
_PLOTS = {
    _CURVE_HEADER: (
        ("task", "budget", "optimizer", "mean"),
        "expected best vs budget", "budget", "objective", False,
    ),
    _PROB_HEADER: (
        ("task", "budget", "optimizer", "probability"),
        "probability of best", "budget", "probability", True,
    ),
    _TIME_HEADER: (
        ("task", "steps", "optimizer", "mean"),
        "incumbent vs update steps", "update steps", "objective", False,
    ),
    _RELATIVE_HEADER: (
        ("task", "budget", "optimizer", "score"),
        "relative score vs budget", "budget", "relative score", False,
    ),
}


def cmd_plot(args) -> int:
    out = Path(args.out)
    written = []
    for raw in args.files:
        path = Path(raw)
        header, rows = _read_csv(path)
        if header not in _PLOTS:
            raise CliError(EXIT_PARSE, f"{path}: unrecognized CSV header")
        columns, title, xlabel, ylabel, stacked = _PLOTS[header]
        charts = _plot_grouped(rows, *(header.index(name) for name in columns))
        for tid, series in charts.items():
            svg = _svg_chart(f"{title} ({tid})", xlabel, ylabel, series, stacked=stacked)
            target = out / f"{path.stem}_{tid}.svg"
            with _replacing(target) as fh:
                fh.write(svg)
            written.append(target)
    for target in written:
        print(target)
    return EXIT_OK


# --- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunebench",
        description="Random-search benchmarking of optimizer tunability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser(
        "generate",
        help="run random search over a config's optimizer/task grid",
        description=(
            "Reads a key=value config with a [search] section (optimizers, tasks, "
            "trials, seed) and optional [task.<id>] override sections, then writes "
            "one <optimizer>__<task>.jsonl trial file per pair."
        ),
    )
    g.add_argument("config", help="path to the search config file")
    g.add_argument("--out", default=".", help="output directory (default: .)")
    g.add_argument(
        "--priors",
        default=None,
        help="directory of prior_<optimizer>.json files to sample from "
        "(default: stock priors)",
    )
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser(
        "calibrate",
        help="refit priors from near-best trials",
        description=(
            "Pools each optimizer's retained trials across tasks and refits its "
            "prior; writes prior_<optimizer>.json per optimizer."
        ),
    )
    c.add_argument("files", nargs="+", help="trial JSONL files")
    c.add_argument("--retention", type=float, default=0.2, help="relative retention window (default: 0.2)")
    c.add_argument("--out", default=".", help="output directory (default: .)")
    c.set_defaults(func=cmd_calibrate)

    a = sub.add_parser(
        "analyze",
        help="expected-best-at-budget curves from trial libraries",
        description=(
            "Writes curves.csv with columns optimizer,task,direction,budget,mean,"
            "variance,q25,q50,q75. Budgets beyond a library's size are clamped "
            "with a warning."
        ),
    )
    a.add_argument("files", nargs="+", help="trial JSONL files")
    a.add_argument(
        "--budget",
        default=None,
        help="budgets, e.g. '1,4,16' or '1..100' (default: 1..smallest library)",
    )
    a.add_argument(
        "--bootstrap",
        type=int,
        default=None,
        metavar="R",
        help="Monte-Carlo estimator with R simulated searches (default: exact)",
    )
    a.add_argument("--seed", type=int, default=0, help="bootstrap stream seed (default: 0)")
    a.add_argument("--out", default=".", help="output directory (default: .)")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser(
        "summarize",
        help="tunability tables from an analyze CSV",
        description=(
            "Reads curves.csv (contiguous budgets 1..T required) and writes "
            "relative.csv (task,optimizer,budget,score,score_shift; task=ALL rows "
            "average across tasks), tunability.csv (task,optimizer,scheme,value) "
            "and alpha.csv (task,optimizer,metric,value,score_shift)."
        ),
    )
    s.add_argument("curves", help="curves.csv from the analyze command")
    s.add_argument("--out", default=".", help="output directory (default: .)")
    s.set_defaults(func=cmd_summarize)

    pb = sub.add_parser(
        "prob-best",
        help="Monte-Carlo probability each optimizer wins at a budget",
        description=(
            "Writes prob_best.csv with columns task,budget,optimizer,probability,"
            "with_replacement; a task=ALL block averages across tasks."
        ),
    )
    pb.add_argument("files", nargs="+", help="trial JSONL files (>= 2 optimizers)")
    pb.add_argument(
        "--budget",
        default=None,
        help="budgets, e.g. '1,4,16' (default: powers of two up to the smallest library)",
    )
    pb.add_argument("--repetitions", type=int, default=1000, help="Monte-Carlo repetitions (default: 1000)")
    pb.add_argument("--seed", type=int, default=0, help="stream seed (default: 0)")
    pb.add_argument("--out", default=".", help="output directory (default: .)")
    pb.set_defaults(func=cmd_prob_best)

    tc = sub.add_parser(
        "time-curve",
        help="incumbent-vs-update-steps curves on a shared step budget",
        description=(
            "Writes time_curve.csv with columns task,interval,steps,optimizer,"
            "mean,q25,q75 over equal step intervals; requires update_steps on "
            "every record."
        ),
    )
    tc.add_argument("files", nargs="+", help="trial JSONL files")
    tc.add_argument("--intervals", type=int, default=100, help="interval count (default: 100)")
    tc.add_argument("--repetitions", type=int, default=1000, help="simulated searches per optimizer (default: 1000)")
    tc.add_argument("--seed", type=int, default=0, help="stream seed (default: 0)")
    tc.add_argument("--out", default=".", help="output directory (default: .)")
    tc.set_defaults(func=cmd_time_curve)

    pl = sub.add_parser(
        "plot",
        help="render command CSVs as self-contained SVG charts",
        description=(
            "Accepts any CSV written by analyze, summarize, prob-best or "
            "time-curve and writes one <stem>_<task>.svg per task."
        ),
    )
    pl.add_argument("files", nargs="+", help="CSV files from the other commands")
    pl.add_argument("--out", default=".", help="output directory (default: .)")
    pl.set_defaults(func=cmd_plot)

    return parser


def _check_flags(args) -> None:
    """Reject an out-of-range numeric flag (exit 2) before any file is read."""
    for name, least in (("seed", 0), ("bootstrap", 1), ("repetitions", 1), ("intervals", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise CliError(EXIT_CONFIG, f"--{name} must be >= {least}, got {value}")
    if not 0.0 < getattr(args, "retention", 1.0) < math.inf:
        raise CliError(EXIT_CONFIG, f"--retention must be positive and finite, got {args.retention}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        _check_flags(args)
        return args.func(args)
    except CliError as err:
        print(f"tunebench: error: {err}", file=sys.stderr)
        return err.code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
