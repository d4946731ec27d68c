"""Output checks made from outside the program.

Each function reads files the CLI wrote and returns a list of problems (an
empty list means the check passed).  No check pins a digest: numeric
changes that a later change declares must not read as failures, so the
checks test properties that every correct output has.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

RECORD_FIELDS = {
    "optimizer", "task", "seed", "config", "objective", "direction",
    "update_steps", "epochs_run", "diverged", "schema_version",
}

# Slack for sums and running extrema of doubles: one part in 1e12.
REL_TOL = 1e-12


def file_digest(path) -> str:
    """sha256 of one output file, or "missing"."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return "missing"


def _rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def generated_records(out: Path, optimizers, tasks, trials: int) -> tuple[list[str], int]:
    """`generate` wrote one parseable file per pair with `trials` records.

    Returns the problems and the update steps the records add up to.
    """
    problems = []
    steps = 0
    expected = {f"{o}__{t}.jsonl" for o in optimizers for t in tasks}
    found = {p.name for p in out.glob("*.jsonl")}
    if found != expected:
        problems.append(f"generate wrote {sorted(found ^ expected)} unexpectedly")
    for name in sorted(expected & found):
        try:
            records = read_records(out / name)
        except (OSError, json.JSONDecodeError) as err:
            problems.append(f"{name}: {err}")
            continue
        if len(records) != trials:
            problems.append(f"{name}: {len(records)} records, expected {trials}")
        optimizer, task = name[: -len(".jsonl")].split("__")
        for r in records:
            if set(r) != RECORD_FIELDS or (r["optimizer"], r["task"]) != (optimizer, task):
                problems.append(f"{name}: malformed record {r}")
                break
            if (r["objective"] is None) != r["diverged"] or r["update_steps"] < 0:
                problems.append(f"{name}: inconsistent record {r}")
                break
            steps += r["update_steps"]
    return problems, steps


def _analysis_objectives(records: list[dict]) -> tuple[np.ndarray, bool]:
    maximize = records[0]["direction"] == "max"
    finished = [r["objective"] for r in records if not r["diverged"]]
    worst = min(finished) if maximize else max(finished)
    sentinel = float(np.nextafter(worst, -np.inf if maximize else np.inf))
    values = [sentinel if r["diverged"] else r["objective"] for r in records]
    return np.array(values, dtype=float), maximize


def expected_best(values: np.ndarray, budget: int, maximize: bool) -> float:
    """Mean of the best of `budget` draws with replacement: P(best <= y) = F(y)**S."""
    signed = values if maximize else -values
    support, counts = np.unique(signed, return_counts=True)
    cdf = np.cumsum(counts) / signed.size
    mean = float(support @ np.diff(cdf**budget, prepend=0.0))
    return mean if maximize else -mean


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def exact_curves(curves: Path, libraries: dict[tuple[str, str], list[dict]]) -> list[str]:
    """Re-derive a few (library, budget) cells of curves.csv from the records."""
    _, rows = _rows(curves)
    by_pair: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
    for row in rows:
        by_pair[(row["optimizer"], row["task"])][int(row["budget"])] = float(row["mean"])
    pairs = sorted(libraries)
    picked = {pairs[0], pairs[len(pairs) // 2], pairs[-1]}
    problems = []
    for pair in sorted(picked):
        cells = by_pair.get(pair)
        if not cells:
            problems.append(f"{curves}: no rows for {pair}")
            continue
        values, maximize = _analysis_objectives(libraries[pair])
        top = max(cells)
        for budget in sorted({1, (top + 1) // 2, top}):
            want = expected_best(values, budget, maximize)
            got = cells.get(budget)
            if got is None or not _close(got, want):
                problems.append(f"{curves}: {pair} budget {budget} mean {got}, expected {want}")
    return problems


def monotone(path: Path, group: tuple[str, ...], step: str, directions: dict[str, str]) -> list[str]:
    """Means never get worse as the budget column grows, within REL_TOL."""
    _, rows = _rows(path)
    series: dict[tuple[str, ...], list[tuple[float, float]]] = defaultdict(list)
    for row in rows:
        series[tuple(row[g] for g in group)].append((float(row[step]), float(row["mean"])))
    problems = []
    for key, points in series.items():
        task = key[group.index("task")]
        sign = 1.0 if directions[task] == "max" else -1.0
        points.sort()
        for (b0, m0), (b1, m1) in zip(points, points[1:]):
            if sign * (m1 - m0) < -REL_TOL * max(abs(m0), abs(m1)):
                problems.append(f"{path}: {key} mean worsens from {step} {b0:g} to {b1:g}")
                break
    return problems


def probabilities_sum_to_one(path: Path) -> list[str]:
    _, rows = _rows(path)
    sums: dict[tuple[str, str], float] = defaultdict(float)
    for row in rows:
        sums[(row["task"], row["budget"])] += float(row["probability"])
    return [
        f"{path}: probabilities for {key} sum to {total!r}"
        for key, total in sums.items()
        if not abs(total - 1.0) <= REL_TOL
    ]


def _nonfinite(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:  # a label such as an optimizer id
        return False


def tables_parse(paths) -> list[str]:
    """Every CSV has a header and finite rows; every SVG and prior file is well formed."""
    problems = []
    for path in map(Path, paths):
        try:
            if path.suffix == ".csv":
                header, rows = _rows(path)
                ragged = any(None in row or None in row.values() for row in rows)
                if not header or not rows or ragged:
                    problems.append(f"{path}: malformed table")
                elif any(_nonfinite(cell) for row in rows for cell in row.values()):
                    problems.append(f"{path}: nonfinite cell")
            elif path.suffix == ".svg":
                text = path.read_text(encoding="utf-8")
                if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
                    problems.append(f"{path}: not an SVG document")
            elif path.suffix == ".json":
                json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            problems.append(f"{path}: {err}")
    return problems


def priors_cover(paths, hyperparameters: dict[str, set[str]]) -> list[str]:
    """Each calibrated prior names exactly its optimizer's hyperparameters."""
    problems = []
    for path in map(Path, paths):
        payload = json.loads(path.read_text(encoding="utf-8"))
        names = set(payload.get("distributions", {}))
        if names != hyperparameters.get(payload.get("optimizer"), set()):
            problems.append(f"{path}: prior names {sorted(names)}")
    return problems
