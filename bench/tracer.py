"""Traced in-process run of CLI commands, and per-layer metrics from its spans.

As a script this runs in a child process with the program's `src` on
PYTHONPATH:

    python3 bench/tracer.py SPEC.json

SPEC is a JSON object with `commands` (a list of [label, argv] pairs, run
through `tunebench.cli.main(argv)` in the current directory) and `out` (the
file the spans and counts are written to when the run ends).  The commands
run three times in one process: untraced, traced (with wrappers around the
public functions of each module), and untraced again.  The traced wall time
minus the mean of the two untraced ones is the tracing overhead; taking the
untraced passes on both sides cancels warm-up and slow drift of the
machine's speed.

A wrapper records one span per call: name, start, end, the span that was
open when it was called (its parent) and the command it belongs to.  Spans
stay in memory until the run ends.  Functions that other modules bind with
`from ... import` are wrapped in every module that holds them, so
`substream` is traced wherever it is called from.

`derive()` turns the written file into per-layer metrics; `run.py`
imports it without importing tunebench.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from checks import file_digest

MODULES = ("core", "tasks", "optim", "priors", "hpo", "estimator", "aggregate", "cli")
TASKS = ("quadratic", "logreg", "mlp")
_TASK_CLASSES = {"QuadraticTask": "quadratic", "LogRegTask": "logreg", "MlpTask": "mlp"}
_IO_SPANS = ("cli.read_trials", "cli.write_trials", "cli._read_csv", "cli._write_csv")


def _count_trial(counts: Counter, args, outcome) -> None:
    counts["hpo.trials"] += 1
    counts["hpo.update_steps"] += outcome.update_steps
    if outcome.diverged:
        counts["hpo.diverged_trials"] += 1
        counts["hpo.diverged_steps"] += outcome.update_steps


def _count_read(counts: Counter, args, trials) -> None:
    counts["cli.records_read"] += len(trials)


def _count_write(counts: Counter, args, result) -> None:
    counts["cli.records_written"] += len(args[1])


# (module, attribute path, span name, observer).  The span name of
# train_trial carries the task, read from its third argument.
TARGETS = [
    ("core", "substream", "core.substream", None),
    *[
        ("tasks", f"{cls}.{method}", f"tasks.{task}.{short}", None)
        for cls, task in _TASK_CLASSES.items()
        for method, short in (("batch_loss_grad", "grad"), ("validation_loss", "val"))
    ],
    *[("optim", f"{rule}_step", f"optim.{rule}_step", None) for rule in ("sgd", "adam", "adagrad")],
    ("priors", "PriorSpec.sample", "priors.sample", None),
    ("priors", "calibrate", "priors.calibrate", None),
    ("priors", "retained_trials", "priors.retained_trials", None),
    ("hpo", "train_trial", lambda args: f"hpo.{args[2].task_id}.trial", _count_trial),
    ("hpo", "random_search", "hpo.random_search", None),
    ("hpo", "time_budget_curve", "hpo.time_budget_curve", None),
    *[
        ("estimator", name, f"estimator.{name}", None)
        for name in (
            "best_at_distribution", "exact_budget_curve", "bootstrap_runs",
            "expected_best_at", "variance_best_at", "empirical_cdf",
        )
    ],
    *[
        ("estimator", f"EmpiricalCdf.{name}", f"estimator.EmpiricalCdf.{name}", None)
        for name in ("mean", "variance", "quantile")
    ],
    *[
        ("aggregate", name, f"aggregate.{name}", None)
        for name in (
            "probability_of_best", "relative_summary", "weights_one_hot", "weights_cpe",
            "weights_cpl", "weights_cpu", "omega_tunability", "shifted_scores",
            "alpha_tunability", "sharpness", "sampling_replacement",
        )
    ],
    ("cli", "main", "cli.main", None),
    ("cli", "read_trials", "cli.read_trials", _count_read),
    ("cli", "write_trials", "cli.write_trials", _count_write),
    ("cli", "_read_csv", "cli._read_csv", None),
    ("cli", "_write_csv", "cli._write_csv", None),
    ("cli", "_svg_chart", "cli._svg_chart", None),
]


class Recorder:
    """Spans and counts of one traced run, kept in parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.command: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.counts: Counter = Counter()
        self.current_command = -1
        self._open = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, observe=None):
        fixed = None if callable(name) else self._id(name)
        clock = time.perf_counter_ns
        spans, parents, commands = self.name, self.parent, self.command
        starts, ends, stack = self.start, self.end, self._open

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(fixed if fixed is not None else self._id(name(args)))
            parents.append(stack[-1])
            commands.append(self.current_command)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def install(self) -> tuple[list[str], list[tuple[object, str, object]]]:
        """Wrap every target in every tunebench module that binds it.

        Returns the targets the program no longer has, and the replaced
        bindings as (owner, attribute, original) for `restore`.
        """
        import importlib

        modules = [importlib.import_module(f"tunebench.{m}") for m in MODULES]
        missing, replaced = [], []
        for module_name, path, name, observe in TARGETS:
            owner = importlib.import_module(f"tunebench.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(original, name, observe)
            bindings = [(owner, attr)] if owner_path else [
                (module, key) for module in modules
                for key, value in vars(module).items() if value is original
            ]
            for holder, key in bindings:
                setattr(holder, key, wrapped)
                replaced.append((holder, key, original))
        return missing, replaced


def restore(replaced: list[tuple[object, str, object]]) -> None:
    for holder, key, original in reversed(replaced):
        setattr(holder, key, original)


def wrapper_cost_ns(calls: int = 100_000) -> float:
    """Cost of one wrapper around an empty function, best of five."""

    def empty():
        return None

    traced = Recorder().wrap(empty, "empty")
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def _run(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # a traceback is a failed command, not a crash of the run
            traceback.print_exc()
            code = 1
    wall = time.perf_counter_ns() - t0
    paths = [line for line in out.getvalue().splitlines() if line]
    stderr = err.getvalue()
    return {
        "wall_ns": wall,
        "code": code,
        "traceback": "Traceback (most recent call last)" in stderr,
        "clamp_warnings": stderr.count("warning: budget"),
        "outputs": {p: file_digest(p) for p in paths},
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import tunebench.cli as cli

    before = [_run(cli.main, argv) for _, argv in spec["commands"]]
    recorder = Recorder()
    missing, replaced = recorder.install()
    traced = []
    for index, (_, argv) in enumerate(spec["commands"]):
        recorder.current_command = index
        traced.append(_run(cli.main, argv))
    restore(replaced)
    after = [_run(cli.main, argv) for _, argv in spec["commands"]]
    result = {
        "commands": [
            {"label": label, "untraced": [b, a], "traced": t}
            for (label, _), b, a, t in zip(spec["commands"], before, after, traced)
        ],
        "missing_targets": missing,
        "wrapper_ns": wrapper_cost_ns(),
        "names": recorder.names,
        "spans": {
            "name": recorder.name,
            "parent": recorder.parent,
            "command": recorder.command,
            "start": recorder.start,
            "end": recorder.end,
        },
        "counts": dict(recorder.counts),
    }
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


# --- per-layer metrics ----------------------------------------------------------


def derive(trace: dict, startup_ms: float) -> dict[str, float | None]:
    """Per-layer metrics from a written trace; None marks an idle layer.

    A layer's busy time sums its outermost spans (those with no ancestor in
    the same module); its self time sums span durations minus the time their
    direct children cover.
    """
    names = trace["names"]
    spans = trace["spans"]
    labels = [c["label"] for c in trace["commands"]]
    module_of = [MODULES.index(n.split(".")[0]) for n in names]
    count = len(spans["name"])
    duration = [e - s for s, e in zip(spans["start"], spans["end"])]
    child_time = [0] * count
    ancestors = [0] * count  # bitmask of modules on the path above each span
    calls = [0] * len(names)
    total = [0] * len(names)
    busy = [0] * len(MODULES)
    self_time = [0] * len(MODULES)
    busy_by_command: Counter = Counter()
    for i in range(count):
        name, parent = spans["name"][i], spans["parent"][i]
        module = module_of[name]
        if parent >= 0:
            child_time[parent] += duration[i]
            ancestors[i] = ancestors[parent] | (1 << module_of[spans["name"][parent]])
        calls[name] += 1
        total[name] += duration[i]
        if not ancestors[i] & (1 << module):
            busy[module] += duration[i]
            busy_by_command[(labels[spans["command"][i]], module)] += duration[i]
    for i in range(count):
        self_time[module_of[spans["name"][i]]] += duration[i] - child_time[i]

    index = {n: k for k, n in enumerate(names)}

    def n_calls(name: str) -> int:
        return calls[index[name]] if name in index else 0

    def ms(name: str) -> float | None:
        return total[index[name]] / 1e6 if n_calls(name) else None

    def us_per_call(name: str) -> float | None:
        return total[index[name]] / n_calls(name) / 1e3 if n_calls(name) else None

    def share(part: float, whole: float) -> float | None:
        return part / whole if whole else None

    def per_record(names_: tuple[str, ...], records: int) -> float | None:
        spent = sum(total[index[n]] for n in names_ if n in index)
        return spent / records / 1e3 if records else None

    def command_busy(label: str, module: str) -> float | None:
        if label not in labels:
            return None
        return busy_by_command[(label, MODULES.index(module))] / 1e6

    counts = trace["counts"]
    steps = counts.get("hpo.update_steps", 0)
    untraced = sum(u["wall_ns"] for c in trace["commands"] for u in c["untraced"]) / 2e6
    traced = sum(c["traced"]["wall_ns"] for c in trace["commands"]) / 1e6
    io_spent = sum(total[index[n]] for n in _IO_SPANS if n in index)
    metrics: dict[str, float | None] = {
        "core.substream_us": us_per_call("core.substream"),
        "core.substream_calls": n_calls("core.substream"),
    }
    for task in TASKS:
        metrics[f"tasks.{task}.grad_us"] = us_per_call(f"tasks.{task}.grad")
        metrics[f"tasks.{task}.val_us"] = us_per_call(f"tasks.{task}.val")
    metrics["tasks.grad_calls"] = sum(n_calls(f"tasks.{t}.grad") for t in TASKS)
    for rule in ("sgd", "adam", "adagrad"):
        metrics[f"optim.{rule}_step_us"] = us_per_call(f"optim.{rule}_step")
    metrics["optim.step_calls"] = sum(n_calls(f"optim.{r}_step") for r in ("sgd", "adam", "adagrad"))
    metrics["priors.sample_us"] = us_per_call("priors.sample")
    metrics["priors.calibrate_ms"] = ms("priors.calibrate")
    for task in TASKS:
        trial_us = us_per_call(f"hpo.{task}.trial")
        metrics[f"hpo.{task}.trial_ms"] = None if trial_us is None else trial_us / 1e3
    metrics["hpo.update_steps"] = steps if counts.get("hpo.trials") else None
    metrics["hpo.diverged_trial_share"] = share(counts.get("hpo.diverged_trials", 0), counts.get("hpo.trials", 0))
    metrics["hpo.diverged_step_share"] = share(counts.get("hpo.diverged_steps", 0), steps)
    metrics["hpo.time_budget_curve_ms"] = ms("hpo.time_budget_curve")
    metrics["estimator.exact_curve_ms"] = command_busy("analyze", "estimator")
    metrics["estimator.best_at_calls"] = n_calls("estimator.best_at_distribution")
    metrics["estimator.bootstrap_ms"] = ms("estimator.bootstrap_runs")
    metrics["aggregate.prob_best_ms"] = ms("aggregate.probability_of_best")
    metrics["aggregate.summary_ms"] = command_busy("summarize", "aggregate")
    metrics["cli.read_us_per_record"] = per_record(("cli.read_trials",), counts.get("cli.records_read", 0))
    metrics["cli.write_us_per_record"] = per_record(("cli.write_trials",), counts.get("cli.records_written", 0))
    metrics["cli.csv_write_ms"] = ms("cli._write_csv")
    metrics["cli.svg_ms"] = ms("cli._svg_chart")
    metrics["cli.io_ms"] = io_spent / 1e6
    metrics["cli.startup_ms"] = startup_ms
    metrics["cli.clamp_warnings"] = sum(c["traced"]["clamp_warnings"] for c in trace["commands"])
    for k, module in enumerate(MODULES):
        metrics[f"{module}.busy_ms"] = busy[k] / 1e6 if busy[k] else None
        metrics[f"{module}.self_ms"] = self_time[k] / 1e6 if busy[k] else None
    metrics["trace.wrapper_us"] = trace["wrapper_ns"] / 1e3
    metrics["trace.untraced_ms"] = untraced
    metrics["trace.traced_ms"] = traced
    metrics["trace.overhead_ms"] = traced - untraced
    metrics["trace.wrapper_total_ms"] = count * trace["wrapper_ns"] / 1e6
    metrics["trace.spans"] = count
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
