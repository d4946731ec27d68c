"""Benchmark of the tunebench CLI pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: this process runs CLI
commands as child processes, one at a time, and starts the next only when
the previous one has ended.  The workload's command chain is repeated for
--seconds seconds.  Set-up (a cold import of the program plus the
workload's inputs, made from --seed) is repeated before the first
repetition and after each one, and its median reported as setup_s.  Every
output is checked from outside the program and must be byte-identical
across the repetitions of one invocation.  The last line of standard
output is one JSON object with the gated metrics; the full report goes to
the lines above it and to .bench_work/results/.

With --trace 1 the chain instead runs untraced, traced and untraced again
inside one child process (bench/tracer.py), and the per-layer metrics are
derived from the recorded spans.  See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import synth
import tracer

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# Set-ups made before the first repetition of the chain and again after each
# one, so that their median covers the same stretch of time as the chain's:
# on a shared machine the speed can flip between states every few seconds.
SETUP_BATCH = 2
# The smallest count the repository's CLI tests pass to --bootstrap.  At 20 the
# per-repetition work (one generator per repetition and budget, plus the draws)
# is about half of bootstrap_s on both analysis workloads; at 5 it was a fifth
# to a quarter (bench/README.md, "Bootstrap count").
BOOTSTRAP_R = "20"
# Runs the CLI as `python -m tunebench.cli` does, then writes the process's
# peak RSS (VmHWM) to stderr at exit.  The ru_maxrss that wait4 returns would
# not do: at exec a child keeps the peak RSS of the process that started it.
PEAK_RSS_MARK = "bench-peak-rss-kb"
CLI_RUNNER = f"""
import atexit, runpy, sys

def peak_rss():
    with open("/proc/self/status") as status:
        kb = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    sys.stderr.write("{PEAK_RSS_MARK} " + kb[0] + "\\n")

atexit.register(peak_rss)
runpy.run_module("tunebench.cli", run_name="__main__", alter_sys=True)
"""
# Run in a fresh interpreter: prints how long the import of the program took.
IMPORT_PROBE = "import time; t = time.perf_counter(); import tunebench.cli; print(time.perf_counter() - t)"
# A fixed computation that is the benchmark's, not the program's, timed in a
# fresh interpreter after every set-up.  It does the kinds of work the
# commands do: start-up and the numpy import, seeded generators, small array
# updates in a Python loop, JSON records and large sorts.  A shared machine's
# speed drifts by tens of percent over minutes, the probe drifts with it, and
# timed metrics are scaled by REFERENCE_S / (probe time) to take that out.
REFERENCE_PROBE = """
import json
import numpy as np
total = 0.0
for i in range(1500):
    x = np.random.default_rng(np.random.SeedSequence([7, i])).standard_normal(16)
    for _ in range(4):
        x = x - 0.1 * np.tanh(x) * x.mean()
    total += float(x @ x)
rows = [{"trial": i, "lr": i * 1e-3, "values": [i, i + 1.5, None]} for i in range(3000)]
total += sum(len(json.loads(json.dumps(r))) for r in rows)
v = np.sin(np.arange(100000.0))
for _ in range(4):
    v = np.sort(v)[::-1].copy()
print(total + float(v[0]))
"""
# About the probe's wall time on a 2.1 GHz Xeon, so scaled times read close
# to seconds.
REFERENCE_S = 0.2
MAX_PRINTED_PROBLEMS = 10
DEADLINE_S = 170.0  # children still running then are killed, so a run ends within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Metrics gated by BENCHMARK.json; every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "core.substream_us",
    "core.substream_calls",
    "hpo.busy_ms",
    "priors.busy_ms",
    "cli.io_ms",
    "cli.self_ms",
    "cli.startup_ms",
)


@dataclass(frozen=True)
class Workload:
    optimizers: tuple[str, ...]
    tasks: tuple[str, ...]
    trials: int
    generate: bool  # True: `generate` only; False: the analysis chain


ROSTER = tuple(synth.ROSTER)
WORKLOADS = {
    "generate-roster": Workload(ROSTER, tuple(synth.TASKS), 14, True),
    "analyze-roster": Workload(ROSTER, tuple(synth.TASKS), 100, False),
    "analyze-deep": Workload(("sgd-lr", "sgd-mw", "adagrad", "adam"), ("quadratic", "mlp"), 1000, False),
}


def chain(workload: Workload, libraries: list[str]) -> list[tuple[str, list[str]]]:
    """The workload's commands as (label, argv), in run order."""
    if workload.generate:
        return [("generate", ["generate", "search.ini", "--out", "out/runs"])]
    return [
        ("analyze", ["analyze", *libraries, "--out", "out/exact"]),
        ("bootstrap", ["analyze", *libraries, "--bootstrap", BOOTSTRAP_R, "--out", "out/boot"]),
        ("summarize", ["summarize", "out/exact/curves.csv", "--out", "out/summary"]),
        ("prob-best", ["prob-best", *libraries, "--out", "out/shootout"]),
        ("time-curve", ["time-curve", *libraries, "--out", "out/shootout"]),
        ("plot", [
            "plot", "out/exact/curves.csv", "out/shootout/prob_best.csv",
            "out/shootout/time_curve.csv", "out/summary/relative.csv", "--out", "out/figures",
        ]),
        ("calibrate", ["calibrate", *libraries, "--out", "out/priors"]),
    ]


# Per-command metrics printed in the report; report_s sums the three
# sub-second commands, each of which is mostly interpreter start-up.
COMMAND_METRICS = {
    "generate_s": ("generate",),
    "analyze_s": ("analyze",),
    "bootstrap_s": ("bootstrap",),
    "prob_best_s": ("prob-best",),
    "time_curve_s": ("time-curve",),
    "report_s": ("summarize", "plot", "calibrate"),
}


class Fatal(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


@dataclass
class Ran:
    label: str
    wall: float
    cpu: float
    rss_mb: float
    outputs: dict[str, str]
    problems: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


def spawn(argv: list[str], cwd: Path, deadline: float) -> tuple[float, float, int, str, str]:
    """Run a child to completion; return wall, cpu, exit code, stdout, stderr."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    cpu = usage.ru_utime + usage.ru_stime
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return wall, cpu, code, stdout, stderr


def exit_problems(label: str, code: int, traceback: bool) -> list[str]:
    problems = [f"{label}: exit code {code}"] if code != 0 else []
    return problems + ([f"{label}: traceback on stderr"] if traceback else [])


def run_command(label: str, argv: list[str], cwd: Path, deadline: float) -> Ran:
    wall, cpu, code, stdout, stderr = spawn([sys.executable, "-c", CLI_RUNNER, *argv], cwd, deadline)
    paths = [line for line in stdout.splitlines() if line]
    tb = "Traceback (most recent call last)" in stderr
    peaks = [line.split()[1] for line in stderr.splitlines() if line.startswith(PEAK_RSS_MARK)]
    rss = int(peaks[-1]) / 1024.0 if peaks else 0.0
    outputs = {p: checks.file_digest(cwd / p) for p in paths}
    return Ran(label, wall, cpu, rss, outputs, exit_problems(label, code, tb))


def ran_in_process(label: str, entry: dict) -> Ran:
    """A command the tracer ran through tunebench.cli.main."""
    return Ran(label, entry["wall_ns"] / 1e9, 0.0, 0.0, entry["outputs"],
               exit_problems(label, entry["code"], entry["traceback"]))


# --- set-up -----------------------------------------------------------------------


def make_inputs(workload: Workload, seed: int, where: Path) -> tuple[list[str], str]:
    """Write the workload's inputs under `where`; return library paths and digest."""
    where.mkdir(parents=True)
    if workload.generate:
        config = where / "search.ini"
        config.write_text(
            "[search]\n"
            f"optimizers = {', '.join(workload.optimizers)}\n"
            f"tasks = {', '.join(workload.tasks)}\n"
            f"trials = {workload.trials}\n"
            f"seed = {seed}\n",
            encoding="utf-8",
        )
        return [], synth.digest([config])
    paths = synth.write_libraries(where / "runs", seed, workload.optimizers, workload.tasks, workload.trials)
    return [str(p.relative_to(where)) for p in paths], synth.digest(paths)


@dataclass
class SetUps:
    """The set-ups of one run, each a cold import of the program plus the inputs.

    The first one's directory becomes the run directory; each later one must
    make byte-identical inputs and is then removed.  Each set-up is followed
    by one run of the reference probe.
    """

    workload: Workload
    seed: int
    work: Path
    deadline: float
    times: list[float] = field(default_factory=list)  # s
    imports: list[float] = field(default_factory=list)  # ms, timed inside the fresh interpreter
    references: list[float] = field(default_factory=list)  # s, reference probe
    libraries: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def run_dir(self) -> Path:
        return self.work / "setup0"

    def repeat(self, reps: int) -> None:
        for _ in range(reps):
            where = self.work / f"setup{len(self.times)}"
            t0 = time.perf_counter()
            *_, code, stdout, stderr = spawn([sys.executable, "-c", IMPORT_PROBE], self.work, self.deadline)
            if code != 0:
                raise Fatal(f"cannot import tunebench.cli from {ROOT / 'src'}: {stderr.strip()[-300:]}")
            libraries, digest = make_inputs(self.workload, self.seed, where)
            self.times.append(time.perf_counter() - t0)
            self.imports.append(float(stdout) * 1e3)
            wall, _, code, _, stderr = spawn([sys.executable, "-c", REFERENCE_PROBE], self.work, self.deadline)
            if code != 0:
                raise Fatal(f"reference probe failed: {stderr.strip()[-300:]}")
            self.references.append(wall)
            if where == self.run_dir:
                self.libraries, self.digest = libraries, digest
                continue
            if digest != self.digest:
                raise Fatal("input synthesis is not deterministic")
            shutil.rmtree(where)


# --- checks -------------------------------------------------------------------------


def content_checks(workload: Workload, run_dir: Path, libraries: list[str], ran: list[Ran]) -> int:
    """Attach every failed output check to the command that wrote the output.

    Returns the update steps recorded by `generate`, or 0.
    """
    by_label = {r.label: r for r in ran}
    if workload.generate:
        problems, steps = checks.generated_records(
            run_dir / "out/runs", workload.optimizers, workload.tasks, workload.trials
        )
        by_label["generate"].problems += problems
        return steps
    records = {}
    for lib in libraries:
        recs = checks.read_records(run_dir / lib)
        records[(recs[0]["optimizer"], recs[0]["task"])] = recs
    directions = {task: recs[0]["direction"] for (_, task), recs in records.items()}
    out = run_dir / "out"
    found = {
        "analyze": checks.exact_curves(out / "exact/curves.csv", records)
        + checks.monotone(out / "exact/curves.csv", ("optimizer", "task"), "budget", directions),
        "bootstrap": checks.monotone(out / "boot/curves.csv", ("optimizer", "task"), "budget", directions),
        "prob-best": checks.probabilities_sum_to_one(out / "shootout/prob_best.csv"),
        "time-curve": checks.monotone(out / "shootout/time_curve.csv", ("task", "optimizer"), "interval", directions),
        "calibrate": checks.priors_cover(
            [run_dir / p for p in by_label["calibrate"].outputs],
            {o: set(synth.ROSTER[o][1]) | set(synth.ROSTER[o][2]) for o in workload.optimizers},
        ),
    }
    for r in ran:
        r.problems += found.get(r.label, []) + checks.tables_parse(run_dir / p for p in r.outputs)
    return 0


def same_outputs(first: list[Ran], later: list[Ran]) -> None:
    """The determinism contract: a rerun writes byte-identical files."""
    for a, b in zip(first, later):
        if a.outputs != b.outputs:
            b.problems.append(f"{b.label}: outputs differ from an earlier run of the same command")


def guarded(problems: list[str], check, *args):
    """Run one check; a crash in it is a failed check, not a crashed benchmark."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        problems.append(f"output check {check.__name__} failed: {err!r}")
        return 0


# --- reporting ------------------------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    result = {"median": statistics.median(ordered), "n": n, "samples": samples}
    if n >= 11:
        result[f"p{100.0 * (n - 10) / n:.3g}"] = ordered[n - 11]
    return result


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_rev": git_rev(),
    }


def git_rev() -> str:
    """HEAD of the checkout; git may not look above it for a repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown (git not found)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def print_table(rows: list[tuple[str, object, str]]) -> None:
    for name, value, unit in rows:
        if isinstance(value, dict):
            tail = {k: v for k, v in value.items() if k[0] == "p" and k[1:2].isdigit()}
            extra = "".join(f"  {k} {v:.6g}" for k, v in tail.items())
            print(f"  {name:28s} median {value['median']:.6g} {unit}{extra}  (n={value['n']})")
        elif value is None:
            print(f"  {name:28s} idle in this workload")
        else:
            print(f"  {name:28s} {value:.6g} {unit}")


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", "steps", "warnings", "spans")):
        return "count"
    if name.endswith("_share"):
        return "share"
    return "us" if name.endswith(("_us", "_per_record")) else "ms"


def outcome(attempted: list[Ran], report: dict, metrics: dict, input_digest: str) -> dict:
    """Print the failures and bundle what main() writes and prints."""
    problems = [p for r in attempted for p in r.problems]
    for p in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"  FAILED {p}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"  ... {len(problems) - MAX_PRINTED_PROBLEMS} more in the result file")
    return {
        "report": report,
        "metrics": metrics,
        "attempted": len(attempted),
        "failed": sum(1 for r in attempted if r.problems),
        "problems": problems,
        "input_sha256": input_digest,
    }


def write_result(name: str, payload: dict) -> Path:
    path = WORK / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


# --- modes ------------------------------------------------------------------------------


def timed(workload: Workload, seed: int, seconds: int, work: Path, started: float) -> dict:
    deadline = started + DEADLINE_S
    setups = SetUps(workload, seed, work, deadline)
    setups.repeat(SETUP_BATCH)
    run_dir, libraries = setups.run_dir, setups.libraries
    commands = chain(workload, libraries)
    iterations: list[list[Ran]] = []
    steps = 0
    measured = 0.0
    while True:
        t0 = time.monotonic()
        shutil.rmtree(run_dir / "out", ignore_errors=True)
        ran = [run_command(label, argv, run_dir, deadline) for label, argv in commands]
        if not iterations:
            problems: list[str] = []
            steps = guarded(problems, content_checks, workload, run_dir, libraries, ran)
            ran[0].problems += problems
        else:
            same_outputs(iterations[0], ran)
        iterations.append(ran)
        measured += time.monotonic() - t0
        if any(r.problems for r in ran):
            break
        setups.repeat(SETUP_BATCH)
        if measured + measured / len(iterations) > seconds:
            break

    attempted = [r for it in iterations for r in it]
    pipeline = [sum(r.wall for r in it) for it in iterations]
    # Each set-up is scaled by the probe run right after it; each repetition
    # by the probes of the set-up batches just before and just after it.
    refs = setups.references
    scales = [
        REFERENCE_S / statistics.median(refs[SETUP_BATCH * i:SETUP_BATCH * (i + 2)])
        for i in range(len(iterations))
    ]
    report = {
        "setup_s": summary([t * REFERENCE_S / r for t, r in zip(setups.times, refs)]),
        "pipeline_s": summary([t * k for t, k in zip(pipeline, scales)]),
        "pipeline_cpu_s": summary([sum(r.cpu for r in it) * k for it, k in zip(iterations, scales)]),
        "peak_rss_mb": max(r.rss_mb for r in attempted),
    }
    for metric, labels in COMMAND_METRICS.items():
        samples = [sum(r.wall for r in it if r.label in labels) * k for it, k in zip(iterations, scales)]
        if any(r.label in labels for r in iterations[0]):
            report[metric] = summary(samples)
    if workload.generate:
        report["steps_per_s"] = summary([steps / (t * k) for t, k in zip(pipeline, scales)])
        report["update_steps"] = steps
    report["error_rate"] = sum(1 for r in attempted if r.problems) / len(attempted)
    report["reference_s"] = summary(refs)
    report["setup_wall_s"] = summary(setups.times)
    report["pipeline_wall_s"] = summary(pipeline)
    units = {"peak_rss_mb": "MB", "steps_per_s": "1/s", "update_steps": "count", "error_rate": "share"}
    print(
        f"{len(iterations)} repetitions of {len(commands)} commands in {measured:.1f} s, "
        f"{len(setups.times)} set-ups"
    )
    print_table([(k, v, units.get(k, "s")) for k, v in report.items()])
    metrics = {
        name: report[name]["median"] if isinstance(report[name], dict) else report[name]
        for name in END_TO_END
    }
    return outcome(attempted, report, metrics, setups.digest)


def traced(workload: Workload, seed: int, work: Path, started: float, out_name: str) -> dict:
    deadline = started + DEADLINE_S
    setups = SetUps(workload, seed, work, deadline)
    setups.repeat(SETUP_BATCH)
    run_dir, libraries = setups.run_dir, setups.libraries
    commands = chain(workload, libraries)
    trace_path = WORK / "results" / out_name
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    spec = run_dir / "trace_spec.json"
    spec.write_text(json.dumps({"commands": commands, "out": str(trace_path)}), encoding="utf-8")
    *_, code, _, stderr = spawn([sys.executable, str(BENCH / "tracer.py"), str(spec)], run_dir, deadline)
    if code != 0:
        raise Fatal(f"traced run failed: {stderr.strip()[-600:]}")
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    setups.repeat(SETUP_BATCH)

    before, after = (
        [ran_in_process(c["label"], c["untraced"][k]) for c in trace["commands"]] for k in (0, 1)
    )
    ran = [ran_in_process(c["label"], c["traced"]) for c in trace["commands"]]
    same_outputs(before, ran)
    same_outputs(before, after)
    problems = [f"tracer: target {t} no longer exists" for t in trace["missing_targets"]]
    guarded(problems, content_checks, workload, run_dir, libraries, ran)
    ran[0].problems += problems

    layers = tracer.derive(trace, statistics.median(setups.imports))
    print(f"traced run: {layers['trace.spans']} spans, overhead {layers['trace.overhead_ms']:.1f} ms")
    print_table([(k, v, layer_unit(k)) for k, v in layers.items()])
    return outcome(before + ran + after, layers, {name: layers[name] for name in PER_LAYER}, setups.digest)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    started = time.monotonic()
    if not (ROOT / "src" / "tunebench" / "cli.py").is_file():
        print(f"bench: no tunebench sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            result = traced(workload, args.seed, work, started, f"{name}.spans.json")
        else:
            result = timed(workload, args.seed, args.seconds, work, started)
    except Fatal as err:
        print(f"bench: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    saved = write_result(f"{name}.json", {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "spread_when_bounds_were_set": json.loads((BENCH / "spread.json").read_text(encoding="utf-8")),
        **{k: v for k, v in result.items() if k != "metrics"},
    })
    print(f"input sha256 {result['input_sha256']}; full result in {saved.relative_to(ROOT)}")
    unit = layer_unit if args.trace else END_TO_END.get
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
