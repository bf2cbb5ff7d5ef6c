"""Benchmark driver: cold CLI runs of one workload, checked and summarised.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  ...   # every workload in turn

Each timed run is a fresh worker interpreter (``worker.py``), started one at
a time from this single process with no threads, because the package's
module-level caches would turn every repeat inside one process into a cache
hit, and a fresh interpreter is what every CLI user pays.

``--trace 0`` keeps starting cold runs while the next one is predicted to
end within ``--seconds`` (at least one run), then reports end-to-end
metrics: median ``run_s`` (workload start to last output written),
``setup_s`` (interpreter start to ``import logdop.cli`` done, median over
every worker plus extra set-up-only workers), and ``peak_rss_mb``.

``--trace 1`` alternates untraced and traced cold runs in the same way and
reports the per-layer metrics of ``spans.py`` (medians over traced runs);
``trace.overhead`` compares the two kinds of run.

Every run's outputs are checked (``workloads.py``).  Human-readable lines
come first; the last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` (output checks) and ``metrics``.
Exit status is 0 when every check passed, 1 when a check failed or a worker
crashed, 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Spans, layer_metrics, metric_units, top_self_times
from workloads import EXPECTED_DIR, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
RUNS_DIR = ROOT / ".perfbench_runs"

SETUP_SAMPLES = 15        # set-up medians take at least this many workers
TIME_LIMIT_S = 170.0      # whole invocation, per workload; workers are killed past it
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


class Driver:
    """Starts workers one at a time and accumulates check results."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures: list = []
        # a fixed environment, so the caller's PYTHON* or LOGDOP_* settings
        # (no bytecode cache, a row limit) cannot change what is measured
        self.env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC)}

    def _spawn(self, mode: str, run_dir: Path) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("time limit reached before the worker started")
        with open(run_dir / "stdout.txt", "wb") as out, \
                open(run_dir / "stderr.txt", "wb") as err:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run([sys.executable, str(WORKER), mode], cwd=run_dir,
                                      env=self.env, stdout=out, stderr=err,
                                      timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                raise WorkerFailed(f"worker ({mode}) killed after {exc.timeout:.0f} s")
        if proc.returncode != 0:
            tail = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise WorkerFailed(f"worker ({mode}) exited {proc.returncode}:\n{tail}")
        result = json.loads((run_dir / "result.json").read_text())
        result["setup_s"] = result["setup_done"] - t_spawn
        return result

    def setup_probe(self) -> float:
        run_dir = Path(tempfile.mkdtemp(dir=RUNS_DIR))
        try:
            return self._spawn("setup", run_dir)["setup_s"]
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def cold_run(self, workload, plan: list, traced: bool) -> dict:
        """One checked cold run; traced runs also return their spans."""
        run_dir = Path(tempfile.mkdtemp(dir=RUNS_DIR))
        try:
            (run_dir / "plan.json").write_text(json.dumps(plan))
            result = self._spawn("trace" if traced else "run", run_dir)
            checks = workload.check(run_dir, plan, result["exit_codes"], EXPECTED_DIR)
            self.attempted += len(checks)
            self.failures += [f"{workload.name}: {label}" for ok, label in checks if not ok]
            if traced:
                result["spans"] = Spans.load(run_dir)
            return result
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _keep_going(started: float, seconds: float, durations: list) -> bool:
    """Start another run only if it should end within the measuring window."""
    if not durations:
        return True
    elapsed = time.monotonic() - started
    return elapsed + statistics.median(durations) <= seconds


def measure_end_to_end(driver: Driver, workload, plan: list, seconds: float):
    runs, walls = [], []
    started = time.monotonic()
    while _keep_going(started, seconds, walls):
        t0 = time.monotonic()
        runs.append(driver.cold_run(workload, plan, traced=False))
        walls.append(time.monotonic() - t0)
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(driver.setup_probe())
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    lines = []
    for name, values in samples.items():
        q1, q3 = _quartiles(values)
        lines.append(f"  {name:<12} {statistics.median(values):10.4f} "
                     f"{END_TO_END_UNITS[name]:<3} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, END_TO_END_UNITS, lines


def measure_layers(driver: Driver, workload, plan: list, seconds: float):
    untraced, traced, walls = [], [], []
    started = time.monotonic()
    while _keep_going(started, seconds, walls):
        t0 = time.monotonic()
        untraced.append(driver.cold_run(workload, plan, traced=False)["run_s"])
        traced.append(driver.cold_run(workload, plan, traced=True))
        walls.append(time.monotonic() - t0)
    base = statistics.median(untraced)
    per_run = [layer_metrics(r["spans"], base, r["run_s"]) for r in traced]
    units = metric_units()
    metrics = {name: statistics.median(m[name] for m in per_run) for name in units}
    last = traced[-1]
    lines = [f"  traced runs {len(traced)}, untraced run_s median {base:.4f} s, "
             f"{len(last['spans'])} spans per traced run",
             "  largest self times (last traced run): " + ", ".join(
                 f"{name} {s:.3f} s ({s / last['run_s']:.0%})"
                 for name, s in top_self_times(last["spans"]))]
    lines += [f"  {name:<44} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    return metrics, units, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (driver, metrics, units, human lines)."""
    workload = WORKLOADS[name]
    driver = Driver(time.monotonic() + TIME_LIMIT_S)
    RUNS_DIR.mkdir(exist_ok=True)
    try:
        driver.setup_probe()  # untimed: compiles bytecode on a fresh checkout
        measure = measure_layers if trace else measure_end_to_end
        metrics, units, lines = measure(driver, workload, workload.plan(seed), seconds)
    finally:
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass
    ratio = len(driver.failures) / driver.attempted
    head = (f"workload {name}  seed {seed}  trace {int(trace)}  checks "
            f"{driver.attempted - len(driver.failures)}/{driver.attempted} passed  "
            f"check_fail_ratio {ratio:.4g}")
    return driver, metrics, units, [head] + lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "logdop" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'logdop'} is missing",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failures, result_metrics = 0, [], {}
    for name in names:
        try:
            driver, metrics, units, lines = run_workload(
                name, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        attempted += driver.attempted
        failures += driver.failures
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in metrics.items():
            result_metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    for label in failures[:20]:
        print(f"check failed: {label}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
