#!/usr/bin/env python3
"""Benchmark of the qutritchain command line tool.

    python3 bench/run.py --workload plane-full --seed 0 --seconds 25 --trace 0

A run launches the CLI for one workload in fresh single-threaded processes,
one at a time: a closed loop with a single client, so the next process
starts only after the previous one has exited.  It keeps launching for
--seconds seconds, checks every output, and prints each metric by name and
unit with its sample count.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, all medians over the run:
  run_s         time of one CLI run, launch to exit
  setup_s       launch until the subcommand's run_* function is entered
  points_per_s  output rows per second of the run_* call plus output writing
  peak_rss_mb   peak resident memory of the CLI process
Set-up is also timed alone, by runs that stop where computation would begin.
The three times are the CLI process's CPU time (it is single-threaded and
waits on nothing, so alone on a core this is its wall time) in reference
seconds: scaled by the host's pace during the launch, which a meter thread
measures on the same vCPU (bench/calibrate.py).  The table also prints the
unscaled wall and CPU times.  The benchmark and everything it starts run
on one vCPU.

--trace 1 alternates untraced runs with runs under bench/tracer.py and
reports the per-layer metrics of bench/spans.py, plus trace.overhead_s.

Failed runs (exit code not 0, or an output that fails bench/check.py) count
in `failed` against `attempted`; the table prints their share as failed_ops.
Results and the last span file are kept under .bench_work/ in the checkout.
"""

import os

# BLAS threads are fixed before numpy loads, here and in every child: the
# matrices are 9x9, and threaded BLAS only adds contention on them.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import calibrate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run ends within this many seconds whatever --seconds says.
HARD_LIMIT_S = 170.0
# Set-up is sampled at least this often in a run, with set-up-only launches.
MIN_SETUP_SAMPLES = 9

END_TO_END_METRICS = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# The function entered once per output row, by subcommand; it tags spans with rows.
ROW_MARKERS = {
    "sweep": "sweeps._sweep_worker",
    "threshold": "spinmodels.hamiltonian_qutrit",
    "spectrum": "spinmodels.closed_form_energies",
}


@dataclass
class Launch:
    """One CLI process: how it ended and what it printed."""

    kind: str  # "setup", "full" or "traced"
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stamps: dict
    started: float
    output: Optional[str] = None
    problems: list[str] = field(default_factory=list)
    # the meter's mean CPU time per kernel call while this launch ran
    pace: float = 0.0

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems

    @property
    def setup_wall_s(self) -> float:
        return self.stamps["compute_start"] - self.started

    @property
    def setup_cpu_s(self) -> float:
        return self.stamps["compute_start_cpu"]

    @property
    def compute_cpu_s(self) -> float:
        return self.stamps["compute_end_cpu"] - self.stamps["compute_start_cpu"]

    @property
    def scale(self) -> float:
        """Factor from this launch's seconds to reference seconds."""
        return calibrate.REFERENCE_S / self.pace


def child_env() -> dict:
    """The caller's environment, minus the PYTHON* settings that change how the CLI runs.

    Bytecode caching stays on, as in an installed package: the warm-up
    launch of each run writes the caches, and set-up is timed with them.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env.update(SINGLE_THREAD, PYTHONPATH=str(SRC))
    return env


def launch(kind: str, script: str, script_args: list[str], argv: list[str],
           hard_deadline: float) -> Launch:
    """Run one child to completion and collect its exit code, wall and CPU time, peak RSS."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    cmd = [sys.executable, str(BENCH_DIR / script), *script_args, "--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(max(hard_deadline - started, 1.0), proc.kill)
        watchdog.start()
        try:
            # wait4 rather than Popen.wait, to read this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Launch(kind=kind, code=proc.returncode, wall_s=ended - started,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0, stamps={}, started=started)
    if run.code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        run.problems.append(f"exit code {run.code}: {' | '.join(tail)}")
    if kind != "setup":
        run.output = out_path.read_text(encoding="utf-8")
    return run


def probe(kind: str, argv: list[str], hard_deadline: float) -> Launch:
    stamp_path = WORK / "stamps.json"
    stamp_path.unlink(missing_ok=True)
    run = launch(kind, "probe.py", [str(stamp_path), kind], argv, hard_deadline)
    if stamp_path.exists():
        run.stamps = json.loads(stamp_path.read_text(encoding="utf-8"))
    if run.code == 0 and "compute_start" not in run.stamps:
        run.problems.append("the CLI never reached a run_* function")
    if "peak_rss_kb" in run.stamps:
        run.peak_rss_mb = run.stamps["peak_rss_kb"] / 1024.0
    return run


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of a sample (quartiles equal the value when n = 1)."""
    if not values:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def environment() -> dict:
    """Where the numbers were measured; nothing here changes the machine."""
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qutritchain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "loadavg_start": loadavg(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def pin_to_one_cpu() -> int:
    """Keep this process, and every process it starts from now on, on one vCPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import check
    import workloads

    inst = workloads.instance(name, seed)
    argv = inst.argv()
    reference = check.load_reference(name) if seed == 0 else None
    env = environment()
    env["pinned_cpu"] = pin_to_one_cpu()
    begun = time.monotonic()
    deadline, hard_deadline = begun + seconds, begun + HARD_LIMIT_S
    reports: dict[str, check.CheckReport] = {}
    launches: list[Launch] = []

    def record(run: Launch) -> Launch:
        if run.code == 0 and run.output is not None:
            if run.output not in reports:
                if reports:
                    run.problems.append("output differs from the first run's output")
                reports[run.output] = check.verify(inst, run.output, seed, reference)
            run.problems += reports[run.output].problems[:3]
        launches.append(run)
        return run

    def time_left(needed: float = 0.0) -> bool:
        # the margin leaves room for one more traced plane-full pair and the checks
        now = time.monotonic()
        return now + needed < deadline and now < hard_deadline - 40.0

    # compiles the package's bytecode in a fresh checkout; not a sample
    warmup = record(probe("setup", argv, hard_deadline))
    layer_runs: list[dict] = []
    overheads: list[float] = []
    if trace:
        import spans

        span_path = WORK / f"spans-{name}-seed{seed}.npz"
        marker = ROW_MARKERS[inst.command]
        while not layer_runs or time_left():
            plain = record(probe("full", argv, hard_deadline))
            traced = record(
                launch("traced", "tracer.py", [str(span_path), marker], argv, hard_deadline))
            if not (plain.ok and traced.ok):
                break
            layer_runs.append(spans.layer_metrics(spans.SpanTable.load(span_path), inst.rows))
            overheads.append(traced.wall_s - plain.wall_s)
    else:
        with calibrate.Meter() as meter:

            def paced(kind: str) -> Launch:
                mark = meter.mark()
                run = probe(kind, argv, hard_deadline)
                run.pace = meter.pace_since(mark)
                return record(run)

            # Another full launch starts only when it, and the set-up samples
            # still missing, fit in the time left, judged by the last ones.
            full_s = 0.0
            while True:
                setup_s = paced("setup").wall_s
                missing = max(MIN_SETUP_SAMPLES + 1 - sum(r.kind == "setup" for r in launches), 0)
                if full_s and not time_left(full_s + missing * setup_s):
                    break
                run = paced("full")
                if not run.ok:
                    break
                full_s = run.wall_s
            while sum(r.kind == "setup" for r in launches) <= MIN_SETUP_SAMPLES:
                paced("setup")

    good = [r for r in launches if r.ok and r is not warmup]
    full = [r for r in good if r.kind == "full"]
    samples: dict[str, list[float]] = {}
    unscaled: dict[str, list[float]] = {}
    if trace:
        for metric, _, _ in spans.PER_LAYER_METRICS:
            samples[metric] = [m[metric] for m in layer_runs if metric in m]
        samples["trace.overhead_s"] = overheads
        units = {m: u for m, u, _ in spans.PER_LAYER_METRICS}
    else:
        samples["run_s"] = [r.cpu_s * r.scale for r in full]
        samples["setup_s"] = [r.setup_cpu_s * r.scale for r in good]
        samples["points_per_s"] = [inst.rows / (r.compute_cpu_s * r.scale) for r in full]
        samples["peak_rss_mb"] = [r.peak_rss_mb for r in full]
        unscaled["wall_s"] = [r.wall_s for r in full]
        unscaled["cpu_s"] = [r.cpu_s for r in full]
        unscaled["setup_wall_s"] = [r.setup_wall_s for r in good]
        unscaled["setup_cpu_s"] = [r.setup_cpu_s for r in good]
        unscaled["host_pace_s"] = [r.pace for r in good]
        units = {m: u for m, u, _ in END_TO_END_METRICS}

    failed = sum(not r.ok for r in launches)
    report = next(iter(reports.values()), None)
    env["loadavg_end"] = loadavg()
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "argv": argv,
        "environment": env,
        "attempted": len(launches),
        "failed": failed,
        "problems": sorted({p for r in launches for p in r.problems})[:20],
        "check": None if report is None else {
            "distinct_outputs": len(reports),
            "byte_identical_to_reference": report.byte_identical,
            "cells_compared": report.cells_compared,
            "rows_recomputed": report.rows_recomputed,
        },
        "stats": {m: summary(v) for m, v in samples.items()},
        "samples": samples,
        "units": units,
        "unscaled": {m: summary(v) for m, v in unscaled.items()},
        "unscaled_samples": unscaled,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    return result


def print_table(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}:"
          f"  qutritchain {' '.join(result['argv'])}")
    for metric, s in result["stats"].items():
        print(f"  {metric:<38} {s['median']:>14.6g} {result['units'][metric]:<15}"
              f" median of n={s['n']}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    for metric, s in result["unscaled"].items():
        print(f"  {'unscaled ' + metric:<38} {s['median']:>14.6g} "
              f"{result['units'].get(metric, 's'):<15} median of n={s['n']}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_ops':<38} {share:>14.6g} {'share':<15}"
          f" {result['failed']} of {result['attempted']} runs")
    if result["check"]:
        print(f"  output check: {json.dumps(result['check'])}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    env = result["environment"]
    print(f"  environment: {json.dumps(env)}")


def main(args: Optional[list[str]] = None) -> int:
    # a terminated run still kills and reaps the CLI process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(args)

    if not (SRC / "qutritchain" / "cli.py").is_file():
        print(f"error: no qutritchain sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(workloads.WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = [run_workload(n, opts.seed, opts.seconds, bool(opts.trace)) for n in names]
    metrics = {}
    for result in results:
        print_table(result)
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric, s in result["stats"].items():
            metrics[prefix + metric] = {"value": s["median"], "unit": result["units"][metric]}
    failed = sum(r["failed"] for r in results)
    complete = all(s["n"] > 0 for r in results for s in r["stats"].values())
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
