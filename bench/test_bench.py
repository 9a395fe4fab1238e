"""Tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qutritchain import cli  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# Every workload and metric name the benchmark promises, spelled out apart from the code.
WORKLOAD_NAMES = ["plane-full", "plane-neg", "threshold-k", "spectrum-b2"]
END_TO_END_NAMES = ["run_s", "setup_s", "points_per_s", "peak_rss_mb"]
PER_LAYER_NAMES = (
    [f"{layer}.{kind}" for layer in ("cli", "sweeps", "spinmodels", "numkernel", "qstate",
                                     "thermal", "entanglement", "densecode")
     for kind in ("self_s", "calls")]
    + ["spinmodels.assembly_us_per_point", "spinmodels.assembly_calls_per_point",
       "spinmodels.closed_form_us_per_point", "numkernel.eig_us_per_point",
       "linalg.eig_calls_per_point", "linalg.svd_calls_per_point",
       "qstate.validate_us_per_point", "thermal.gibbs_us_per_point",
       "thermal.boltzmann_calls_per_point", "thermal.gibbs_per_spectrum",
       "thermal.estimate_ts_us_per_call", "thermal.tstar_us_per_call", "trace.overhead_s"]
    + [f"measure.{m}.us_per_point" for m in ("negativity", "chen_lb", "alb", "ub", "purity",
                                             "entropy", "cdc", "udc_12", "udc_21")]
)


def test_benchmark_json_names_every_metric_and_workload():
    assert sorted(BENCHMARK) == ["command", "end_to_end", "paths", "per_layer", "run_seconds",
                                 "workloads"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == WORKLOAD_NAMES
    assert list(workloads.WORKLOADS) == WORKLOAD_NAMES
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == END_TO_END_NAMES
    assert sorted(m["name"] for m in BENCHMARK["per_layer"]) == sorted(PER_LAYER_NAMES)
    # the runner reports exactly what BENCHMARK.json declares, with the same units
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        spans.PER_LAYER_METRICS)


def test_benchmark_json_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics + BENCHMARK["workloads"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert BENCHMARK["paths"] == ["bench"] and BENCHMARK["command"][1].startswith("bench/")


def test_seed_zero_is_the_roadmap_workloads():
    m = "negativity,chen_lb,alb,ub,purity,entropy,cdc,udc_12,udc_21"
    plane = ["sweep", "--mode", "grid-b1b2", "--K=-1.7"]
    grid = ["--range-b1=-6:6:101", "--range-b2=-6:6:101"]
    assert workloads.instance("plane-full", 0).argv() == plane + ["--T=1"] + grid + [
        "--measures", m]
    assert workloads.instance("plane-neg", 0).argv() == plane + ["--T=0.2"] + grid + [
        "--measures", "negativity"]
    assert workloads.instance("threshold-k", 0).argv() == [
        "threshold", "--B1=0.35", "--B2=-0.35", "--range-k=-2:-1:21",
        "--measures", "negativity,alb"]
    assert workloads.instance("spectrum-b2", 0).argv() == [
        "spectrum", "--K=-1.7", "--B1=3", "--range-b2=0.1:0.3:2001"]


def _near(value, base):
    # perturbations are at most 5% of the value, rounded to 4 decimals
    return abs(value - base) <= 0.05 * abs(base) + 1e-4


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_other_seeds_perturb_within_the_regime(name):
    base = workloads.instance(name, 0)
    for seed in range(1, 40):
        inst = workloads.instance(name, seed)
        assert inst == workloads.instance(name, seed)
        assert inst != base and inst.rows == base.rows and inst.measures == base.measures
        for key, value in base.fixed.items():
            assert _near(inst.fixed[key], value)
        for axis, ref in zip(inst.axes, base.axes):
            assert (axis.flag, axis.count) == (ref.flag, ref.count)
            assert _near(axis.start, ref.start) and _near(axis.stop, ref.stop)


def _cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


SHRUNK = {"plane-full": 5, "plane-neg": 5, "threshold-k": 2, "spectrum-b2": 40}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_shrunken_run_passes_its_output_check(name):
    inst = workloads.instance(name, 11, points=SHRUNK[name])
    text = _cli_output(inst.argv())
    report = check.verify(inst, text, seed=11)
    assert report.ok, report.problems
    assert report.rows == inst.rows and report.rows_recomputed > 0
    # a wrong cell in a recomputed row is caught
    lines = text.split("\n")
    row = sorted(random.Random(f"check/{name}/11").sample(
        range(inst.rows), min(check.SAMPLE_ROWS[inst.command], inst.rows)))[0]
    cells = lines[row + 1].split(",")
    cells[-1] = format(float(cells[-1] or 0) + 1e-3, ".12g")
    lines[row + 1] = ",".join(cells)
    assert not check.verify(inst, "\n".join(lines), seed=11).ok


def test_reference_compare_reports_bytes_and_tolerates_roundoff():
    inst = workloads.instance("threshold-k", 0)
    reference = check.load_reference("threshold-k")
    report = check.verify(inst, reference, 0, reference)
    assert report.ok and report.byte_identical and report.cells_compared == 21 * 4

    head, first, rest = reference.split("\n", 2)
    cells = first.split(",")
    cells[1] = format(float(cells[1]) + 1e-7, ".12g")  # inside the bisection width
    report = check.verify(inst, "\n".join([head, ",".join(cells), rest]), 0, reference)
    assert report.ok and report.byte_identical is False
    cells[1] = format(float(cells[1]) + 1e-4, ".12g")
    assert not check.verify(inst, "\n".join([head, ",".join(cells), rest]), 0, reference).ok


def test_meter_paces_its_kernel_and_launches_scale_by_it():
    with calibrate.Meter() as meter:
        mark = meter.mark()
        pace = meter.pace_since(mark, min_calls=3)
        assert meter.mark()[0] >= mark[0] + 3
    assert 0 < pace < 1
    assert "pace-meter" not in [t.name for t in threading.enumerate()]
    # a launch during which the kernel ran at half the reference speed counts half its CPU time
    launch = run.Launch(kind="full", code=0, wall_s=3.0, cpu_s=2.0, peak_rss_mb=40.0, stamps={},
                        started=0.0, pace=2 * calibrate.REFERENCE_S)
    assert launch.cpu_s * launch.scale == pytest.approx(1.0)


def _table(rows):
    """SpanTable from (name, start, end, parent) rows."""
    names = sorted({r[0] for r in rows})
    return spans.SpanTable(
        names=names,
        name_id=np.array([names.index(r[0]) for r in rows]),
        start=np.array([r[1] for r in rows], dtype=float),
        end=np.array([r[2] for r in rows], dtype=float),
        parent=np.array([r[3] for r in rows]),
        row=np.zeros(len(rows), dtype=int),
        linalg_calls={"eigh": 4, "eigvalsh": 2, "svd": 3},
    )


def test_self_time_on_a_synthetic_tree():
    table = _table([
        ("sweeps.run_sweep", 0.0, 10.0, -1),
        ("entanglement.chen_lower_bound", 1.0, 4.0, 0),
        ("entanglement.negativity", 2.0, 3.0, 1),
        ("qstate.partial_transpose", 2.25, 2.5, 2),
        ("thermal.gibbs", 3.0, 6.0, 0),  # overlaps the span before it
        ("thermal.purity", 8.0, 12.0, 0),  # runs past its parent
        ("entanglement.negativity", 6.5, 7.0, 0),
    ])
    own = spans.self_times(table.start, table.end, table.parent)
    # root: 10 minus the union [1, 6] + [6.5, 7] + [8, 10]
    assert own.tolist() == pytest.approx([2.5, 2.0, 0.75, 0.25, 3.0, 4.0, 0.5])

    m = spans.layer_metrics(table, rows=2)
    assert m["sweeps.self_s"] == pytest.approx(2.5)
    assert m["entanglement.self_s"] == pytest.approx(2.0 + 0.75 + 0.5)
    assert m["thermal.self_s"] == pytest.approx(7.0)
    assert m["qstate.self_s"] == pytest.approx(0.25)
    assert (m["entanglement.calls"], m["thermal.calls"], m["cli.calls"]) == (3, 2, 0)
    # negativity inside chen_lb belongs to chen_lb; the top-level call is its own
    assert m["measure.chen_lb.us_per_point"] == pytest.approx(3e6 / 2)
    assert m["measure.negativity.us_per_point"] == pytest.approx(0.5e6 / 2)
    assert m["measure.purity.us_per_point"] == pytest.approx(4e6 / 2)
    assert m["thermal.gibbs_us_per_point"] == pytest.approx(3e6 / 2)
    assert m["linalg.eig_calls_per_point"] == 3 and m["linalg.svd_calls_per_point"] == 1.5
    assert m["thermal.gibbs_per_spectrum"] == 0.0  # no sym_eig span to divide by


@pytest.mark.parametrize("name, points, expect", [
    ("plane-neg", 3, {"spinmodels.assembly_calls_per_point": 1.0,
                      "thermal.boltzmann_calls_per_point": 2.0,
                      "thermal.gibbs_per_spectrum": 1.0,
                      "linalg.eig_calls_per_point": 3.0,
                      "linalg.svd_calls_per_point": 0.0,
                      "measure.alb.us_per_point": 0.0}),
    ("spectrum-b2", 6, {"spinmodels.assembly_calls_per_point": 2.0,
                        "thermal.gibbs_per_spectrum": 0.0,
                        "thermal.gibbs_us_per_point": 0.0,
                        "linalg.eig_calls_per_point": 2.0}),
])
def test_traced_run_counts(tmp_path, name, points, expect):
    inst = workloads.instance(name, 0, points=points)
    span_file = tmp_path / "spans.npz"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "tracer.py"), str(span_file),
         run.ROW_MARKERS[inst.command], "--", *inst.argv()],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert check.verify(inst, proc.stdout, 0).ok
    table = spans.SpanTable.load(span_file)
    assert table.row.max() == inst.rows - 1
    m = spans.layer_metrics(table, inst.rows)
    for metric, value in expect.items():
        assert m[metric] == value, metric
    assert m["cli.calls"] >= 2 and m["spinmodels.self_s"] > 0
