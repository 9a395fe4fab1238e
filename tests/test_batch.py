"""The batched paths against the single-state references `_sweep_worker` and
`thermal.estimate_ts`."""

import math

import numpy as np
import pytest

from qutritchain import entanglement, sweeps, thermal
from qutritchain.numkernel import sym_eig
from qutritchain.spinmodels import QutritChainParams, hamiltonian_qutrit
from qutritchain.sweeps import (
    MEASURE_NAMES, QUTRIT_DIMS, QUTRIT_SPLIT, SWEEP_MODES, AxisRange, SweepConfig, _measure_table,
    _sweep_worker, run_sweep, run_threshold,
)

# Largest allowed gap between a batched measure and its single-state value.
MAX_ABS_DIFF = 1e-12


def reference_table(points, names):
    return np.array([_sweep_worker(tuple(float(x) for x in p), names) for p in points])


def test_registry_matches_reference_on_random_points():
    rng = np.random.default_rng(2024)
    n = 12
    rows = []
    for t in (0.02, 0.05, 0.2, 1.0, 3.0):  # 0.02 and 0.05 leave rank-deficient states
        j = rng.uniform(-2.0, 2.0, n)
        k = rng.uniform(-2.0, 1.0, n)
        b1 = rng.uniform(-6.0, 6.0, n)
        b2 = rng.uniform(-6.0, 6.0, n)
        b1[:3] = b2[:3] = 0.0  # zero field: degenerate levels
        b2[3:6] = -b1[3:6]  # e1 = e9, e2 = e7 and e3 = e8: degenerate across sectors
        rows.append(np.column_stack([j, k, b1, b2, np.full(n, t)]))
    points = np.concatenate(rows)
    got = _measure_table(points, MEASURE_NAMES)
    want = reference_table(points, MEASURE_NAMES)
    assert got.shape == want.shape == (len(points), len(MEASURE_NAMES))
    assert np.max(np.abs(got - want)) <= MAX_ABS_DIFF


_SMALL_RANGES = {
    "b1": AxisRange(-2.0, 2.0, 3),
    "b2": AxisRange(-1.5, 2.5, 3),
    "k": AxisRange(-2.0, 0.5, 3),
    "t": AxisRange(0.05, 3.0, 3),
}


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_every_mode_matches_reference(mode, monkeypatch):
    calls = []

    def recorded(points, names):
        values = _measure_table(points, names)
        calls.append((points, names, values))
        return values

    monkeypatch.setattr(sweeps, "_measure_table", recorded)
    cfg = SweepConfig(mode=mode, K=-1.7, B1=0.6, B2=-0.4, T=0.2,
                      ranges=_SMALL_RANGES, measures=MEASURE_NAMES)
    text = run_sweep(cfg)
    [(points, names, values)] = calls
    assert len(text.strip().split("\n")) == len(points) + 1
    assert np.max(np.abs(values - reference_table(points, names))) <= MAX_ABS_DIFF


def test_threshold_matches_scalar_estimate_ts(monkeypatch):
    written, calls = [], []
    # the table as printed: a NaN cell is an empty one
    monkeypatch.setattr(sweeps, "_csv", lambda header, table: written.append(
        [["" if np.isnan(x) else x for x in row] for row in table.tolist()]) or "")
    vanishing_point = thermal.vanishing_point

    def traced(scan, measure_at):
        steps = [[] for _ in scan]  # every bisection step of each row as (t, measure)
        calls.append((scan, steps))

        def step(rows, temperatures):
            values = measure_at(rows, temperatures)
            for row, t, v in zip(rows.tolist(), temperatures.tolist(), values.tolist()):
                steps[row].append((t, v))
            return values

        return vanishing_point(scan, step)

    monkeypatch.setattr(thermal, "vanishing_point", traced)
    names = ("negativity", "alb")
    kinds = {name: set() for name in names}
    for b1, b2 in ((0.0, 0.0), (0.35, -0.35)):
        cfg = SweepConfig(B1=b1, B2=b2, ranges={"k": AxisRange(-6.0, 0.0, 4)}, measures=names)
        run_threshold(cfg)
        batched = calls.copy()  # one lockstep call per measure, over every row
        calls.clear()
        assert [scan.shape for scan, _ in batched] == [(4, thermal.TS_GRID)] * len(names)
        for row, (k, *cells, t_ball) in enumerate(written.pop()):
            spectrum = sym_eig(hamiltonian_qutrit(QutritChainParams(J=cfg.J, K=k, B1=b1, B2=b2)))
            v = spectrum.vectors
            scalar = {
                "negativity": entanglement.negativity,
                # weights of rho in the H eigenbasis: those of rho are ill-determined at low T
                "alb": lambda rho: entanglement.alb_mixture(
                    spectrum, np.diagonal(v.T @ rho.mat @ v), sweeps._antisym_basis33()),
            }
            for name, cell, (scan, steps) in zip(names, cells, batched):
                want = thermal.estimate_ts(spectrum, QUTRIT_DIMS, scalar[name])
                assert cell == ("" if want is None else want)  # zero difference
                [(want_scan, [want_steps])] = calls
                calls.clear()
                assert np.max(np.abs(scan[row] - want_scan[0])) <= MAX_ABS_DIFF
                # the same midpoints, with values within MAX_ABS_DIFF
                assert [t for t, _ in steps[row]] == [t for t, _ in want_steps]
                assert all(abs(x - y) <= MAX_ABS_DIFF
                           for (_, x), (_, y) in zip(steps[row], want_steps))
                kinds[name].add(want if want in (None, thermal.TS_TMAX) else "inside")
            assert t_ball == thermal.tstar(spectrum, QUTRIT_SPLIT)
    for name in names:
        assert kinds[name] == {None, thermal.TS_TMAX, "inside"}


def test_threshold_bisects_rows_in_lockstep(monkeypatch):
    sizes = []

    class Counted(sweeps._Batch):
        def __init__(self, h, sectors, temperatures):
            sizes.append(len(temperatures))
            super().__init__(h, sectors, temperatures)

    monkeypatch.setattr(sweeps, "_Batch", Counted)
    cfg = SweepConfig(B1=0.35, B2=-0.35, ranges={"k": AxisRange(-2.0, -1.0, 21)},
                      measures=("negativity", "alb"))
    want = run_threshold(cfg)
    # the scan in stacks of CHUNK_POINTS pairs, then one stack per bisection step
    # and measure: a one-row-at-a-time bisection would take 630 stacks more
    assert len(sizes) <= math.ceil(21 * thermal.TS_GRID / sweeps.CHUNK_POINTS) + 2 * 16
    sizes.clear()
    monkeypatch.setattr(sweeps, "CHUNK_POINTS", 7)
    assert run_threshold(cfg) == want
    assert max(sizes) == 7


# Two points (J, K, B1, B2, T) where alb(rho), taking the eigenvectors of rho,
# is off by 3.3e-8 and 1.2e-10, and alb there: H assembled from the same
# parameters, then diagonalized, weighted and decomposed in 50-digit
# arithmetic (mpmath eigsy and svd_r), rounded to double.  The second point is
# on the plane-full grid at T = 0.2.
ALB_ORACLE = [
    ((-1.2013968314551975, 0.9875993391633502, 1.738023928962721, -1.160990502015304, 0.02),
     0.91799353841858774),
    ((-1.0, -1.7, -0.2400000000000002, 5.4, 0.2), 0.28831050185718099),
]


def test_alb_matches_high_precision_values_at_low_temperature():
    points = np.array([p for p, _ in ALB_ORACLE])
    want = np.array([v for _, v in ALB_ORACLE])
    assert np.max(np.abs(_measure_table(points, ("alb",))[:, 0] - want)) <= 1e-14
    for point, value in ALB_ORACLE:
        spectrum = sym_eig(hamiltonian_qutrit(QutritChainParams(*point[:4])))
        weights = thermal.boltzmann_weights(spectrum.values, point[4])
        got = entanglement.alb_mixture(spectrum, weights, sweeps._antisym_basis33())
        assert abs(got - value) <= 1e-14


def test_ub_takes_the_eigenvectors_of_the_reference():
    # degenerate levels: zero field, B1 = B2 at weak K, and B1 = -B2
    points = np.array([(-1.0, -1.7, 0.0, 0.0, 1.0), (-1.0, -0.2, -2.4, -2.4, 0.5),
                       (-1.0, -1.7, 1.3, -1.3, 1.0)])
    assert np.array_equal(_measure_table(points, ("ub",)), reference_table(points, ("ub",)))


def test_csv_independent_of_batch_size(monkeypatch):
    # 25 points: one default batch, 25 batches of one, and batches of 7 with a short last one
    cfg = SweepConfig(mode="grid-b1b2", K=-1.7, T=0.2, measures=MEASURE_NAMES,
                      ranges={"b1": AxisRange(-3.0, 3.0, 5), "b2": AxisRange(-3.0, 3.0, 5)})
    # 9 K values per field: 3600 scan pairs in 15 default batches, or 3600, or 515 of 7
    # that cut across rows; only the rows with inner cells bisect.  At B1 = -B2 = 0.35
    # the cells are TS_TMAX or inner; at zero field also empty.
    thresholds = [SweepConfig(B1=b1, B2=-b1, ranges={"k": AxisRange(-6.0, 0.0, 9)},
                              measures=("negativity", "alb")) for b1 in (0.35, 0.0)]
    want = run_sweep(cfg), [run_threshold(t) for t in thresholds]
    cells = {cell for text in want[1] for line in text.split()[1:] for cell in line.split(",")[1:3]}
    assert {"", "10"} < cells
    for size in (1, 7):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        assert (run_sweep(cfg), [run_threshold(t) for t in thresholds]) == want


def test_batch_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="temperature must be positive"):
        _measure_table(np.array([[-1.0, -1.0, 0.0, 0.0, 1.0], [-1.0, -1.0, 0.0, 0.0, 0.0]]),
                       ("negativity",))
