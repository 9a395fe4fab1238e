"""The batched paths against the single-state references `_sweep_worker` and
`thermal.estimate_ts`."""

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
    for t in (0.05, 0.2, 1.0, 3.0):  # 0.05 leaves rank-deficient states
        j = rng.uniform(-2.0, 2.0, n)
        k = rng.uniform(-2.0, 1.0, n)
        b1 = rng.uniform(-6.0, 6.0, n)
        b2 = rng.uniform(-6.0, 6.0, n)
        b1[:3] = b2[:3] = 0.0  # zero field: degenerate levels
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
        steps = []  # every bisection step as (t, measure)
        calls.append((scan, steps))

        def step(t):
            steps.append((t, measure_at(t)))
            return steps[-1][1]

        return vanishing_point(scan, step)

    monkeypatch.setattr(thermal, "vanishing_point", traced)
    scalar = {"negativity": entanglement.negativity,
              "alb": lambda rho: entanglement.alb(rho, sweeps._antisym_basis33())}
    kinds = {name: set() for name in scalar}
    for b1, b2 in ((0.0, 0.0), (0.35, -0.35)):
        cfg = SweepConfig(B1=b1, B2=b2, ranges={"k": AxisRange(-6.0, 0.0, 4)},
                          measures=tuple(scalar))
        run_threshold(cfg)
        batched = calls[::-1]
        calls.clear()
        for k, *cells, t_ball in written.pop():
            params = QutritChainParams(J=cfg.J, K=k, B1=b1, B2=b2)
            spectrum = sym_eig(hamiltonian_qutrit(params))
            for (name, measure), cell in zip(scalar.items(), cells):
                want = thermal.estimate_ts(spectrum, QUTRIT_DIMS, measure)
                assert cell == ("" if want is None else want)  # zero difference
                (scan, steps), (want_scan, want_steps) = batched.pop(), calls.pop()
                assert np.array_equal(scan, want_scan) and steps == want_steps
                kinds[name].add(want if want in (None, thermal.TS_TMAX) else "inside")
            assert t_ball == thermal.tstar(spectrum, QUTRIT_SPLIT)
    for name in scalar:
        assert kinds[name] == {None, thermal.TS_TMAX, "inside"}


def test_csv_independent_of_batch_size(monkeypatch):
    # 25 points: one default batch, 25 batches of one, and batches of 7 with a short last one
    cfg = SweepConfig(mode="grid-b1b2", K=-1.7, T=0.2, measures=MEASURE_NAMES,
                      ranges={"b1": AxisRange(-3.0, 3.0, 5), "b2": AxisRange(-3.0, 3.0, 5)})
    # 400 scan temperatures per K: two default batches, or 400, or 58 of 7 with a short last one
    threshold = SweepConfig(B1=0.35, B2=-0.35, ranges={"k": AxisRange(-2.0, 0.0, 2)},
                            measures=("negativity", "alb"))
    want = run_sweep(cfg), run_threshold(threshold)
    for size in (1, 7):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        assert (run_sweep(cfg), run_threshold(threshold)) == want


def test_batch_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="temperature must be positive"):
        _measure_table(np.array([[-1.0, -1.0, 0.0, 0.0, 1.0], [-1.0, -1.0, 0.0, 0.0, 0.0]]),
                       ("negativity",))
