"""The batched sweep path against the single-state reference `_sweep_worker`."""

import dataclasses

import numpy as np
import pytest

from qutritchain import sweeps
from qutritchain.sweeps import (
    MEASURE_NAMES, SWEEP_MODES, AxisRange, SweepConfig, _measure_table, _sweep_worker, run_sweep,
)

# Largest allowed gap between a batched measure and its single-state value.
MAX_ABS_DIFF = 1e-12


def reference_table(points, names):
    return np.array([_sweep_worker(tuple(float(x) for x in p) + (tuple(names),)) for p in points])


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


def test_csv_independent_of_batch_size_and_threads(monkeypatch):
    # 25 points: one default batch, 25 batches of one, and batches of 7 with a short last one
    cfg = SweepConfig(mode="grid-b1b2", K=-1.7, T=0.2, measures=MEASURE_NAMES,
                      ranges={"b1": AxisRange(-3.0, 3.0, 5), "b2": AxisRange(-3.0, 3.0, 5)})
    want = run_sweep(cfg)
    assert run_sweep(dataclasses.replace(cfg, threads=2)) == want
    for size in (1, 7):
        monkeypatch.setattr(sweeps, "CHUNK_POINTS", size)
        assert run_sweep(cfg) == want


def test_batch_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="temperature must be positive"):
        _measure_table(np.array([[-1.0, -1.0, 0.0, 0.0, 1.0], [-1.0, -1.0, 0.0, 0.0, 0.0]]),
                       ("negativity",))
