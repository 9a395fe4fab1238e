"""Symmetry oracles: maps of the parameters under which every result is known without a
reference path.

  * the global field flip B1, B2 -> -B1, -B2 is a local unitary (Sz -> -Sz on both sites),
    so it keeps every measure;
  * scaling H and T by c keeps every measure, and scales T* and every ts by c.

The known defects stay visible as strict xfails that name the ROADMAP item fixing them.
"""

import numpy as np
import pytest

from qutritchain import thermal
from qutritchain.sweeps import (
    MEASURE_NAMES, QUTRIT_SPLIT, AxisRange, SweepConfig, _measure_table, _spectra, run_threshold,
)

SCALES = (1e-3, 10.0, 1e6)
UB = MEASURE_NAMES.index("ub")


def _rows():
    """Random (J, K, B1, B2, T) rows, couplings and fields uniform on [-3, 3] and T
    log-uniform on [0.03, 5]: 300 at zero field, 300 with B1 = B2 and 600 with neither.
    Returns the rows and the zero-field mask."""
    rng = np.random.default_rng(36)
    n = 1200
    points = np.column_stack([rng.uniform(-3.0, 3.0, (n, 4)), 10.0 ** rng.uniform(-1.5, 0.7, n)])
    points[:300, 2:4] = 0.0
    points[300:600, 3] = points[300:600, 2]
    return points, np.arange(n) < 300


def _moved(c):
    """|measures at the mapped rows - measures at the rows|, the map the field flip or
    scaling by c, and the zero-field mask."""
    points, zero = _rows()
    mapped = c * points if c != "flip" else points * [1.0, 1.0, -1.0, -1.0, 1.0]
    return np.abs(_measure_table(mapped, MEASURE_NAMES)
                  - _measure_table(points, MEASURE_NAMES)), zero


@pytest.mark.parametrize("c", ["flip", *SCALES])
def test_measures_keep_under_flip_and_scaling(c):
    moved, zero = _moved(c)
    assert np.delete(moved, UB, axis=1).max() <= 1e-13
    # off zero field no level ties inside its sector, so ub's basis is unique up to sign
    assert moved[~zero, UB].max() <= 1e-13


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: ub at tied levels depends on the "
                   "eigensolver's basis, which the map changes")
@pytest.mark.parametrize("c", ["flip", *SCALES])
def test_ub_keeps_under_flip_and_scaling_at_zero_field(c):
    moved, zero = _moved(c)
    assert moved[zero, UB].max() <= 1e-13


@pytest.mark.parametrize("c", SCALES)
def test_tstar_scales_with_the_levels(c):
    points, _ = _rows()
    [(_, sectors)] = _spectra(points[:256, :4])
    levels = np.sort(sectors.values, axis=1)
    want = thermal.tstar_rows(levels, QUTRIT_SPLIT)
    assert np.isfinite(want).any()
    np.testing.assert_allclose(thermal.tstar_rows(c * levels, QUTRIT_SPLIT), c * want,
                               rtol=2e-11, atol=0.0)


def _threshold(c):
    """ts_negativity, ts_alb and tstar of the J = -c line, K from -2c to -c."""
    cfg = SweepConfig(J=-c, ranges={"k": AxisRange(-2.0 * c, -c, 3)},
                      measures=("negativity", "alb"))
    lines = "".join(run_threshold(cfg)).split()[1:]
    return np.array([[float(x) if x else np.nan for x in line.split(",")[1:]] for line in lines])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: ts comes from a fixed temperature "
                   "grid up to TS_TMAX with an absolute width, not on the scale of T*")
@pytest.mark.parametrize("c", SCALES)
def test_ts_scales_with_the_hamiltonian(c):
    want = _threshold(1.0)
    assert np.isfinite(want[:2]).all() and np.isnan(want[2, :2]).all()  # no ts at K = -1
    np.testing.assert_allclose(_threshold(c), c * want, rtol=1e-9, atol=0.0)
