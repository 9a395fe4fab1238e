"""Gibbs states, purity diagnostics, and separability temperature estimates.

Units: k_B = 1, so beta = 1/T.  Weights are always computed from shifted
exponents exp(-(E - E_min)/T) to stay finite at low temperature.

Two separability temperatures appear:

  * tstar: the unique crossing of the Gibbs purity with the Gurvits-Barnum
    ball threshold 1/(d - 2^(2-m)); above it the state is certifiably
    separable regardless of any measure.
  * estimate_ts: the temperature where a chosen entanglement measure decays
    to the noise floor, found by a scan plus bisection (vanishing_point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numkernel import Spectrum, entropy_bits
from .qstate import BipartiteDims, DensityMatrix, purity_of

# Eigenvalues within this window of the minimum count as the ground multiplet.
GROUND_WINDOW = 1e-9

# estimate_ts scans TS_GRID temperatures up to TS_TMAX for a measure above TS_TOL.
TS_TMAX = 10.0
TS_GRID = 400
TS_TOL = 1e-9
TS_SCAN = np.linspace(TS_TMAX / TS_GRID, TS_TMAX, TS_GRID)


@dataclass(frozen=True)
class MultipartiteDims:
    """Subsystem sizes of an m-partite split, m >= 2."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) < 2 or any(s < 2 for s in self.sizes):
            raise ValueError(f"need at least two subsystems of dimension >= 2, got {self.sizes}")

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def d(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def purity_threshold(self) -> float:
        """Purity below which the state sits inside the separable ball."""
        return 1.0 / (self.d - 2.0 ** (2 - self.m))


def boltzmann_weights(energies: np.ndarray, temperature: float | np.ndarray) -> np.ndarray:
    """Normalized exp(-(E - E_min)/T); requires T > 0.

    A stack of spectra (..., n) takes one temperature or one per spectrum.
    """
    t = np.asarray(temperature, dtype=float)[..., None]
    if not (t > 0.0).all():
        raise ValueError(f"temperature must be positive, got {temperature}")
    e = np.asarray(energies, dtype=float)
    with np.errstate(over="ignore"):  # an exponent below the float range is a weight of 0
        w = np.exp((e.min(axis=-1, keepdims=True) - e) / t)
    return w / w.sum(axis=-1, keepdims=True)


def mixture(spectrum: Spectrum, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i |v_i><v_i| over the eigenvectors, per spectrum for a stack."""
    return (spectrum.vectors * weights[..., None, :]) @ spectrum.vectors.swapaxes(-1, -2)


def gibbs(spectrum: Spectrum, temperature: float, dims: BipartiteDims) -> DensityMatrix:
    """Thermal density matrix exp(-H/T)/Z built from the eigendecomposition."""
    w = boltzmann_weights(spectrum.values, temperature)
    return DensityMatrix(mat=mixture(spectrum, w), dims=dims)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    return purity_of(rho.mat)


def purity_beta_derivative(spectrum: Spectrum, temperature: float) -> float:
    """dP/d(beta) = sum_ij 2 w_i^2 w_j (E_j - E_i), nonnegative for any spectrum."""
    e = spectrum.values
    w = boltzmann_weights(e, temperature)
    return float(2.0 * np.sum(np.outer(w * w, w) * (e[None, :] - e[:, None])))


def _gibbs_purity(levels: np.ndarray, beta: np.ndarray) -> np.ndarray:
    w = np.exp(-beta[:, None] * (levels - levels.min(axis=1, keepdims=True)))
    w /= w.sum(axis=1, keepdims=True)
    return (w * w).sum(axis=1)


def _bisect(lo: np.ndarray, hi: np.ndarray, atol: float, rtol: float,
            holds: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Midpoint of each bracket [lo, hi] (updated in place) once hi - lo <= atol + rtol * hi.
    Brackets halve in lockstep, one holds(indices, midpoints) call per step for those still
    wider, each keeping lo = mid where it holds, else hi = mid, and stopping by its own test."""
    wide = np.flatnonzero(hi - lo > atol + rtol * hi)
    while wide.size:
        mid = 0.5 * (lo[wide] + hi[wide])
        up = holds(wide, mid)
        lo[wide[up]] = mid[up]
        hi[wide[~up]] = mid[~up]
        wide = wide[hi[wide] - lo[wide] > atol + rtol * hi[wide]]
    return 0.5 * (lo + hi)


def tstar_rows(levels: np.ndarray, dims: MultipartiteDims) -> np.ndarray:
    """tstar of each row of `levels`, shape (rows, dims.d), NaN where it is None, inf past
    the float range.  All rows bracket beta in lockstep, then _bisect narrows each to relative
    width 1e-11 at every finite scale; a row's result does not depend on the other rows."""
    e = np.asarray(levels, dtype=float)
    if e.shape[-1] != dims.d:
        raise ValueError(f"spectrum has {e.shape[-1]} levels but dims product is {dims.d}")
    theta = dims.purity_threshold
    g = np.count_nonzero(e <= e.min(axis=1, keepdims=True) + GROUND_WINDOW, axis=1)
    result = np.full(len(e), np.nan)
    rows = np.nonzero((np.ptp(e, axis=1) > 1e-12) & (1.0 / g > theta))[0]
    hi = np.ones(len(rows))
    inside = np.arange(len(rows))  # rows whose purity at hi is still inside the ball
    while inside.size:
        inside = inside[_gibbs_purity(e[rows[inside]], hi[inside]) <= theta]
        hi[inside] *= 2.0
        inside = inside[hi[inside] <= 1e12]
    # beyond 1e12 the splittings are too small to resolve: within reach the state stays in the ball
    rows, hi = rows[hi <= 1e12], hi[hi <= 1e12]
    beta = _bisect(np.zeros(len(rows)), hi, 0.0, 1e-11,
                   lambda i, mid: _gibbs_purity(e[rows[i]], mid) <= theta)
    with np.errstate(over="ignore"):  # a T* past the float range is inf
        result[rows] = 1.0 / beta
    return result


def tstar(spectrum: Spectrum, dims: MultipartiteDims) -> Optional[float]:
    """Temperature above which the Gibbs state enters the separable ball.

    Purity is monotone in beta, so the crossing with the ball threshold is
    unique when it exists; it is found by bracketing and bisection in beta to
    relative width 1e-11 at every finite scale (tstar_rows on one row).  None when
    the purity never leaves the ball (a flat spectrum, or a ground multiplet big
    enough that even the T -> 0 purity 1/g stays at or below the threshold),
    meaning the criterion certifies separability at every temperature.
    """
    t = tstar_rows(np.asarray(spectrum.values, dtype=float)[None], dims)[0]
    return None if np.isnan(t) else float(t)


def vanishing_point(
    scan: np.ndarray, measure_at: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Largest temperature where a measure exceeds TS_TOL, per row of `scan`,
    the measure's values at the TS_SCAN temperatures, shape (rows, TS_GRID),
    NaN at a temperature not evaluated.  A row may be any (measure, state)
    pair: measure_at tells them apart by row index.

    The scan locates each row's last excursion above TS_TOL (the measure need
    not be monotone in T), then _bisect narrows the vanishing point to a width
    of 1e-6, all rows in lockstep: each step calls measure_at(rows,
    temperatures) once, for the rows still wider at their midpoints, and a
    row's midpoints and result do not depend on the other rows.  Gives NaN
    where the measure never exceeds TS_TOL, and TS_TMAX where it is still
    above TS_TOL there (the estimate is truncated).
    """
    with np.errstate(invalid="ignore"):  # a point not evaluated is not above TS_TOL
        above = scan > TS_TOL
    hit = above.any(axis=1)
    last = TS_GRID - 1 - np.argmax(above[:, ::-1], axis=1)
    ts = np.where(hit, TS_TMAX, np.nan)
    rows = np.nonzero(hit & (last < TS_GRID - 1))[0]
    ts[rows] = _bisect(TS_SCAN[last[rows]], TS_SCAN[last[rows] + 1], 1e-6, 0.0,
                       lambda i, mid: measure_at(rows[i], mid) > TS_TOL)
    return ts


def estimate_ts(
    spectrum: Spectrum, dims: BipartiteDims, measure: Callable[[DensityMatrix], float],
) -> Optional[float]:
    """Largest temperature where `measure` on the Gibbs state exceeds TS_TOL.

    The scalar reference of the batched threshold run: vanishing_point on one
    row, with every state built and measured one at a time.  None where the
    measure never exceeds TS_TOL.
    """

    def measure_at(temperatures: np.ndarray) -> np.ndarray:
        return np.array([measure(gibbs(spectrum, float(t), dims)) for t in temperatures])

    ts = vanishing_point(measure_at(TS_SCAN)[None], lambda rows, t: measure_at(t))[0]
    return None if np.isnan(ts) else float(ts)


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    return entropy_bits(np.linalg.eigvalsh(rho.mat))
