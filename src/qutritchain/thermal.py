"""Gibbs states, purity diagnostics, and separability temperature estimates.

Units: k_B = 1, so beta = 1/T.  Weights are always computed from shifted
exponents exp(-(E - E_min)/T) to stay finite at low temperature.

Two separability temperatures appear:

  * tstar: the unique crossing of the Gibbs purity with the Gurvits-Barnum
    ball threshold 1/(d - 2^(2-m)); above it the state is certifiably
    separable regardless of any measure.
  * estimate_ts: the temperature where a chosen entanglement measure decays
    to the noise floor, found by a scan plus ITP steps on the grid bracket
    above its last excursion (vanishing_point, _itp): on a smooth witness of
    the measure in a batched run, on the midpoints of a NaN one in estimate_ts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numkernel import Spectrum, entropy_bits
from .qstate import BipartiteDims, DensityMatrix

# Levels within ground_window of the minimum count as the ground multiplet: GROUND_WINDOW,
# or ROUNDOFF x the largest |E| where wider, which holds a tie that round-off split at any
# scale (the sector solves split one by at most about 6 eps x the largest |E|).
GROUND_WINDOW, ROUNDOFF = 1e-9, 64 * np.finfo(float).eps

# estimate_ts scans TS_GRID temperatures up to TS_TMAX for a measure above TS_TOL.
TS_TMAX = 10.0
TS_GRID = 400
TS_TOL = 1e-9
TS_SCAN = np.linspace(TS_TMAX / TS_GRID, TS_TMAX, TS_GRID)

# _itp's truncation constant c of kappa1 = c / (hi0 - lo0).  On the threshold-k benchmark line
# at seeds 0-5, 0.02 took 4-5 steps after the ends; 0.01 took up to 6, 0.05 5 and 0.1 6, the
# last two with more states.
ITP_C = 0.02


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
    """Normalized exp(-(E - E_min)/T); requires T > 0.  Levels within ground_window of
    E_min weigh as E_min, as tstar counts them, however round-off split them.

    A stack of spectra (..., n) takes one temperature or one per spectrum.
    """
    t = np.asarray(temperature, dtype=float)[..., None]
    if not (t > 0.0).all():
        raise ValueError(f"temperature must be positive, got {temperature}")
    e = np.asarray(energies, dtype=float)
    gap = e - e.min(axis=-1, keepdims=True)
    gap[gap <= ground_window(e)[..., None]] = 0.0
    with np.errstate(over="ignore"):  # an exponent below the float range is a weight of 0
        w = np.exp(-gap / t)
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
    return float((rho.mat * rho.mat).sum())


def purity_beta_derivative(spectrum: Spectrum, temperature: float) -> float:
    """dP/d(beta) = sum_ij 2 w_i^2 w_j (E_j - E_i), nonnegative for any spectrum."""
    e = spectrum.values
    w = boltzmann_weights(e, temperature)
    return float(2.0 * np.sum(np.outer(w * w, w) * (e[None, :] - e[:, None])))


def _gibbs_purity(levels: np.ndarray, beta: np.ndarray) -> np.ndarray:
    w = np.exp(-beta[:, None] * (levels - levels.min(axis=1, keepdims=True)))
    w /= w.sum(axis=1, keepdims=True)
    return (w * w).sum(axis=1)


def ground_window(levels: np.ndarray) -> np.ndarray:  # see GROUND_WINDOW
    return np.maximum(GROUND_WINDOW, ROUNDOFF * np.abs(levels).max(axis=-1))


def _bisect(lo: np.ndarray, hi: np.ndarray, rtol: float,
            holds: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """tstar_rows' bisection: the midpoint of each bracket [lo, hi] (updated in place) once
    hi - lo <= rtol * hi.  Brackets halve in lockstep, one holds(indices, midpoints) call per
    halving of those still wider: lo = mid where holds is true at mid, else hi = mid."""
    wide = np.flatnonzero(hi - lo > rtol * hi)
    while wide.size:
        mid = 0.5 * (lo[wide] + hi[wide])
        up = holds(wide, mid)
        lo[wide[up]] = mid[up]
        hi[wide[~up]] = mid[~up]
        wide = wide[hi[wide] - lo[wide] > rtol * hi[wide]]
    return 0.5 * (lo + hi)


def _itp(lo: np.ndarray, hi: np.ndarray, atol: float,
         at: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Midpoint of each bracket [lo, hi] (updated in place) once hi - lo <= atol, by ITP steps
    (Oliveira & Takahashi, ACM TOMS 47(1), 2021) with kappa1 = ITP_C / (hi0 - lo0), kappa2 = 2
    and n0 = 1, all brackets in lockstep.  at(indices, points) gives two values at each point:
    g, where g > 0 holds, and a witness f, which should be smooth, positive where g is, and
    cross 0 with it.

    The first call reads f at both ends of every bracket wider than atol; then each step is
    one call over the brackets still wider.  A step takes the regula falsi point of f at the
    two ends, moved delta = kappa1 w^2 towards the midpoint (w the bracket's width; the
    midpoint where delta passes it) and kept within r = w0 2^-j - w/2 of it at step j, w0
    the first width; the midpoint itself where f does not bracket a crossing (f(lo) <= 0,
    f(hi) > 0, or NaN).  g alone moves lo (where g > 0) or hi, so after step j the width is
    at most w0 2^-j: a bracket that halving stops in n steps stops in at most n + 1,
    whatever f is.  A bracket's points and result do not depend on the other brackets."""
    wide = np.flatnonzero(hi - lo > atol)
    w0, f_lo, f_hi = hi - lo, np.empty(len(lo)), np.empty(len(lo))
    if wide.size:
        f_lo[wide], f_hi[wide] = np.split(at(np.tile(wide, 2), np.r_[lo[wide], hi[wide]])[1], 2)
    step = 0
    while wide.size:
        a, b, fa, fb = lo[wide], hi[wide], f_lo[wide], f_hi[wide]
        w, mid = b - a, 0.5 * (a + b)
        r = np.maximum(w0[wide] * 0.5 ** step - 0.5 * w, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # not taken where f brackets nothing
            falsi = a + w * (fa / (fa - fb))
            sigma = np.sign(mid - falsi)
            delta = ITP_C / w0[wide] * w * w  # truncation towards the midpoint
            x = np.where(delta <= np.abs(mid - falsi), falsi + sigma * delta, mid)
            x = np.where(np.abs(x - mid) <= r, x, mid - sigma * r)  # projected
            x = np.where((fa > 0.0) & (fb <= 0.0), x, mid)
        g, fx = at(wide, x)
        up = g > 0.0
        lo[wide[up]], f_lo[wide[up]] = x[up], fx[up]
        hi[wide[~up]], f_hi[wide[~up]] = x[~up], fx[~up]
        wide = wide[hi[wide] - lo[wide] > atol]
        step += 1
    return 0.5 * (lo + hi)


def tstar_rows(levels: np.ndarray, dims: MultipartiteDims) -> np.ndarray:
    """tstar of each row of `levels`, shape (rows, dims.d), NaN where it is None, inf past
    the float range.  All rows bracket beta in lockstep, then _bisect halves each (T* has no
    witness for _itp) to relative width 1e-11 at any finite scale, each row on its own.
    A row brackets only where 1/g > theta, g its levels within ground_window of the minimum;
    the others lie delta > 1e-9 above it.  For a qutrit pair (g <= 7) the purity, at least
    (1 + (9 - g) exp(-beta delta))^-2 / g, leaves the ball by beta = 3.37 / delta < 2^32."""
    e = np.asarray(levels, dtype=float)
    if e.shape[-1] != dims.d:
        raise ValueError(f"spectrum has {e.shape[-1]} levels but dims product is {dims.d}")
    theta = dims.purity_threshold
    g = np.count_nonzero(e <= e.min(axis=1, keepdims=True) + ground_window(e)[:, None], axis=1)
    result = np.full(len(e), np.nan)
    rows = np.flatnonzero(1.0 / g > theta)
    hi = np.ones(len(rows))
    inside = np.arange(len(rows))  # rows whose purity at hi is still inside the ball
    while inside.size:
        inside = inside[_gibbs_purity(e[rows[inside]], hi[inside]) <= theta]
        hi[inside] *= 2.0
    beta = _bisect(np.zeros(len(rows)), hi, 1e-11,
                   lambda i, mid: _gibbs_purity(e[rows[i]], mid) <= theta)
    with np.errstate(over="ignore"):  # a T* past the float range is inf
        result[rows] = 1.0 / beta
    return result


def tstar(spectrum: Spectrum, dims: MultipartiteDims) -> Optional[float]:
    """Temperature above which the Gibbs state enters the separable ball.

    Purity is monotone in beta, so the crossing with the ball threshold is
    unique when it exists; it is found by bracketing and bisection in beta to
    relative width 1e-11 at every finite scale (tstar_rows on one row).  None when
    the purity never leaves the ball (a ground multiplet, its g levels within
    ground_window, so big that even the T -> 0 purity 1/g is at most the threshold),
    meaning the criterion certifies separability at every temperature.
    """
    t = tstar_rows(np.asarray(spectrum.values, dtype=float)[None], dims)[0]
    return None if np.isnan(t) else float(t)


def vanishing_point(scan: np.ndarray,
                    measure_at: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Largest temperature where a measure exceeds TS_TOL, per row of `scan`,
    the measure's values at the TS_SCAN temperatures, shape (rows, TS_GRID),
    NaN at a temperature not evaluated.  A row may be any (measure, state)
    pair: measure_at tells them apart by row index.

    The scan locates each row's last excursion above TS_TOL (the measure need
    not be monotone in T), then _itp narrows the grid bracket above it to a
    width of 1e-6, all rows in lockstep, one measure_at(rows, temperatures)
    call per step after one for both ends; a row's points and result do not
    depend on the other rows.  measure_at gives the measure and a witness of
    it, shape (2, points): _itp steps on witness - TS_TOL while the measure
    alone moves the ends.  A smooth witness, not clamped at 0, saves steps;
    one that disagrees with the measure costs one step more than the 15
    halvings at most, and a NaN one takes the midpoints of bisection.  Gives
    NaN where the measure never exceeds TS_TOL, and TS_TMAX where it is still
    above TS_TOL there (the estimate is truncated).
    """
    with np.errstate(invalid="ignore"):  # a point not evaluated is not above TS_TOL
        above = scan > TS_TOL
    hit = above.any(axis=1)
    last = TS_GRID - 1 - np.argmax(above[:, ::-1], axis=1)
    ts = np.where(hit, TS_TMAX, np.nan)
    rows = np.nonzero(hit & (last < TS_GRID - 1))[0]
    lo, hi = TS_SCAN[last[rows]], TS_SCAN[last[rows] + 1]
    ts[rows] = _itp(lo, hi, 1e-6, lambda i, t: measure_at(rows[i], t) - TS_TOL)
    return ts


def estimate_ts(
    spectrum: Spectrum, dims: BipartiteDims, measure: Callable[[DensityMatrix], float],
) -> Optional[float]:
    """Largest temperature where `measure` on the Gibbs state exceeds TS_TOL.

    The scalar reference of the batched threshold run: vanishing_point on one
    row, with every state built and measured one at a time.  Its witness is
    NaN, so every step takes the midpoint, as bisection does; it lands within
    1e-6 of the batched run's ts, both within 5e-7 of a TS_TOL crossing of the
    measure.  None where the measure never exceeds TS_TOL.
    """

    def measure_at(temperatures: np.ndarray) -> np.ndarray:  # the measure and a NaN witness
        return np.array([[measure(gibbs(spectrum, float(t), dims)) for t in temperatures],
                         temperatures * np.nan])

    ts = vanishing_point(measure_at(TS_SCAN)[:1], lambda rows, t: measure_at(t))[0]
    return None if np.isnan(ts) else float(ts)


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    return entropy_bits(np.linalg.eigvalsh(rho.mat))
