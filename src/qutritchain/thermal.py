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


def ground_state(spectrum: Spectrum, dims: BipartiteDims) -> DensityMatrix:
    """T -> 0 limit: uniform mixture over the ground multiplet."""
    e = spectrum.values
    mask = e <= e[0] + GROUND_WINDOW
    v = spectrum.vectors[:, mask]
    g = int(mask.sum())
    return DensityMatrix(mat=(v @ v.T) / g, dims=dims)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    return purity_of(rho.mat)


def purity_beta_derivative(spectrum: Spectrum, temperature: float) -> float:
    """dP/d(beta) = sum_ij 2 w_i^2 w_j (E_j - E_i), nonnegative for any spectrum."""
    e = spectrum.values
    w = boltzmann_weights(e, temperature)
    return float(2.0 * np.sum(np.outer(w * w, w) * (e[None, :] - e[:, None])))


def _gibbs_purity(energies: np.ndarray, beta: float) -> float:
    w = np.exp(-beta * (energies - energies.min()))
    w /= w.sum()
    return float(np.sum(w * w))


def tstar(spectrum: Spectrum, dims: MultipartiteDims) -> Optional[float]:
    """Temperature above which the Gibbs state enters the separable ball.

    Purity is monotone in beta, so the crossing with the ball threshold is
    unique when it exists; it is found by bracketing and bisection in beta to
    relative width 1e-11.  Returns None when the purity never leaves the ball
    (a flat spectrum, or a ground multiplet big enough that even the T -> 0
    purity 1/g stays at or below the threshold), meaning the criterion
    certifies separability at every temperature.
    """
    e = np.asarray(spectrum.values, dtype=float)
    if len(e) != dims.d:
        raise ValueError(f"spectrum has {len(e)} levels but dims product is {dims.d}")
    theta = dims.purity_threshold
    if float(e.max() - e.min()) <= 1e-12:
        return None
    g = int(np.count_nonzero(e <= e.min() + GROUND_WINDOW))
    if 1.0 / g <= theta:
        return None

    lo, hi = 0.0, 1.0
    while _gibbs_purity(e, hi) <= theta:
        hi *= 2.0
        if hi > 1e12:
            # splittings too small to resolve; within reach the state stays in the ball
            return None
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        if _gibbs_purity(e, mid) <= theta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-11 * hi:
            break
    return 2.0 / (lo + hi)


def vanishing_point(
    scan: np.ndarray, measure_at: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Largest temperature where a measure exceeds TS_TOL, per row of `scan`,
    the measure's values at the TS_SCAN temperatures, shape (rows, TS_GRID).

    The scan locates each row's last excursion above TS_TOL (the measure need
    not be monotone in T), then bisection narrows the vanishing point to a
    width of 1e-6.  All rows bisect in lockstep: each step calls
    measure_at(rows, temperatures) once, for the rows still wider than 1e-6 at
    their midpoints.  A row stops by its own width test, so its midpoints and
    result do not depend on the other rows.  Gives NaN where the measure never
    exceeds TS_TOL, and TS_TMAX where it is still above TS_TOL there (the
    estimate is truncated).
    """
    above = scan > TS_TOL
    hit = above.any(axis=1)
    last = TS_GRID - 1 - np.argmax(above[:, ::-1], axis=1)
    ts = np.where(hit, TS_TMAX, np.nan)
    rows = np.nonzero(hit & (last < TS_GRID - 1))[0]
    lo, hi = TS_SCAN[last[rows]], TS_SCAN[last[rows] + 1]
    wide = np.nonzero(hi - lo > 1e-6)[0]
    while wide.size:
        mid = 0.5 * (lo[wide] + hi[wide])
        up = measure_at(rows[wide], mid) > TS_TOL
        lo[wide[up]] = mid[up]
        hi[wide[~up]] = mid[~up]
        wide = wide[hi[wide] - lo[wide] > 1e-6]
    ts[rows] = 0.5 * (lo + hi)
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
