"""Gibbs states, purity diagnostics, and separability temperature estimates.

Units: k_B = 1, so beta = 1/T.  Weights are always computed from shifted
exponents exp(-(E - E_min)/T) to stay finite at low temperature.

Two separability temperatures appear:

  * tstar: the unique crossing of the Gibbs purity with the Gurvits-Barnum
    ball threshold 1/(d - 2^(2-m)); above it the state is certifiably
    separable regardless of any measure.
  * estimate_ts: the temperature where a chosen entanglement measure decays
    to the noise floor, found by a scan plus bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .numkernel import Spectrum, entropy_bits
from .qstate import BipartiteDims, DensityMatrix, purity_of

# Eigenvalues within this window of the minimum count as the ground multiplet.
GROUND_WINDOW = 1e-9


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


def separable_ball_radius(d: int) -> float:
    """Hilbert-Schmidt radius 1/sqrt(d(d-1)) of the bipartite separable ball.

    Equivalent to the purity form of the criterion: || rho - I/d ||_2 below
    this radius is the same condition as Tr(rho^2) <= 1/(d-1).
    """
    if d < 4:
        raise ValueError(f"a bipartite system has d >= 4, got {d}")
    return 1.0 / math.sqrt(d * (d - 1.0))


@dataclass(frozen=True, eq=False)
class GibbsState:
    """A spectrum together with its Boltzmann weights at one temperature."""

    spectrum: Spectrum
    temperature: float
    weights: np.ndarray


def boltzmann_weights(energies: np.ndarray, temperature: float | np.ndarray) -> np.ndarray:
    """Normalized exp(-(E - E_min)/T); requires T > 0.

    A stack of spectra (..., n) takes one temperature or one per spectrum.
    """
    t = np.asarray(temperature, dtype=float)[..., None]
    if not (t > 0.0).all():
        raise ValueError(f"temperature must be positive, got {temperature}")
    e = np.asarray(energies, dtype=float)
    w = np.exp((e.min(axis=-1, keepdims=True) - e) / t)
    return w / w.sum(axis=-1, keepdims=True)


def gibbs_state(spectrum: Spectrum, temperature: float) -> GibbsState:
    return GibbsState(
        spectrum=spectrum,
        temperature=temperature,
        weights=boltzmann_weights(spectrum.values, temperature),
    )


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


def purity_beta_derivative(g: GibbsState) -> float:
    """dP/d(beta) = sum_ij 2 w_i^2 w_j (E_j - E_i), nonnegative for any spectrum."""
    w = g.weights
    e = g.spectrum.values
    return float(2.0 * np.sum(np.outer(w * w, w) * (e[None, :] - e[:, None])))


def gb_separable(rho: Union[DensityMatrix, np.ndarray], dims: MultipartiteDims) -> bool:
    """Gurvits-Barnum ball test: purity at or below the m-partite threshold."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] != dims.d:
        raise ValueError(f"matrix dimension {mat.shape[0]} does not match dims product {dims.d}")
    tr = float(np.trace(mat))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"trace {tr!r} is not 1 within 1e-10")
    return purity_of(mat) <= dims.purity_threshold


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


def estimate_ts(
    spectrum: Spectrum,
    dims: BipartiteDims,
    measure: Callable[[DensityMatrix], float],
    tmax: float = 10.0,
    grid: int = 400,
    tol: float = 1e-9,
) -> Optional[float]:
    """Largest temperature where `measure` on the Gibbs state exceeds `tol`.

    A grid scan up to tmax locates the last excursion above tol (the measure
    need not be monotone in T), then bisection narrows the vanishing point to
    a width of 1e-6.  Returns None if the measure never exceeds tol, and tmax
    if it is still above tol there (the estimate is truncated).
    """
    if tmax <= 0.0 or grid < 2:
        raise ValueError(f"need tmax > 0 and grid >= 2, got tmax={tmax}, grid={grid}")
    ts = np.linspace(tmax / grid, tmax, grid)
    vals = np.array([measure(gibbs(spectrum, float(t), dims)) for t in ts])
    above = np.nonzero(vals > tol)[0]
    if above.size == 0:
        return None
    i = int(above[-1])
    if i == grid - 1:
        return float(tmax)
    lo, hi = float(ts[i]), float(ts[i + 1])
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if measure(gibbs(spectrum, mid, dims)) > tol:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    return entropy_bits(np.linalg.eigvalsh(rho.mat))
