"""Entanglement measures and computable two-sided bounds for mixed states.

For a mixed bipartite state the I-concurrence itself needs a minimization
over decompositions, so the package works with a sandwich instead:

  * chen_lower_bound: sqrt(8 / (m(m-1))) * negativity, valid for any state.
  * alb: an algebraic lower bound built from the tau matrices
    T^a_{jk} = sqrt(w_j w_k) <chi_a | Phi_j x Phi_k>, where {chi_a} spans the
    antisymmetric-antisymmetric subspace of two copies.  Each tau matrix
    yields max(z_1 - sum_{i>1} z_i, 0) from its singular values; the bound is
    the best single-a value.  alb takes {w_j, Phi_j} from the eigenvalues of rho
    above RANK_CUTOFF, alb_mixture from the positive weights of any explicit
    decomposition (here: the thermal eigenensemble).
  * ub_mixture: the convexity upper bound sum_j w_j C(Phi_j) from any explicit
    pure-state decomposition (here: the thermal eigenensemble).

The chi vectors are kept unnormalized, <chi_a|chi_b> = 4 delta_ab, which is
exactly the convention that makes sqrt(sum_a |T^a|^2) collapse to the pure
I-concurrence on rank-1 states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numkernel import Spectrum
from .qstate import BipartiteDims, DensityMatrix, partial_transpose

# tau_matrices and alb drop each eigenvalue of rho at or below this as round-off, and
# ub_mixture each weight.
RANK_CUTOFF = 1e-14


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose on subsystem B."""
    mu = np.linalg.eigvalsh(partial_transpose(rho))
    return float(-np.sum(mu[mu < 0.0]))


def iconcurrence_pure(v: np.ndarray, dims: BipartiteDims) -> float:
    """Pure-state I-concurrence sqrt(2 (1 - Tr rho_A^2))."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] != dims.total:
        raise ValueError(f"vector shape {v.shape} does not match dims {dims}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"vector norm {norm!r} is not 1 within 1e-10")
    m = v.reshape(dims.da, dims.db)
    ra = m @ m.T
    return math.sqrt(max(2.0 * (1.0 - float(np.sum(ra * ra))), 0.0))


def chen_factor(dims: BipartiteDims) -> float:
    """Prefactor sqrt(8 / (m(m-1))) with m the smaller local dimension."""
    m = min(dims.da, dims.db)
    return math.sqrt(8.0 / (m * (m - 1.0)))


def chen_lower_bound(rho: DensityMatrix) -> float:
    """Negativity-based lower bound on the mixed-state I-concurrence."""
    return chen_factor(rho.dims) * negativity(rho)


@dataclass(frozen=True, eq=False)
class AntisymBasis:
    """Unnormalized basis of the antisym x antisym two-copy subspace.

    Row a of `vectors` is chi_a on (H_A x H_B) x (H_A x H_B), ordered so that
    the inner product with a stacked pair Phi_j x Phi_k is a plain dot product.
    """

    dims: BipartiteDims
    vectors: np.ndarray


def build_antisym_basis(dims: BipartiteDims) -> AntisymBasis:
    """All chi_a = t_{jk}^A x t_{lm}^B with t = |j>|k> - |k>|j>, j < k.

    Pairs are enumerated lexicographically, A-side outermost, giving
    n = da (da - 1) db (db - 1) / 4 vectors with Gram matrix 4 I.
    """
    da, db = dims.da, dims.db
    rows = []
    for ja in range(da - 1):
        for ka in range(ja + 1, da):
            ta = np.zeros((da, da))
            ta[ja, ka] = 1.0
            ta[ka, ja] = -1.0
            for jb in range(db - 1):
                for kb in range(jb + 1, db):
                    tb = np.zeros((db, db))
                    tb[jb, kb] = 1.0
                    tb[kb, jb] = -1.0
                    # chi[(a1 b1), (a2 b2)] = ta[a1, a2] * tb[b1, b2]
                    chi = np.einsum("ac,bd->abcd", ta, tb).reshape(da * db, da * db)
                    rows.append(chi.ravel())
    return AntisymBasis(dims=dims, vectors=np.array(rows))


def _tau_matrices(vectors: np.ndarray, weights: np.ndarray, basis: AntisymBasis) -> list[np.ndarray]:
    """T^a = Y^T C_a Y with Y the columns of `vectors` of positive weight, in
    descending weight, each scaled by the square root of its weight."""
    keep = weights > 0.0
    order = np.argsort(weights[keep])[::-1]
    y = vectors[:, keep][:, order] * np.sqrt(weights[keep][order])
    total = basis.dims.total
    return [y.T @ c @ y for c in basis.vectors.reshape(-1, total, total)]


def _basis_for(rho: DensityMatrix, basis: Optional[AntisymBasis]) -> AntisymBasis:
    if basis is None:
        return build_antisym_basis(rho.dims)
    if basis.dims != rho.dims:
        raise ValueError(f"basis dims {basis.dims} do not match state dims {rho.dims}")
    return basis


def _eigenpairs(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of rho above RANK_CUTOFF and their eigenvectors as columns."""
    w, v = np.linalg.eigh(rho.mat)
    return w[w > RANK_CUTOFF], v[:, w > RANK_CUTOFF]


def tau_matrices(rho: DensityMatrix, basis: Optional[AntisymBasis] = None) -> list[np.ndarray]:
    """The tau matrices of rho, one r x r symmetric block per chi vector.

    r is the number of eigenvalues of rho above RANK_CUTOFF, taken in
    descending order.  T^a_{jk} = sqrt(w_j w_k) Phi_j^T C_a Phi_k with C_a the
    chi vector reshaped to a (symmetric) matrix on the single-copy space.
    """
    w, v = _eigenpairs(rho)
    return _tau_matrices(v, w, _basis_for(rho, basis))


def alb_mixture(spectrum: Spectrum, weights: np.ndarray, basis: AntisymBasis) -> float:
    """Algebraic lower bound from the terms w_j > 0 of a decomposition sum_j w_j |Phi_j><Phi_j|.

    The bound does not depend on the decomposition, so a Gibbs state is best
    decomposed by the eigenvectors of H, whose Boltzmann weights carry no eigenvalue
    round-off: those of rho are ill-determined for weights near RANK_CUTOFF, which
    at T = 0.02 has moved alb(rho) by 3e-8.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != spectrum.values.shape:
        raise ValueError("one weight per spectrum level is required")
    best = 0.0
    for t in _tau_matrices(spectrum.vectors, w, basis):
        z = np.linalg.svd(t, compute_uv=False)
        best = max(best, float(z[0] - z[1:].sum()))
    return best


def alb(rho: DensityMatrix, basis: Optional[AntisymBasis] = None) -> float:
    """Algebraic lower bound: best single-tau value max(z1 - sum z_rest, 0),
    from the eigenpairs of rho above RANK_CUTOFF (see alb_mixture)."""
    w, v = _eigenpairs(rho)
    return alb_mixture(Spectrum(values=w, vectors=v), w, _basis_for(rho, basis))


def ub_mixture(spectrum: Spectrum, weights: np.ndarray, dims: BipartiteDims) -> float:
    """Convexity upper bound sum_j w_j C(Phi_j) over an explicit eigenensemble."""
    w = np.asarray(weights, dtype=float)
    if w.shape != spectrum.values.shape:
        raise ValueError("one weight per spectrum level is required")
    if float(w.min()) < -1e-12 or abs(float(w.sum()) - 1.0) > 1e-10:
        raise ValueError("weights must be a probability vector")
    total = 0.0
    for j in range(len(spectrum)):
        if w[j] > RANK_CUTOFF:
            total += w[j] * iconcurrence_pure(spectrum.vectors[:, j], dims)
    return total
