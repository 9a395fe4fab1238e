"""Dense numerical kernels for the small matrices used across the package.

Every operator handled here is real in its computational basis, so the
symmetric eigensolver is the single spectral workhorse.  Complex arithmetic
is only needed for plain matrix products (unitary conjugations in the
dense-coding routines) and never for an eigenproblem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-13


def maxabs(a: np.ndarray) -> float:
    """Largest absolute entry of an array (0 for an empty one)."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def require_symmetric(a: np.ndarray) -> np.ndarray:
    """Return `a` as a float array after checking shape, finiteness and symmetry.

    A stack (..., n, n) is checked matrix by matrix, each against its own scale."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    tol = SYMMETRY_RTOL * np.maximum(1.0, scale)
    dev = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    if not (dev <= tol).all():
        i = np.argmax(dev - tol)
        raise ValueError(
            f"matrix is not symmetric: max |A - A^T| = {dev.flat[i]:.3e} exceeds {tol.flat[i]:.3e}"
        )
    return a


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a real symmetric matrix.

    Attributes
    ----------
    values : ndarray
        Eigenvalues in ascending order.
    vectors : ndarray
        Orthonormal eigenvectors as columns; vectors[:, i] belongs to values[i].

    A stack of spectra carries the same layout behind leading axes.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __len__(self) -> int:
        return int(self.values.shape[-1])


def sym_eig(a: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix, or of each in a stack.

    The input must be symmetric within SYMMETRY_RTOL (relative to its largest
    entry); it is symmetrized before the solve so round-off in the caller's
    assembly cannot leak into the decomposition.  Deterministic for identical
    input bytes.
    """
    a = require_symmetric(a)
    values, vectors = np.linalg.eigh(0.5 * (a + a.swapaxes(-1, -2)))
    return Spectrum(values=values, vectors=vectors)


def masked_sum(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row sums of the 2-d array `x` over the entries where `mask` holds, each
    row added up exactly as np.sum(row[row_mask]) would add it."""
    counts = mask.sum(axis=1)
    out = np.zeros(len(x))
    # a set, not np.unique, whose first call takes 1.5 MB more resident memory
    for k in sorted(set(counts[counts > 0].tolist())):
        rows = counts == k
        out[rows] = x[rows][mask[rows]].reshape(-1, k).sum(axis=1)
    return out


def entropy_bits(p: np.ndarray) -> float | np.ndarray:
    """Shannon entropy (base 2) of a probability vector, or of each row of a 2-d array.

    Entries in [-1e-12, 0) are treated as round-off and clamped to 0; anything
    more negative, or a total off 1 by more than 1e-10, is rejected.
    """
    p = np.asarray(p, dtype=float)
    if p.size and float(p.min()) < -1e-12:
        raise ValueError(f"negative probability {p.min():.3e} below round-off tolerance")
    total = p.sum(axis=-1)
    off = np.abs(total - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"probabilities sum to {float(total[off][0])!r}, expected 1 within 1e-10")
    q = np.atleast_2d(np.clip(p, 0.0, None))
    positive = q > 0.0
    s = -masked_sum(q * np.log2(np.where(positive, q, 1.0)), positive)
    return float(s[0]) if p.ndim == 1 else s
