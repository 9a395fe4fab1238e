"""Dense numerical kernels for the small matrices used across the package.

Every operator handled here is real in its computational basis, so the
symmetric eigensolver is the single spectral workhorse: block_eig holds the
one np.linalg.eigh call, and sym_eig is block_eig with one block.  Complex
arithmetic is only needed for plain matrix products (unitary conjugations in
the dense-coding routines) and never for an eigenproblem.
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
        Eigenvalues in ascending order (from block_eig: ascending within each block).
    vectors : ndarray
        Orthonormal eigenvectors as columns; vectors[:, i] belongs to values[i].

    A stack of spectra carries the same layout behind leading axes.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __len__(self) -> int:
        return int(self.values.shape[-1])


def sym_eig(a: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix, or of each in a stack:
    block_eig with one block over all indices, so levels ascend.  Deterministic
    for identical input bytes."""
    return block_eig(a, (tuple(range(np.shape(a)[-1])),))


def block_eig(a: np.ndarray, blocks: tuple[tuple[int, ...], ...]) -> Spectrum:
    """Eigendecomposition of a real symmetric matrix, or of each in a stack,
    that is block diagonal on the index sets `blocks`, solved block by block.

    Levels are numbered block by block in the order of `blocks`, ascending
    within each block, and each eigenvector is zero outside its block, also
    where levels of two blocks are degenerate.  Entries outside the blocks are
    taken to be zero and are not read.  The input must pass require_symmetric,
    and each block goes to np.linalg.eigh as given, which reads only its lower
    triangle: the package passes matrices symmetric bit for bit, as
    hamiltonian_qutrit assembles them.
    """
    a = require_symmetric(a)
    values = np.empty(a.shape[:-1])
    vectors = np.zeros(a.shape)
    start = 0
    for block in blocks:
        idx = np.array(block)
        levels = np.arange(start, start + len(block))
        values[..., levels], vectors[..., idx[:, None], levels] = np.linalg.eigh(
            a[..., idx[:, None], idx])
        start += len(block)
    return Spectrum(values=values, vectors=vectors)


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
    q = np.clip(p, 0.0, None)
    s = -(q * np.log2(np.where(q > 0.0, q, 1.0))).sum(axis=-1)
    return float(s) if p.ndim == 1 else s
