"""Dense numerical kernels for the small matrices used across the package.

Every Hamiltonian here is real in its computational basis, and block_eig solves
its eigenvectors: it holds the np.linalg.eigh call for blocks of 3x3 and up, and
sym_eig is block_eig with one block.  Blocks of 1x1 and 2x2 are solved in closed
form (eigh2), where LAPACK's cost per matrix would dominate.  It is not the only
eigensolver: entanglement.tau_matrices and alb call np.linalg.eigh on rho, reads of
eigenvalues alone call np.linalg.eigvalsh, and densecode._matrix_entropy solves the
complex Weyl-ensemble states of holevo_chi, the one eigenproblem in complex numbers.
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
    scale = np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1)))  # max |a|, with no |a| copy
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    tol = SYMMETRY_RTOL * np.maximum(1.0, scale)
    diff = a - a.swapaxes(-1, -2)
    dev = np.maximum(diff.max(axis=(-2, -1)), -diff.min(axis=(-2, -1)))
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


def eigh2(m: np.ndarray, vectors: bool = True) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh, or eigvalsh without `vectors`, of each symmetric 2x2 matrix of a stack,
    in closed form and reading the lower triangle.  The level of larger magnitude is
    mid +- root / 2; the other is the determinant over it, formed as LAPACK dlae2 forms it,
    so it keeps its relative accuracy where mid - root / 2 loses every digit.  Entries past
    the float range give non-finite levels, without a warning."""
    a, b, c = m[..., 0, 0], m[..., 1, 0], m[..., 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        big = 0.5 * (a + c + np.copysign(np.hypot(a - c, 2.0 * b), a + c))
        swap = np.abs(a) > np.abs(c)
        safe = np.where(big != 0.0, big, 1.0)  # big is 0 only on a zero matrix
        other = np.where(swap, a, c) / safe * np.where(swap, c, a) - b / safe * b
        values = np.stack([np.minimum(big, other), np.maximum(big, other)], axis=-1)
        if not vectors:
            return values
        t = 0.5 * np.arctan2(2.0 * b, a - c)  # the upper level's vector is (cos t, sin t)
    cos, sin = np.cos(t), np.sin(t)
    # columns (-sin t, cos t) and (cos t, sin t): the matrix is symmetric, so also its rows
    return values, np.stack([-sin, cos, cos, sin], axis=-1).reshape(t.shape + (2, 2))


def block_eig(a: np.ndarray, blocks: tuple[tuple[int, ...], ...]) -> Spectrum:
    """Eigendecomposition of a real symmetric matrix, or of each in a stack,
    that is block diagonal on the index sets `blocks`, solved block by block.

    Levels are numbered block by block in the order of `blocks`, ascending
    within each block, and each eigenvector is zero outside its block, also
    where levels of two blocks are degenerate.  Entries outside the blocks are
    taken to be zero and are not read.  The input must pass require_symmetric.
    A 1x1 block is its own level, a 2x2 block goes to eigh2 and a larger one to
    np.linalg.eigh, as given: both read only the lower triangle, and the
    package passes matrices symmetric bit for bit, as hamiltonian_qutrit
    assembles them.
    """
    a = require_symmetric(a)
    values = np.empty(a.shape[:-1])
    vectors = np.zeros(a.shape)
    start = 0
    for block in blocks:
        idx = np.array(block)
        levels = np.arange(start, start + len(block))
        sub = a[..., idx[:, None], idx]
        if len(block) == 1:
            values[..., start], vectors[..., block[0], start] = sub[..., 0, 0], 1.0
        else:
            solve = eigh2 if len(block) == 2 else np.linalg.eigh
            values[..., levels], vectors[..., idx[:, None], levels] = solve(sub)
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
