"""Bipartite state containers and the basic channel-free manipulations.

Composite basis convention: for local dimensions (da, db) the product state
|i>|k> sits at row i*db + k, which is exactly numpy's kron ordering.  All
density matrices kept in this type are real symmetric; complex intermediates
(unitary conjugates) live as plain arrays in the modules that need them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import require_symmetric

TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions (da, db) of a bipartite system."""

    da: int
    db: int

    def __post_init__(self) -> None:
        if self.da < 2 or self.db < 2:
            raise ValueError(f"local dimensions must be at least 2, got ({self.da}, {self.db})")

    @property
    def total(self) -> int:
        return self.da * self.db


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated real bipartite density matrix."""

    mat: np.ndarray
    dims: BipartiteDims

    def __post_init__(self) -> None:
        if np.ndim(self.mat) != 2:
            raise ValueError(f"expected a square matrix, got shape {np.shape(self.mat)}")
        object.__setattr__(self, "mat", check_density(self.mat, self.dims))


def check_density(mat: np.ndarray, dims: BipartiteDims, eigs: np.ndarray | None = None) -> np.ndarray:
    """DensityMatrix checks on a matrix or a stack; returns it as a float array.

    `eigs` are its eigenvalues where the caller knows them, such as the
    weights of a mixture of orthonormal vectors; otherwise they are solved for.
    """
    mat = require_symmetric(mat)
    if mat.shape[-1] != dims.total:
        raise ValueError(
            f"matrix is {mat.shape[-1]}x{mat.shape[-1]} but dims {dims} need {dims.total}"
        )
    tr = mat.trace(axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise ValueError(f"trace {float(tr[off][0])!r} is not 1 within {TRACE_TOL}")
    low = float((np.linalg.eigvalsh(mat) if eigs is None else eigs).min())
    if low < EIG_FLOOR:
        raise ValueError(f"matrix is not positive semidefinite: lowest eigenvalue {low:.3e}")
    return mat


def _split(mat: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    return mat.reshape(mat.shape[:-2] + (dims.da, dims.db, dims.da, dims.db))


def partial_transpose_of(mat: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Partial transpose on subsystem B of a matrix, or of each in a stack (..., d, d)."""
    return _split(mat, dims).swapaxes(-3, -1).reshape(mat.shape)


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Partial transpose of `rho` on subsystem B, as a plain matrix."""
    return partial_transpose_of(rho.mat, rho.dims)


def partial_trace(rho: DensityMatrix, traced: str = "B") -> np.ndarray:
    """Reduced state after tracing out one subsystem, as a plain matrix."""
    t = _split(rho.mat, rho.dims)
    if traced == "B":
        return np.einsum("...ikjk->...ij", t)
    if traced == "A":
        return np.einsum("...kikj->...ij", t)
    raise ValueError(f"traced must be 'A' or 'B', got {traced!r}")


def max_entangled(d: int) -> np.ndarray:
    """Maximally entangled vector (1/sqrt(d)) sum_i |ii> for equal local dims d."""
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    v = np.zeros(d * d)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def singlet() -> np.ndarray:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    return np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def dm_from_pure(v: np.ndarray, dims: BipartiteDims) -> DensityMatrix:
    """Projector onto a unit vector as a DensityMatrix."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] != dims.total:
        raise ValueError(f"vector length {v.shape} does not match dims {dims}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"vector norm {norm!r} is not 1 within 1e-10")
    return DensityMatrix(mat=np.outer(v, v), dims=dims)
