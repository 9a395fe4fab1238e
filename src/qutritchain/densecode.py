"""Dense-coding capacity of a shared bipartite state.

The sender applies one of d^2 Heisenberg-Weyl unitaries U_{x,y} to their
side; the receiver decodes from the joint state.  For the uniform signal
ensemble the Holevo bound collapses to

    C = log2(d) + S(rho_B) - S(rho_AB),

and the protocol beats the classical log2(d) exactly when S(rho_B) > S(rho_AB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import entropy_bits
from .qstate import DensityMatrix, partial_trace


def heisenberg_weyl(d: int) -> np.ndarray:
    """All d^2 shift-and-phase unitaries, as an array U[x, y] of d x d matrices.

    U_{x,y} = sum_j exp(i 2 pi j x / d) |j + y mod d><j|.  For d = 2 these are
    I, sigma_x, sigma_z and -i sigma_y.
    """
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    x, y, j = np.ix_(np.arange(d), np.arange(d), np.arange(d))
    u = np.zeros((d, d, d, d), dtype=complex)
    u[x, y, (j + y) % d, j] = np.exp(2.0j * math.pi * x * j / d)
    return u


def _conjugates(rho: DensityMatrix, unitaries: np.ndarray) -> np.ndarray:
    """(U x I) rho (U x I)^dagger for each side-A unitary U of the stack `unitaries`."""
    full = np.kron(unitaries.reshape(-1, rho.dims.da, rho.dims.da), np.eye(rho.dims.db))
    return full @ rho.mat @ full.conj().swapaxes(-1, -2)


def _matrix_entropy(mat: np.ndarray) -> float:
    """Von Neumann entropy in bits of a (real or complex) hermitian matrix."""
    return entropy_bits(np.linalg.eigvalsh(mat))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Signal states with their probabilities; members may be complex hermitian."""

    probabilities: np.ndarray
    states: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size != len(self.states) or p.size == 0:
            raise ValueError("need one probability per state")
        if float(p.min()) < 0.0:
            raise ValueError(f"negative probability {p.min()!r}")
        if abs(float(p.sum()) - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1 within 1e-10")
        dim = None
        states = []
        for s in self.states:
            s = np.asarray(s)
            if s.ndim != 2 or s.shape[0] != s.shape[1]:
                raise ValueError(f"ensemble member has shape {s.shape}, expected square")
            if dim is None:
                dim = s.shape[0]
            elif s.shape[0] != dim:
                raise ValueError("ensemble members have mixed dimensions")
            if np.max(np.abs(s - s.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(s))):
                raise ValueError("ensemble member is not hermitian")
            states.append(s)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "states", tuple(states))


def holevo_chi(e: Ensemble) -> float:
    """Holevo quantity S(sum_i p_i rho_i) - sum_i p_i S(rho_i)."""
    avg = sum(p * s for p, s in zip(e.probabilities, e.states))
    return _matrix_entropy(avg) - float(
        sum(p * _matrix_entropy(s) for p, s in zip(e.probabilities, e.states))
    )


def weyl_ensemble(rho: DensityMatrix) -> Ensemble:
    """Uniform ensemble of (U_{x,y} x I) rho (U_{x,y} x I)^dagger over all x, y."""
    states = _conjugates(rho, heisenberg_weyl(rho.dims.da))
    return Ensemble(probabilities=np.full(len(states), 1.0 / len(states)), states=tuple(states))


def average_state(rho: DensityMatrix, unitaries: np.ndarray) -> np.ndarray:
    """Average of (U x I) rho (U x I)^dagger over the given side-A unitaries.

    For the full Heisenberg-Weyl set this equals I_A/d_A x rho_B: the signal
    average carries no information about side A.
    """
    da = rho.dims.da
    u = np.asarray(unitaries, dtype=complex)
    if u.ndim != 4 or u.shape[2] != da or u.shape[3] != da:
        raise ValueError(f"unitary array shape {u.shape} does not act on side A (d={da})")
    return _conjugates(rho, u).mean(axis=0)


def cdc(rho: DensityMatrix) -> float:
    """Dense-coding capacity log2(d) + S(rho_B) - S(rho_AB), in [0, 2 log2 d]."""
    da, db = rho.dims.da, rho.dims.db
    if da != db:
        raise ValueError(f"dense-coding capacity needs equal local dimensions, got ({da}, {db})")
    val = math.log2(da) + _matrix_entropy(partial_trace(rho, traced="A")) - _matrix_entropy(rho.mat)
    return max(val, 0.0)


def udc(rho: DensityMatrix, direction: str = "1to2") -> float:
    """Dense-coding advantage max(S(rho_receiver-side-kept) - S(rho), 0).

    Direction "1to2" means subsystem 1 encodes, so the advantage is
    S(rho_2) - S(rho); "2to1" swaps the roles.  Positive exactly when the
    capacity in that direction beats the classical log2(d).
    """
    if direction == "1to2":
        reduced = partial_trace(rho, traced="A")
    elif direction == "2to1":
        reduced = partial_trace(rho, traced="B")
    else:
        raise ValueError(f"direction must be '1to2' or '2to1', got {direction!r}")
    return max(_matrix_entropy(reduced) - _matrix_entropy(rho.mat), 0.0)
