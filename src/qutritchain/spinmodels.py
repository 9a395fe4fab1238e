"""Hamiltonians for the spin-1 pair and the spin-1/2 XY cross-check model.

Spin-1 single-site basis is (|1>, |0>, |-1>) mapped to indices (0, 1, 2), so

    Sz = diag(1, 0, -1),   Sx = (1/sqrt 2) [[0,1,0],[1,0,1],[0,1,0]],

and the composite |m1 m2> state sits at index 3*i1 + i2.  The pair model is

    H = J (S1.S2) + K (S1.S2)^2 + B1 S1z + B2 S2z,

bilinear-biquadratic exchange in a field that may differ between the sites.
Total Sz is conserved, which splits H into five blocks: two trivial ones
(|1 1>, |-1 -1>), two 2x2 ones (spanned by {|1 0>, |0 1>} and
{|-1 0>, |0 -1>}) whose eigenpairs are written in closed form below, and a
central 3x3 block on span{|0 0>, |1 -1>, |-1 1>} that is kept numerical.
H, the closed forms and the central block take fields given as arrays, so
the spectrum subcommand runs in 256-point stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numkernel import maxabs

_SQRT2 = math.sqrt(2.0)

# Composite indices of the total-Sz = 0 block, in the order (|00>, |1 -1>, |-1 1>).
CENTRAL_BLOCK_INDICES = (4, 2, 6)
_CENTRAL = np.array(CENTRAL_BLOCK_INDICES)
_OUTSIDE_CENTRAL = np.array([i for i in range(9) if i not in CENTRAL_BLOCK_INDICES])
# math.hypot element by element: np.hypot is one ulp off it on some inputs.
_HYPOT = np.frompyfunc(math.hypot, 2, 1)


@dataclass(frozen=True)
class QutritChainParams:
    """Couplings and fields of the spin-1 pair."""

    J: float
    K: float
    B1: float
    B2: float


@dataclass(frozen=True)
class XYParams:
    """Anisotropic XY pair: J (S1+S2- + S1-S2+) + J*gamma (S1+S2+ + S1-S2-) + B (S1z + S2z)."""

    J: float
    gamma: float
    B: float


def spin1_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy x Sy, Sz) for a single spin 1.

    Sy is purely imaginary, so only the already-real two-site product Sy x Sy
    is exposed; an imaginary residue in that product would mean the basis
    conventions were broken and raises.
    """
    sx = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / _SQRT2
    sz = np.diag([1.0, 0.0, -1.0])
    sy = np.array([[0.0, -1.0j, 0.0], [1.0j, 0.0, -1.0j], [0.0, 1.0j, 0.0]]) / _SQRT2
    sysy = np.kron(sy, sy)
    if maxabs(sysy.imag) > 1e-15:
        raise RuntimeError("Sy x Sy has an imaginary residue; basis conventions are broken")
    return sx, sysy.real.copy(), sz


def heisenberg_coupling() -> np.ndarray:
    """The 9x9 exchange operator S1.S2."""
    sx, sysy, sz = spin1_operators()
    return np.kron(sx, sx) + sysy + np.kron(sz, sz)


# The operator terms of H, built once: S1.S2, (S1.S2)^2, S1z x I and I x S2z.
_EXCHANGE = heisenberg_coupling()
_EXCHANGE_SQ = _EXCHANGE @ _EXCHANGE
_SZ_I = np.kron(spin1_operators()[2], np.eye(3))
_I_SZ = np.kron(np.eye(3), spin1_operators()[2])


def _blocks(charge: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The index sets on which `charge` is constant, highest charge first."""
    return tuple(tuple(np.flatnonzero(charge == q).tolist())
                 for q in sorted(set(charge.tolist()), reverse=True))


# H conserves total Sz (SZ_TOTAL, per composite index), so it is block diagonal
# on these composite index sets (Sz = 2, 1, 0, -1, -2).  So is a Gibbs state, whose
# partial transpose on site 2 then conserves S1z - S2z instead: it is block
# diagonal on SZ_DIFFERENCE_BLOCKS (S1z - S2z = 2, 1, 0, -1, -2).
SZ_TOTAL = np.diag(_SZ_I + _I_SZ)
SZ_SECTORS = _blocks(SZ_TOTAL)
SZ_DIFFERENCE_BLOCKS = _blocks(np.diag(_SZ_I - _I_SZ))


def hamiltonian_qutrit(p: QutritChainParams) -> np.ndarray:
    """Full 9x9 Hamiltonian of the spin-1 pair.

    Fields of `p` given as equal-shape arrays yield a (..., 9, 9) stack.
    Entries past the float range come out infinite, without a warning.
    """
    j, k, b1, b2 = (np.asarray(x, dtype=float)[..., None, None] for x in (p.J, p.K, p.B1, p.B2))
    with np.errstate(over="ignore"):
        return j * _EXCHANGE + k * _EXCHANGE_SQ + b1 * _SZ_I + b2 * _I_SZ


class ClosedFormEnergies(NamedTuple):
    e1: float
    e2: float
    e3: float
    e7: float
    e8: float
    e9: float


def closed_form_energies(p: QutritChainParams) -> ClosedFormEnergies:
    """The six closed-form eigenvalues outside the central block.

    e1 and e9 belong to |1 1> and |-1 -1>; (e2, e3) and (e7, e8) are the
    eigenvalues of the total-Sz = +1 and -1 blocks.  The remaining three
    eigenvalues come numerically from central_block().  Array fields give
    arrays, bit for bit the scalar values.
    """
    root = _HYPOT(p.B1 - p.B2, 2.0 * p.J)
    if isinstance(root, np.ndarray):  # an object array from array fields
        root = root.astype(float)
    half_sum = 0.5 * (p.B1 + p.B2)
    return ClosedFormEnergies(
        e1=p.J + p.B1 + p.B2 + p.K,
        e2=half_sum + p.K + 0.5 * root,
        e3=half_sum + p.K - 0.5 * root,
        e7=-half_sum + p.K + 0.5 * root,
        e8=-half_sum + p.K - 0.5 * root,
        e9=p.J - p.B1 - p.B2 + p.K,
    )


def central_block(p: QutritChainParams) -> np.ndarray:
    """The 3x3 total-Sz = 0 block of H on (|00>, |1 -1>, |-1 1>); array
    fields of `p` yield a (..., 3, 3) stack."""
    return central_block_of(hamiltonian_qutrit(p))


def central_block_of(h: np.ndarray) -> np.ndarray:
    """The central block of an assembled H, or of each in a stack.  The
    couplings leaving it are zero by Sz conservation; a nonzero residue
    means the Hamiltonian assembly regressed."""
    leak = maxabs(h[..., _CENTRAL[:, None], _OUTSIDE_CENTRAL])
    if leak > 1e-14:
        raise RuntimeError(f"central block is not invariant: leakage {leak:.3e}")
    return h[..., _CENTRAL[:, None], _CENTRAL]


def hamiltonian_xy(p: XYParams) -> np.ndarray:
    """4x4 Hamiltonian of the anisotropic XY spin-1/2 pair in a uniform field."""
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    sm = sp.T
    sz = np.diag([0.5, -0.5])
    eye2 = np.eye(2)
    flip = np.kron(sp, sm) + np.kron(sm, sp)
    pair = np.kron(sp, sp) + np.kron(sm, sm)
    field = np.kron(sz, eye2) + np.kron(eye2, sz)
    return p.J * flip + p.J * p.gamma * pair + p.B * field


class XYEnergies(NamedTuple):
    e1: float
    e2: float
    e3: float
    e4: float


def xy_closed_form_energies(p: XYParams) -> XYEnergies:
    """Closed-form XY spectrum: (J, -J, +r, -r) with r = sqrt(B^2 + (J*gamma)^2)."""
    r = math.hypot(p.B, p.J * p.gamma)
    return XYEnergies(e1=p.J, e2=-p.J, e3=r, e4=-r)
