import math

import numpy as np
import pytest

from qutritchain.numkernel import maxabs, sym_eig
from qutritchain.qstate import BipartiteDims, DensityMatrix, dm_from_pure, max_entangled, singlet
from qutritchain.spinmodels import QutritChainParams, hamiltonian_qutrit
from qutritchain.thermal import boltzmann_weights, gibbs
from qutritchain.entanglement import (
    alb, build_antisym_basis, chen_factor, chen_lower_bound,
    iconcurrence_pure, negativity, tau_matrices, ub_mixture,
)
from qutritchain.sweeps import MEASURE_NAMES, _sweep_worker

DIMS33 = BipartiteDims(3, 3)
DIMS22 = BipartiteDims(2, 2)
BASIS33 = build_antisym_basis(DIMS33)

# thermal state at J=-1, K=-1.7, B1=1.3, B2=-1.3, T=1; the expected negativity
# was frozen from a from-scratch reimplementation (ladder-operator Hamiltonian,
# dense matrix exponential, loop-based partial transpose)
ORACLE_NEGATIVITY = 0.3852587643070948


def chain_gibbs(j, k, b1, b2, t):
    spec = sym_eig(hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2)))
    return gibbs(spec, t, DIMS33)


def random_pure(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_negativity_landmarks():
    assert negativity(DensityMatrix(np.eye(9) / 9.0, DIMS33)) < 1e-14
    me = dm_from_pure(max_entangled(3), DIMS33)
    assert abs(negativity(me) - 1.0) < 1e-12
    bell = dm_from_pure(singlet(), DIMS22)
    assert abs(negativity(bell) - 0.5) < 1e-12


def test_negativity_vanishes_on_products():
    rng = np.random.default_rng(51)
    for _ in range(10):
        va = random_pure(rng, 3)
        vb = random_pure(rng, 3)
        rho = dm_from_pure(np.kron(va, vb), DIMS33)
        assert negativity(rho) < 1e-12


def test_negativity_thermal_oracle_value():
    rho = chain_gibbs(-1.0, -1.7, 1.3, -1.3, 1.0)
    assert abs(negativity(rho) - ORACLE_NEGATIVITY) < 1e-9


def test_iconcurrence_pure_landmarks():
    rng = np.random.default_rng(52)
    va = random_pure(rng, 3)
    vb = random_pure(rng, 3)
    assert iconcurrence_pure(np.kron(va, vb), DIMS33) < 1e-10
    assert abs(iconcurrence_pure(max_entangled(3), DIMS33) - math.sqrt(4.0 / 3)) < 1e-12
    assert abs(iconcurrence_pure(singlet(), DIMS22) - 1.0) < 1e-12


def test_iconcurrence_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        iconcurrence_pure(np.ones(9), DIMS33)


def test_chen_factor_and_bound():
    assert abs(chen_factor(DIMS33) - math.sqrt(4.0 / 3)) < 1e-15
    assert abs(chen_factor(DIMS22) - 2.0) < 1e-15
    me = dm_from_pure(max_entangled(3), DIMS33)
    assert abs(chen_lower_bound(me) - math.sqrt(4.0 / 3)) < 1e-12
    bell = dm_from_pure(singlet(), DIMS22)
    assert abs(chen_lower_bound(bell) - 1.0) < 1e-12


def test_antisym_basis_counts_and_gram():
    assert BASIS33.vectors.shape[0] == 9
    gram = BASIS33.vectors @ BASIS33.vectors.T
    assert maxabs(gram - 4.0 * np.eye(9)) < 1e-12
    basis22 = build_antisym_basis(DIMS22)
    assert basis22.vectors.shape == (1, 16)
    assert abs(basis22.vectors[0] @ basis22.vectors[0] - 4.0) < 1e-14
    # the vectors live in the reordered doubled space, so pairing the single
    # chi with a stacked copy of a 2-qubit state reads off twice the
    # determinant of its coefficient matrix, i.e. the pure concurrence
    rng = np.random.default_rng(57)
    for _ in range(10):
        v = random_pure(rng, 4)
        overlap = basis22.vectors[0] @ np.kron(v, v)
        want = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        assert abs(abs(overlap) - want) < 1e-12


def test_tau_matrices_maximally_entangled():
    me = dm_from_pure(max_entangled(3), DIMS33)
    taus = tau_matrices(me, BASIS33)
    assert len(taus) == 9
    scalars = np.sort(np.array([t[0, 0] for t in taus]))
    want = np.sort(np.array([2.0 / 3] * 3 + [0.0] * 6))
    assert maxabs(np.abs(scalars) - want) < 1e-12


def test_tau_matrices_symmetric():
    rho = chain_gibbs(-1.0, -1.0, 0.8, -0.8, 0.5)
    for t in tau_matrices(rho, BASIS33):
        assert t.shape == (9, 9)
        assert maxabs(t - t.T) < 1e-12


def test_tau_matrices_rank_truncation():
    rng = np.random.default_rng(53)
    v1 = random_pure(rng, 9)
    v2 = random_pure(rng, 9)
    v2 = v2 - v1 * (v1 @ v2)
    v2 /= np.linalg.norm(v2)
    mat = 0.6 * np.outer(v1, v1) + 0.4 * np.outer(v2, v2)
    rho = DensityMatrix(mat, DIMS33)
    for t in tau_matrices(rho, BASIS33):
        assert t.shape == (2, 2)


def test_pure_state_tau_norm_equals_iconcurrence():
    rng = np.random.default_rng(54)
    for _ in range(30):
        v = random_pure(rng, 9)
        rho = dm_from_pure(v, DIMS33)
        taus = tau_matrices(rho, BASIS33)
        total = math.sqrt(sum(float(t[0, 0]) ** 2 for t in taus))
        assert abs(total - iconcurrence_pure(v, DIMS33)) < 1e-12


def test_alb_landmarks():
    me = dm_from_pure(max_entangled(3), DIMS33)
    assert abs(alb(me, BASIS33) - 2.0 / 3) < 1e-12
    rng = np.random.default_rng(55)
    va = random_pure(rng, 3)
    vb = random_pure(rng, 3)
    product = dm_from_pure(np.kron(va, vb), DIMS33)
    assert alb(product, BASIS33) < 1e-10


def test_bounds_ordered_on_thermal_states():
    rng = np.random.default_rng(56)
    for _ in range(20):
        j, k, b1, b2 = rng.uniform(-2.0, 2.0, size=4)
        t = rng.uniform(0.2, 2.0)
        spec = sym_eig(hamiltonian_qutrit(QutritChainParams(J=j, K=k, B1=b1, B2=b2)))
        weights = boltzmann_weights(spec.values, t)
        rho = gibbs(spec, t, DIMS33)
        ub = ub_mixture(spec, weights, DIMS33)
        assert chen_lower_bound(rho) <= ub + 1e-9
        assert alb(rho, BASIS33) <= ub + 1e-9


def test_alb_dominates_chen_on_antiparallel_line_weak_k():
    # on B1 = -B2 at K=-0.2, T=0.5 the algebraic bound is never below the
    # negativity bound wherever either is nonzero
    nonzero = 0
    for b1 in np.arange(0.0, 12.0 + 1e-9, 0.05):
        rho = chain_gibbs(-1.0, -0.2, b1, -b1, 0.5)
        c = chen_lower_bound(rho)
        a = alb(rho, BASIS33)
        if max(a, c) > 1e-9:
            nonzero += 1
            assert a >= c, f"chen_lb {c:.6f} exceeds alb {a:.6f} at B1 = {b1:.2f}"
    assert nonzero > 0


def test_ub_mixture_pure_limit():
    spec = sym_eig(np.diag(np.arange(9.0)))
    weights = np.zeros(9)
    weights[0] = 1.0
    want = iconcurrence_pure(spec.vectors[:, 0], DIMS33)
    assert abs(ub_mixture(spec, weights, DIMS33) - want) < 1e-12


def test_sweep_worker_is_consistent():
    spec = sym_eig(hamiltonian_qutrit(QutritChainParams(J=-1.0, K=-1.7, B1=1.3, B2=-1.3)))
    weights = boltzmann_weights(spec.values, 1.0)
    rho = gibbs(spec, 1.0, DIMS33)
    assert MEASURE_NAMES == ("negativity", "chen_lb", "alb", "ub", "purity",
                             "entropy", "cdc", "udc_12", "udc_21")
    row = dict(zip(MEASURE_NAMES, _sweep_worker((-1.0, -1.7, 1.3, -1.3, 1.0), MEASURE_NAMES)))
    assert abs(row["negativity"] - ORACLE_NEGATIVITY) < 1e-9
    assert abs(row["chen_lb"] - chen_lower_bound(rho)) < 1e-12
    assert abs(row["alb"] - alb(rho)) < 1e-12
    assert abs(row["ub"] - ub_mixture(spec, weights, DIMS33)) < 1e-12
    assert row["chen_lb"] <= row["ub"] + 1e-9
    assert row["alb"] <= row["ub"] + 1e-9
