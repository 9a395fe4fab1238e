import math

import numpy as np

from qutritchain.numkernel import maxabs, sym_eig
from qutritchain.spinmodels import (
    CENTRAL_BLOCK_INDICES, QutritChainParams, XYParams, central_block,
    closed_form_energies, hamiltonian_qutrit, hamiltonian_xy,
    heisenberg_coupling, spin1_operators, xy_closed_form_energies,
)


def random_params(rng):
    j, k, b1, b2 = rng.uniform(-3.0, 3.0, size=4)
    return QutritChainParams(J=j, K=k, B1=b1, B2=b2)


def ladder_exchange():
    """S1.S2 assembled from raising/lowering operators, as an independent route."""
    sp = math.sqrt(2.0) * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    sm = sp.T
    sz = np.diag([1.0, 0.0, -1.0])
    return 0.5 * (np.kron(sp, sm) + np.kron(sm, sp)) + np.kron(sz, sz)


def test_spin1_operator_algebra():
    sx, sysy, sz = spin1_operators()
    assert maxabs(sz - np.diag([1.0, 0.0, -1.0])) == 0.0
    # spin-1 Casimir: Sx^2 + Sy^2 + Sz^2 = 2 I, so Sy^2 = 2I - Sx^2 - Sz^2
    sy2 = 2.0 * np.eye(3) - sx @ sx - sz @ sz
    assert maxabs(np.kron(sy2, sy2) - sysy @ sysy) < 1e-14


def test_exchange_matches_ladder_route():
    assert maxabs(heisenberg_coupling() - ladder_exchange()) < 1e-14


def test_hamiltonian_symmetric_and_trace():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_params(rng)
        h = hamiltonian_qutrit(p)
        assert maxabs(h - h.T) < 1e-13
        # tr(S1.S2) = 0 and S1z, S2z are traceless, tr((S1.S2)^2) = 12
        assert abs(np.trace(h) - 12.0 * p.K) < 1e-12


def test_hamiltonian_conserves_total_sz():
    rng = np.random.default_rng(32)
    _, _, sz = spin1_operators()
    total_sz = np.kron(sz, np.eye(3)) + np.kron(np.eye(3), sz)
    p = random_params(rng)
    h = hamiltonian_qutrit(p)
    assert maxabs(h @ total_sz - total_sz @ h) < 1e-12


def test_closed_form_energies_match_numerics():
    rng = np.random.default_rng(33)
    for _ in range(50):
        p = random_params(rng)
        cf = closed_form_energies(p)
        block = np.linalg.eigvalsh(central_block(p))
        full = np.sort(np.concatenate([np.array(cf), block]))
        numeric = sym_eig(hamiltonian_qutrit(p)).values
        assert maxabs(full - numeric) < 1e-9


def test_central_block_zero_field_spectrum():
    # with B1 = B2 = 0 the exchange eigenvalues 1, -1, -2 give J+K, K-J, 4K-2J
    rng = np.random.default_rng(35)
    for _ in range(10):
        j, k = rng.uniform(-3.0, 3.0, size=2)
        p = QutritChainParams(J=j, K=k, B1=0.0, B2=0.0)
        got = np.linalg.eigvalsh(central_block(p))
        want = np.sort(np.array([j + k, k - j, 4.0 * k - 2.0 * j]))
        assert maxabs(got - want) < 1e-12


def test_zero_field_full_spectrum_multiplets():
    # J = -1: five levels at K-1, three at K+1, one at 4K+2
    k = -0.7
    p = QutritChainParams(J=-1.0, K=k, B1=0.0, B2=0.0)
    vals = sym_eig(hamiltonian_qutrit(p)).values
    want = np.sort(np.array([k - 1.0] * 5 + [k + 1.0] * 3 + [4.0 * k + 2.0]))
    assert maxabs(vals - want) < 1e-12


def test_zero_field_ground_level_switch():
    # the lowest level moves from the five-fold multiplet to the nondegenerate
    # one as K drops through -1 (J = -1)
    for k, expect_single in ((-0.9, False), (-1.1, True)):
        p = QutritChainParams(J=-1.0, K=k, B1=0.0, B2=0.0)
        vals = sym_eig(hamiltonian_qutrit(p)).values
        single = 4.0 * k + 2.0
        assert (abs(vals[0] - single) < 1e-12) == expect_single


def test_central_block_indices():
    assert CENTRAL_BLOCK_INDICES == (4, 2, 6)
    p = QutritChainParams(J=-1.0, K=-1.7, B1=3.0, B2=0.1)
    block = central_block(p)
    h = hamiltonian_qutrit(p)
    idx = np.array(CENTRAL_BLOCK_INDICES)
    assert maxabs(block - h[np.ix_(idx, idx)]) == 0.0


def test_xy_closed_form_matches_numerics():
    rng = np.random.default_rng(36)
    for _ in range(30):
        j, gamma, b = rng.uniform(-2.0, 2.0, size=3)
        p = XYParams(J=j, gamma=gamma, B=b)
        got = np.sort(np.array(xy_closed_form_energies(p)))
        want = np.linalg.eigvalsh(hamiltonian_xy(p))
        assert maxabs(got - want) < 1e-12


def test_xy_level_crossing():
    # gamma = 0.8, J = 1: the -J level and the -sqrt(B^2 + (J gamma)^2) level
    # meet exactly at B = 0.6 and swap order across it
    p = XYParams(J=1.0, gamma=0.8, B=0.6)
    e = xy_closed_form_energies(p)
    assert abs(e.e2 - e.e4) < 1e-12
    below = xy_closed_form_energies(XYParams(J=1.0, gamma=0.8, B=0.5))
    above = xy_closed_form_energies(XYParams(J=1.0, gamma=0.8, B=0.7))
    assert below.e2 < below.e4
    assert above.e4 < above.e2
