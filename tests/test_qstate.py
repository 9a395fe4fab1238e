import numpy as np
import pytest

from qutritchain.numkernel import maxabs
from qutritchain.qstate import (
    BipartiteDims, DensityMatrix, dm_from_pure, max_entangled, partial_trace,
    partial_transpose, singlet,
)
from qutritchain.thermal import purity


def random_density(rng, dims):
    d = dims.total
    a = rng.normal(size=(d, d))
    m = a @ a.T
    return DensityMatrix(m / np.trace(m), dims)


def random_pure(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def loop_partial_transpose(mat, da, db):
    """Index-by-index reference for the partial transpose on subsystem B."""
    out = np.zeros_like(mat)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    out[i * db + j, k * db + l] = mat[i * db + l, k * db + j]
    return out


def test_dims_validation():
    with pytest.raises(ValueError):
        BipartiteDims(1, 3)
    assert BipartiteDims(3, 3).total == 9


def test_density_matrix_validation():
    dims = BipartiteDims(2, 2)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 2.0, dims)          # trace 2
    bad = np.eye(4) / 4.0
    bad[0, 1] = 0.2                                   # asymmetric
    with pytest.raises(ValueError):
        DensityMatrix(bad, dims)
    neg = np.diag([0.7, 0.5, -0.1, -0.1])             # not PSD
    with pytest.raises(ValueError):
        DensityMatrix(neg, dims)


def test_partial_transpose_matches_loop_reference():
    rng = np.random.default_rng(22)
    for da, db in ((2, 2), (3, 3), (2, 3)):
        dims = BipartiteDims(da, db)
        rho = random_density(rng, dims)
        got = partial_transpose(rho)
        assert maxabs(got - loop_partial_transpose(rho.mat, da, db)) < 1e-14


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(23)
    dims = BipartiteDims(3, 3)
    rho = random_density(rng, dims)
    pt = partial_transpose(rho)
    assert abs(np.trace(pt) - 1.0) < 1e-12
    back = loop_partial_transpose(pt, 3, 3)
    assert maxabs(back - rho.mat) < 1e-14


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(24)
    dims = BipartiteDims(3, 3)
    va = random_pure(rng, 3)
    vb = random_pure(rng, 3)
    rho = dm_from_pure(np.kron(va, vb), dims)
    assert maxabs(partial_trace(rho, traced="B") - np.outer(va, va)) < 1e-12
    assert maxabs(partial_trace(rho, traced="A") - np.outer(vb, vb)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(25)
    rho = random_density(rng, BipartiteDims(3, 3))
    for traced in ("A", "B"):
        red = partial_trace(rho, traced=traced)
        assert abs(np.trace(red) - 1.0) < 1e-12
        assert red.shape == (3, 3)


def test_max_entangled_marginals():
    dims = BipartiteDims(3, 3)
    rho = dm_from_pure(max_entangled(3), dims)
    assert maxabs(partial_trace(rho, traced="B") - np.eye(3) / 3.0) < 1e-12
    assert abs(purity(rho) - 1.0) < 1e-12


def test_singlet_marginals():
    dims = BipartiteDims(2, 2)
    rho = dm_from_pure(singlet(), dims)
    assert maxabs(partial_trace(rho, traced="A") - np.eye(2) / 2.0) < 1e-12


def test_dm_from_pure_requires_normalization():
    dims = BipartiteDims(2, 2)
    with pytest.raises(ValueError):
        dm_from_pure(np.array([1.0, 1.0, 0.0, 0.0]), dims)


def test_purity_range():
    rng = np.random.default_rng(26)
    dims = BipartiteDims(3, 3)
    assert abs(purity(DensityMatrix(np.eye(9) / 9.0, dims)) - 1.0 / 9) < 1e-14
    for _ in range(10):
        p = purity(random_density(rng, dims))
        assert 1.0 / 9 - 1e-12 <= p <= 1.0 + 1e-12
