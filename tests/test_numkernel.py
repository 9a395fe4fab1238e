import numpy as np
import pytest
import scipy.linalg

from qutritchain.numkernel import (
    block_eig, eigh2, entropy_bits, maxabs, require_symmetric, sym_eig,
)


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return a + a.T


def test_maxabs():
    assert maxabs(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0
    assert maxabs(np.zeros((2, 2))) == 0.0


def test_require_symmetric_rejects_asymmetric():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        require_symmetric(a)


def test_sym_eig_reconstructs_matrix():
    rng = np.random.default_rng(11)
    for n in (2, 4, 9):
        for _ in range(20):
            a = random_symmetric(rng, n)
            spec = sym_eig(a)
            rebuilt = (spec.vectors * spec.values) @ spec.vectors.T
            assert maxabs(rebuilt - a) < 1e-11
            assert np.all(np.diff(spec.values) >= 0)
            assert len(spec) == n


def test_sym_eig_matches_scipy():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = random_symmetric(rng, 9)
        ours = sym_eig(a).values
        ref = scipy.linalg.eigh(a, eigvals_only=True)
        assert maxabs(ours - ref) < 1e-10


def test_sym_eig_orthonormal_vectors():
    rng = np.random.default_rng(13)
    a = random_symmetric(rng, 9)
    v = sym_eig(a).vectors
    assert maxabs(v.T @ v - np.eye(9)) < 1e-12


def test_spectrum_is_frozen():
    spec = sym_eig(np.eye(3))
    with pytest.raises(AttributeError):
        spec.values = np.zeros(3)


def test_entropy_bits_landmarks():
    assert abs(entropy_bits(np.array([0.5, 0.5])) - 1.0) < 1e-14
    assert abs(entropy_bits(np.full(9, 1.0 / 9)) - np.log2(9)) < 1e-12
    assert entropy_bits(np.array([1.0, 0.0, 0.0])) == 0.0


def test_entropy_bits_rejects_bad_input():
    with pytest.raises(ValueError):
        entropy_bits(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        entropy_bits(np.array([1.5, -0.5]))


def test_require_symmetric_checks_each_matrix_of_a_stack():
    rng = np.random.default_rng(15)
    stack = np.array([random_symmetric(rng, 4) for _ in range(5)])
    assert require_symmetric(stack) is not None
    stack[3, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="not symmetric"):
        require_symmetric(stack)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            require_symmetric(np.array([[1.0, bad], [bad, 1.0]]))


def test_stacked_rows_sum_like_single_vectors():
    # entropy_bits on a stack gives the bits of a loop over rows
    rng = np.random.default_rng(16)
    mask = rng.random(size=(200, 9)) < rng.random(size=(200, 1))
    p = np.where(mask, rng.random(size=mask.shape), 0.0)
    p[~mask.any(axis=1), 0] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    assert np.array_equal(entropy_bits(p), [entropy_bits(row) for row in p])


def test_block_eig_solves_each_block():
    rng = np.random.default_rng(17)
    blocks = ((3,), (0, 4), (1, 2, 5))
    stack = np.zeros((6, 6, 6))
    for block in blocks:
        idx = np.ix_(range(6), block, block)
        stack[idx] = np.array([random_symmetric(rng, len(block)) for _ in range(6)])
    stack[1, :3, :3] = stack[1, 3:, 3:] = 0.0  # degenerate levels in two blocks
    spec = block_eig(stack, blocks)
    for a, values, vectors in zip(stack, spec.values, spec.vectors):
        assert maxabs((vectors * values) @ vectors.T - a) < 1e-12
        assert maxabs(vectors.T @ vectors - np.eye(6)) < 1e-12
        assert maxabs(np.sort(values) - np.linalg.eigvalsh(a)) < 1e-12
        start = 0
        for block in blocks:
            levels = slice(start, start + len(block))
            assert np.all(np.diff(values[levels]) >= 0)
            outside = np.setdiff1d(np.arange(6), block)
            assert not vectors[outside, levels].any()
            start += len(block)


def test_eigh2_matches_eigh():
    rng = np.random.default_rng(18)
    eps = np.finfo(float).eps
    m = rng.standard_normal((20000, 2, 2))
    m += m.swapaxes(1, 2)
    m[:500, 0, 1] = m[:500, 1, 0] = 0.0  # b = 0
    m[500:1000, 1, 1] = m[500:1000, 0, 0]  # a = c
    m[1000:1500, 0, 0] = -m[1000:1500, 1, 1]  # a + c = 0
    m[1500:1600] = 0.0
    m[1600:1700] = -0.0
    m[1700:1800, 0, 1] = m[1700:1800, 1, 0] = -0.0
    m[1800:1900, 0, 0] = m[1800:1900, 1, 1] = -0.0
    for scale in (1.0, 1e-200, 1e150):
        a = scale * m
        values, vectors = eigh2(a)
        assert np.array_equal(eigh2(a, vectors=False), values)
        top = np.abs(np.linalg.eigvalsh(a)).max(axis=1)
        size = np.where(top > 0.0, top, 1.0)[:, None, None]
        # 4 eps of max |level|, where 20,000 random blocks reach 2.9 eps
        assert np.all(np.abs(values - np.linalg.eigvalsh(a)) <= 4.0 * eps * size[:, :, 0])
        assert np.all(np.diff(values, axis=1) >= 0.0)
        assert np.all(np.abs(a @ vectors - vectors * values[:, None, :]) <= 4.0 * eps * size)
        assert np.all(np.abs(vectors.swapaxes(1, 2) @ vectors - np.eye(2)) <= 2.0 * eps)
