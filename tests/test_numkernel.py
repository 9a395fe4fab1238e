import numpy as np
import pytest
import scipy.linalg

from qutritchain.numkernel import (
    entropy_bits, masked_sum, maxabs, require_symmetric, sym_eig,
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
    # masked_sum and entropy_bits on a stack give the bits of a loop over rows
    rng = np.random.default_rng(16)
    x = rng.normal(size=(200, 9))
    mask = rng.random(size=x.shape) < rng.random(size=(200, 1))
    assert np.array_equal(masked_sum(x, mask), [np.sum(r[m]) for r, m in zip(x, mask)])
    p = np.where(mask, rng.random(size=x.shape), 0.0)
    p[~mask.any(axis=1), 0] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    assert np.array_equal(entropy_bits(p), [entropy_bits(row) for row in p])
