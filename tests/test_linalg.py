import numpy as np
import pytest

from familykit.errors import DefinitenessError, InputError, ShapeError
from familykit.linalg import cholesky_array, svd_array


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def test_svd_identity():
    u, s, vt = svd_array(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])
    assert np.allclose(u @ np.diag(s) @ vt, np.eye(3), atol=1e-12)


def test_svd_diagonal():
    u, s, vt = svd_array(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])


def test_svd_random_vs_gram_eigenvalues():
    # singular values against the eigenvalues of m.T @ m, which LAPACK
    # computes with a symmetric eigensolver rather than an SVD routine
    m = rand((6, 4), 3)
    u, s, vt = svd_array(m)
    assert np.allclose(s, np.sqrt(np.linalg.eigvalsh(m.T @ m))[::-1], atol=1e-10)
    rel = np.linalg.norm(u @ np.diag(s) @ vt - m) / np.linalg.norm(m)
    assert rel < 1e-5
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-5)
    assert np.allclose(vt @ vt.T, np.eye(4), atol=1e-5)


def test_svd_sorted_nonincreasing():
    _, s, _ = svd_array(rand((8, 8), 4))
    assert np.all(np.diff(s) <= 1e-12)
    assert np.all(s >= 0)


def test_svd_wide_matrix():
    m = rand((3, 9), 5)
    u, s, vt = svd_array(m)
    assert u.shape == (3, 3) and vt.shape == (3, 9)
    assert np.linalg.norm(u @ np.diag(s) @ vt - m) / np.linalg.norm(m) < 1e-10


def test_svd_rank_deficient_keeps_orthonormal_basis():
    m = np.outer(rand(5, 6), rand(5, 7))
    u, s, vt = svd_array(m)
    assert np.all(s[1:] < 1e-10)
    assert np.allclose(u.T @ u, np.eye(5), atol=1e-8)
    assert np.allclose(vt @ vt.T, np.eye(5), atol=1e-8)


def test_svd_rejects_nonfinite():
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(InputError):
        svd_array(bad)
    with pytest.raises(ShapeError):
        svd_array(np.ones(3))


def test_cholesky_identity():
    assert np.array_equal(cholesky_array(np.eye(4)), np.eye(4))


def test_cholesky_hand_case():
    lower = cholesky_array(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert np.allclose(lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-12)


def test_cholesky_gram_reconstruction():
    x = rand((5, 40), 9)
    gram = x @ x.T
    lower = cholesky_array(gram)
    assert np.linalg.norm(lower @ lower.T - gram) / np.linalg.norm(gram) < 1e-5
    assert np.allclose(np.triu(lower, 1), 0.0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(DefinitenessError):
        cholesky_array(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


def test_cholesky_rejects_asymmetric_and_nonsquare():
    with pytest.raises(InputError):
        cholesky_array(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        cholesky_array(rand((2, 3)))


def test_cholesky_rejects_nonfinite():
    with pytest.raises(InputError):
        cholesky_array(np.full((3, 3), np.nan))
