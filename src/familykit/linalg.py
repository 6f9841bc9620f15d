"""Dense linear algebra for compression: thin SVD and Cholesky on LAPACK.

Both functions compute in float64 regardless of input dtype and check what
`np.linalg` does not: the SVD wants a finite matrix, the Cholesky a finite,
square, symmetric one, and a non-positive-definite input raises
`DefinitenessError` so that whitening can fall back to the SVD path.
"""

from __future__ import annotations

import numpy as np

from .errors import DefinitenessError, InputError, ShapeError


def svd_array(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD: m == U @ diag(S) @ V, V is (p, cols).

    Singular values are nonnegative and sorted nonincreasing. U has
    orthonormal columns and V orthonormal rows even when m is rank
    deficient.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"svd expects a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("svd requires finite input")
    return np.linalg.svd(m, full_matrices=False)


def cholesky_array(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == m; m must be symmetric positive definite."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"cholesky expects a square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("cholesky requires finite input")
    scale = max(float(np.abs(m).max()), 1.0)
    if float(np.abs(m - m.T).max()) > 1e-6 * scale:
        raise InputError("cholesky requires a symmetric matrix")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("cholesky requires a positive definite matrix") from exc
