"""Dense complex linear algebra primitives.

Index convention used by every module: a bipartite vector on an n x m system
is stored row-major and A-major, i.e. the product basis ket |i_A, j_B> sits at
flat index i*m + j.  All matrices are dense complex128, row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, ParamOutOfRange, ShapeMismatch

# Default tolerance: rank, parallelism and reconstruction decisions are
# relative 1e-8.  Every operation takes it per call.
DEFAULT_RANK_TOL = 1e-8


def tolerance(value) -> float:
    """value as a float in (0, 1), else ParamOutOfRange (NaN included)."""
    tol = float(value)
    if not 0.0 < tol < 1.0:
        raise ParamOutOfRange(f"tol must be in (0, 1), got {tol}")
    return tol


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={a.ndim}")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-d complex128 array."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ShapeMismatch(f"expected a vector, got ndim={a.ndim}")
    return a


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def hermitian_eigenvalues(
    m,
    tol: float = DEFAULT_RANK_TOL,
    with_vectors: bool = False,
):
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    Checks the symmetry precondition entrywise: max|M - M^dag| must not
    exceed tol * max(1, max|M|).  With ``with_vectors=True`` also returns
    the matrix whose columns are the matching orthonormal eigenvectors.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"matrix is {m.shape}, not square")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    if float(np.abs(m - dag(m)).max()) > tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    try:
        if with_vectors:
            w, v = np.linalg.eigh(m)
            order = np.argsort(w)[::-1]
            return w[order], v[:, order]
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return w[::-1]


@dataclass(frozen=True)
class SVDResult:
    """Factorization M = left_basis @ diag(singular_values) @ right_basis.

    ``left_basis`` has orthonormal columns, ``right_basis`` orthonormal rows (full
    unitaries when M is square); singular values are non-negative and
    non-increasing.
    """

    left_basis: np.ndarray
    singular_values: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left_basis * self.singular_values) @ self.right_basis


def svd(m) -> SVDResult:
    """Thin singular value decomposition with the reconstruction contract."""
    m = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return SVDResult(left_basis=u, singular_values=s, right_basis=vh)


def singular_values(m) -> np.ndarray:
    m = as_matrix(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def numerical_rank(m, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol times the largest one.

    The zero matrix has rank 0.  rel_tol must lie in (0, 1).
    """
    rel_tol = tolerance(rel_tol)
    s = singular_values(m)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def kron(a, b) -> np.ndarray:
    """Kronecker product, matching the (i, j) -> i*m + j product-basis order."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, shape: tuple[int, int], side: str) -> np.ndarray:
    """Trace out the named factor of an (n*m) x (n*m) operator.

    ``side="B"`` removes the second factor and returns an n x n matrix;
    ``side="A"`` removes the first and returns m x m.  The full trace is
    preserved.
    """
    n, m_dim = shape
    mat = as_matrix(m)
    d = n * m_dim
    if mat.shape != (d, d):
        raise ShapeMismatch(f"matrix is {mat.shape}, shape {shape} needs {(d, d)}")
    t = mat.reshape(n, m_dim, n, m_dim)
    if side == "B":
        return np.einsum("ijkj->ik", t)
    if side == "A":
        return np.einsum("ijil->jl", t)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")
