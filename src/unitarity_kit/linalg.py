"""Dense complex linear algebra primitives.

Index convention used by every module: a bipartite vector on an n x m system
is stored row-major and A-major, i.e. the product basis ket |i_A, j_B> sits at
flat index i*m + j.  All matrices are dense complex128, row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, ParamOutOfRange, ShapeMismatch

# Default tolerance: rank and reconstruction decisions are
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


def part_exponent(a: np.ndarray) -> int | None:
    """Binary exponent k of the largest real or imaginary part of a
    contiguous float64 or complex128 array, read off its largest and
    smallest part: a * 2^-k has every part below 1 in modulus and the
    largest at least 1/2 (k = 0 for a zero array).  None when a part is not
    finite, as a NaN or an inf shows up in one of the two."""
    parts = a.view(np.float64)
    hi, lo = float(parts.max()), float(parts.min())
    if not -math.inf < lo <= hi < math.inf:
        return None
    return math.frexp(max(hi, -lo))[1]


def ldexp(a, k: int) -> np.ndarray:
    """a * 2**k for a float64 or complex128 array, taken on the real parts
    and imaginary parts alike: exact unless a part under- or overflows."""
    a = np.ascontiguousarray(a)
    return np.ldexp(a.view(np.float64), k).view(a.dtype)


def block_beyond(p: complex, q: complex, r: complex, s: complex, k: int, beta: float) -> bool:
    """Whether the 2x2 block [[p, q], [r, s]], each part scaled by 2^k,
    has |det| > beta * ||block||_F.  Then s_2 of any matrix that holds the
    scaled block exceeds beta, as s_2 >= |det| / ||block||_F (Cauchy
    interlacing).  The parts are scaled one by one, so no copy of the
    matrix that holds them is made."""
    p = complex(math.ldexp(p.real, k), math.ldexp(p.imag, k))
    q = complex(math.ldexp(q.real, k), math.ldexp(q.imag, k))
    r = complex(math.ldexp(r.real, k), math.ldexp(r.imag, k))
    s = complex(math.ldexp(s.real, k), math.ldexp(s.imag, k))
    return abs(p * s - q * r) > beta * math.hypot(abs(p), abs(q), abs(r), abs(s))


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
    """Singular values, non-increasing, of a matrix or of each matrix in a
    stack (last two axes), values only, computed in complex128."""
    try:
        return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def numerical_rank(m, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol times the largest one.

    The zero matrix has rank 0.  rel_tol must lie in (0, 1), and m must be
    a matrix (ShapeMismatch otherwise).
    """
    rel_tol = tolerance(rel_tol)
    s = singular_values(as_matrix(m))
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def kron(a, b) -> np.ndarray:
    """Kronecker product, matching the (i, j) -> i*m + j product-basis order."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
