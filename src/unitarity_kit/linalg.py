"""Dense complex linear algebra primitives.

Index convention used by every module: a bipartite vector on an n x m system
is stored row-major and A-major, i.e. the product basis ket |i_A, j_B> sits at
flat index i*m + j.  All matrices are dense complex128, row-major.

Unit scale, shared by both deciders: a map M is decided at M * 2^-k, with k
the one integer for which ||M * 2^-k||_F lies in [1/2, 1) (k = 0 for the
zero map), computed by unit_scale when the map is constructed.  Scaling by
a power of two is exact, so every fit, spectrum, image and witness is the
same bits for M and for M * 2^j wherever that product is exact, and no norm
under- or overflows at any scale of the map.  Only the outputs that carry
the map's scale are multiplied back by 2^k.  The one 2x2 block bound that
rules a fit out before it runs is block_beyond's.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, ParamOutOfRange, ShapeMismatch

# Default tolerance: rank and reconstruction decisions are
# relative 1e-8.  Every operation takes it per call.
DEFAULT_RANK_TOL = 1e-8

_TINY = float(np.finfo(np.float64).tiny)


def tolerance(value) -> float:
    """value as a float in (0, 1), else ParamOutOfRange (NaN included)."""
    tol = float(value)
    if not 0.0 < tol < 1.0:
        raise ParamOutOfRange(f"tol must be in (0, 1), got {tol}")
    return tol


def dimension(value, name: str) -> int:
    """value as an int of at least 1, else ShapeMismatch: a numpy integer,
    or a 0-d integer array, is kept as an int; a float, a bool or any other
    array is refused."""
    try:
        d = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:  # a float, or an array that is not a 0-d integer one
        d = None
    if d is None:
        raise ShapeMismatch(f"{name} must be an integer, got {value!r}")
    if d < 1:
        raise ShapeMismatch(f"{name} must be >= 1, got {d}")
    return d


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


def unit_scale(m: np.ndarray, slabs: int) -> tuple[int, float]:
    """(k, ||m * 2^-k||_F^2) of a contiguous complex128 matrix, the squared
    norm in [1/4, 1), or 0 for a zero matrix (then k = 0).

    One vdot, the squared Frobenius norm, is finite exactly when every entry
    is, as a sum of non-negative terms cannot cancel an inf or a NaN; when
    it is also normal it gives k and the unit-scale sum exactly.  Only a sum
    outside the normal range (an overflow, a NaN, an inf, or a matrix so
    small that its squares underflow) reads part_exponent, which refuses a
    non-finite entry with ParamOutOfRange and gives a first exponent, and
    sums the matrix at that scale once, split into slabs blocks of rows, so
    no scaled copy of the whole matrix is made."""
    total, shift = float(np.vdot(m, m).real), 0
    if not _TINY <= total < math.inf:
        shift = part_exponent(m)
        if shift is None:
            raise ParamOutOfRange("map has non-finite entries")
        total = float(sum(np.vdot(s, s).real for s in (ldexp(rows, -shift) for rows in m.reshape(slabs, -1))))
    half = (math.frexp(total)[1] + 1) // 2
    return shift + half, math.ldexp(total, -2 * half)


def block_beyond(p: complex, q: complex, r: complex, s: complex, k: int, unit_sq: float, tol: float) -> bool:
    """Whether the 2x2 block [[p, q], [r, s]], each part scaled by 2^k to
    unit scale, has |det| > beta ||block||_F, beta = 2 tol ||M * 2^-k||_F
    with unit_sq = ||M * 2^-k||_F^2; then no rank-one reading of M that
    holds the block in a realignment, or in an image, can fit within tol.

    A reading that fits leaves that matrix within tol ||M||_F of rank one,
    so its s_2 is at most tol ||M||_F (Eckart-Young, or Weyl for an image
    of a unit state), while any 2x2 block gives s_2 >= |det| / ||block||_F
    (Cauchy interlacing).  The factor 2 covers the fit's rounding.  The
    parts are scaled one by one, so no copy of the matrix is made."""
    p = complex(math.ldexp(p.real, k), math.ldexp(p.imag, k))
    q = complex(math.ldexp(q.real, k), math.ldexp(q.imag, k))
    r = complex(math.ldexp(r.real, k), math.ldexp(r.imag, k))
    s = complex(math.ldexp(s.real, k), math.ldexp(s.imag, k))
    return abs(p * s - q * r) > 2.0 * tol * math.sqrt(unit_sq) * math.hypot(abs(p), abs(q), abs(r), abs(s))


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
