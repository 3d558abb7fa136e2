"""Schmidt decomposition, Schmidt rank, the swap operator, and the pure-state
entanglement measures E (ebits), E1 (scale-ignoring), E2 (norm-weighted).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamOutOfRange, ShapeMismatch, ZeroVector
from .linalg import DEFAULT_RANK_TOL, as_vector, dimension, svd, tolerance
from .states import check_pure_state, shannon_bits


@dataclass(frozen=True)
class BipartiteShape:
    """Dimensions (n, m) of the two tensor factors, each an integer of at
    least 1 by linalg.dimension's rule, which Superoperator's dim follows
    too: a numpy integer is kept as an int, a float or a bool is refused."""

    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "n", dimension(self.n, "factor dim n"))
        object.__setattr__(self, "m", dimension(self.m, "factor dim m"))

    @property
    def dim(self) -> int:
        return self.n * self.m

    def flipped(self) -> "BipartiteShape":
        return BipartiteShape(self.m, self.n)

    def as_tuple(self) -> tuple[int, int]:
        return (self.n, self.m)


def as_shape(shape) -> BipartiteShape:
    if isinstance(shape, BipartiteShape):
        return shape
    n, m = shape
    return BipartiteShape(n, m)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """v = sum_i coefficients[i] * left_vectors[:, i] (x) right_vectors[:, i].

    Coefficients are strictly positive and non-increasing; columns of the
    two vector blocks are orthonormal.  Within a degenerate coefficient
    block only the spanned subspaces are contractual, not the individual
    basis vectors.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        terms = [
            c * np.kron(self.left_vectors[:, i], self.right_vectors[:, i])
            for i, c in enumerate(self.coefficients)
        ]
        return np.sum(terms, axis=0)


def schmidt_decompose(v, shape, tol: float = DEFAULT_RANK_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition of a (possibly unnormalized) bipartite vector.

    The vector is reshaped to the n x m coefficient matrix (A-major index
    convention) and factorized by SVD.  Coefficients at or below
    tol * largest are dropped; what survives defines the rank.  The zero
    test takes no norm, so it holds at every representable scale.  tol must
    lie in (0, 1), and every entry must be finite (ParamOutOfRange
    otherwise).
    """
    tol = tolerance(tol)
    shape = as_shape(shape)
    vec = as_vector(v)
    if vec.shape[0] != shape.dim:
        raise ShapeMismatch(f"vector dim {vec.shape[0]} != {shape.n}*{shape.m}")
    if not np.isfinite(vec).all():
        raise ParamOutOfRange("vector has non-finite entries")
    if not vec.any():
        raise ZeroVector("cannot Schmidt-decompose the zero vector")
    coeff = vec.reshape(shape.n, shape.m)
    res = svd(coeff)
    s = res.singular_values
    keep = s > tol * s[0]
    rank = int(np.count_nonzero(keep))
    # v = sum_k s_k u_k (x) vh[k, :], so the right vectors are the rows of
    # vh, transposed without conjugation.
    return SchmidtDecomposition(
        coefficients=s[:rank].copy(),
        left_vectors=res.left_basis[:, :rank].copy(),
        right_vectors=res.right_basis[:rank, :].T.copy(),
        rank=rank,
    )


def schmidt_rank(v, shape, tol: float = DEFAULT_RANK_TOL) -> int:
    return schmidt_decompose(v, shape, tol=tol).rank


def entanglement_E(psi, shape, tol: float = DEFAULT_RANK_TOL) -> float:
    """Entropy of entanglement of a normalized bipartite pure state, in ebits.

    E = -sum lambda_i^2 log2 lambda_i^2 over the Schmidt coefficients;
    zero exactly for product states, symmetric in the two sides.
    """
    vec = check_pure_state(psi)
    dec = schmidt_decompose(vec, shape, tol=tol)
    return shannon_bits(dec.coefficients**2)


def _unit_split(v, measure: str) -> tuple[np.ndarray, float, float]:
    """v as (unit, peak, rest) with v = peak * rest * unit.

    peak is the largest modulus; dividing by it first keeps the norm from
    underflowing or overflowing at any scale of v.  A non-finite entry is
    refused with ParamOutOfRange.
    """
    vec = as_vector(v)
    if not np.isfinite(vec).all():
        raise ParamOutOfRange(f"{measure} is undefined on a vector with non-finite entries")
    if not vec.any():
        raise ZeroVector(f"{measure} is undefined on the zero vector")
    peak = float(np.abs(vec).max())
    scaled = vec / peak
    rest = float(np.linalg.norm(scaled))
    return scaled / rest, peak, rest


def measure_E1(v, shape, tol: float = DEFAULT_RANK_TOL) -> float:
    """Scale-ignoring measure: E of the normalized vector."""
    unit, _, _ = _unit_split(v, "E1")
    return entanglement_E(unit, shape, tol=tol)


def measure_E2(v, shape, tol: float = DEFAULT_RANK_TOL) -> float:
    """Norm-weighted measure: squared length times E of the normalized vector.

    The zero vector is an error rather than 0, to surface caller bugs.  The
    scale enters last, so a product state gives 0 at every scale and an
    entangled one overflows only where its true value does.
    """
    unit, peak, rest = _unit_split(v, "E2")
    return rest**2 * entanglement_E(unit, shape, tol=tol) * peak * peak


def swap_operator(shape) -> np.ndarray:
    """Permutation matrix relabeling the two subsystems: |i_A, j_B> -> |j, i>.

    For shape (n, m) the output is indexed with the (m, n) layout; for
    n = m the operator squares to the identity.  This is the full
    relabeling of both factors, not a subspace exchange.
    """
    shape = as_shape(shape)
    n, m = shape.n, shape.m
    s = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(m):
            s[j * n + i, i * m + j] = 1.0
    return s
