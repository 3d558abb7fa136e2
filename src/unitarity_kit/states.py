"""Single-system state model: pure states, density matrices and entropy.

Entropy is measured in bits (log base 2) throughout; that base is part of
the public contract.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDensityMatrix, InvalidPureState
from .linalg import DEFAULT_RANK_TOL, as_matrix, as_vector, dag


def check_pure_state(psi, tol: float = 1e-8) -> np.ndarray:
    """Validate unit norm and return the vector as complex128; a non-finite
    entry is refused (InvalidPureState) before any norm is taken."""
    v = as_vector(psi)
    if not np.isfinite(v).all():
        raise InvalidPureState("state has non-finite entries")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > tol:
        raise InvalidPureState(f"norm is {norm}, expected 1 within {tol}")
    return v


def pure_projector(psi) -> np.ndarray:
    """|psi><psi| for a ket."""
    v = as_vector(psi)
    return np.outer(v, v.conj())


def check_density_matrix(rho, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Validate Hermiticity, positivity, and unit trace; return eigenvalues.

    Eigenvalues in [-tol, 0) are clamped to 0 (floating-point PSD drift);
    anything below -tol raises InvalidDensityMatrix, as does a non-finite
    entry, before any test reads it.
    """
    m = as_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise InvalidDensityMatrix(f"matrix is {m.shape}, not square")
    if not np.isfinite(m).all():
        raise InvalidDensityMatrix("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - dag(m)).max()) > tol * scale:
        raise InvalidDensityMatrix("not Hermitian within tolerance")
    if abs(np.trace(m).real - 1.0) > tol or abs(np.trace(m).imag) > tol:
        raise InvalidDensityMatrix(f"trace is {np.trace(m)}, expected 1")
    w = np.linalg.eigvalsh((m + dag(m)) / 2)
    if w.min() < -tol:
        raise InvalidDensityMatrix(f"negative eigenvalue {w.min()}")
    return np.clip(w, 0.0, None)


def shannon_bits(probs: np.ndarray) -> float:
    """-sum p log2 p with 0*log(0) := 0."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum()) + 0.0


def von_neumann_entropy(rho, tol: float = DEFAULT_RANK_TOL) -> float:
    """Entropy of a density matrix in bits, from its eigenvalue spectrum."""
    return shannon_bits(check_density_matrix(rho, tol=tol))
