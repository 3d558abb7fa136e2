"""Quantitative analyzer for local factors of a bipartite map.

Given the two local factors (A, B) of a map already known to be Local or
SwapLocal, decide whether it preserves the scale-ignoring measure E1 or the
norm-weighted measure E2, and certify the (multiple of a) local unitary or
produce a witness from the two-term psi(c) state family.

The decisions reduce to the singular spectra: E1 is preserved iff both
spectra are flat, E2 iff the extreme products lambda_1*mu_1 and
lambda_n*mu_m both equal 1 (which, with the orderings, forces every
product to 1, i.e. A = c U and B = V / c with U, V unitary).

The witness values come from the same spectra.  With A = W_A L V_A^dag and
B = W_B M V_B^dag, the probe psi_c(1/sqrt 2) in the right singular bases
maps to (x |w_A1 w_B1> + y |w_An w_Bm>) / sqrt 2 with x = lambda_1 mu_1
and y = lambda_n mu_m.  The two terms are orthogonal, so the image is
already Schmidt-decomposed: its E1 is the binary entropy h(q) of
q = y^2 / (x^2 + y^2) and its E2 is h(q) (x^2 + y^2) / 2, while the probe
has value 1 under both measures.  As in the Schmidt helpers, a ratio
y / x at or below DEFAULT_RANK_TOL counts as rank 1 and gives 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoRoot, ParamOutOfRange, RankDeficient, ShapeMismatch
from .linalg import DEFAULT_RANK_TOL, SVDResult, as_matrix, svd, tolerance
from .schmidt import as_shape

ROOT_TOL = 1e-9


@dataclass(frozen=True)
class SingularSpectrumPair:
    """Descending positive singular values of the two local factors."""

    lambdas: np.ndarray
    mus: np.ndarray


def _factor_svds(a, b, tol) -> tuple[SVDResult, SVDResult]:
    """One SVD per factor; both factors must be invertible within tol."""
    tol, ra, rb = tolerance(tol), svd(a), svd(b)
    for name, s in (("A", ra.singular_values), ("B", rb.singular_values)):
        if s[0] == 0.0 or s[-1] <= tol * s[0]:
            raise RankDeficient(f"factor {name} is numerically singular")
    return ra, rb


def singular_spectra(a, b, tol: float = DEFAULT_RANK_TOL) -> SingularSpectrumPair:
    """Singular values of both factors; both must be invertible within tol."""
    ra, rb = _factor_svds(a, b, tol)
    return SingularSpectrumPair(lambdas=ra.singular_values, mus=rb.singular_values)


def psi_c(c: float, shape, bases=None) -> np.ndarray:
    """Two-term probe state c|a_1 b_1> + sqrt(1-c^2)|a_n b_m>.

    The local kets come from the right factors (U_A, U_B) of the singular
    decompositions, |a_i> = U_A^{-1}|i>; computational bases when no bases
    are given.  c = 1/sqrt(2) gives the maximally entangled rank-2 state.
    """
    if not 0.0 <= c <= 1.0:
        raise ParamOutOfRange(f"c must be in [0, 1], got {c}")
    shape = as_shape(shape)
    if bases is None:
        ua = np.eye(shape.n, dtype=complex)
        ub = np.eye(shape.m, dtype=complex)
    else:
        ua, ub = (as_matrix(u) for u in bases)
    # |a_1> and |a_n> are the first and last columns of U_A^dag
    first = np.outer(ua[0].conj(), ub[0].conj()).ravel()
    last = np.outer(ua[-1].conj(), ub[-1].conj()).ravel()
    return c * first + np.sqrt(1.0 - c**2) * last


@dataclass(frozen=True)
class QuantitativeCertificate:
    """Scalar multiple and the unitary parts of the two factors."""

    scalar: float
    unitary_a: np.ndarray
    unitary_b: np.ndarray


@dataclass(frozen=True)
class QuantitativeWitness:
    """A psi(c) state with its measure before and after the map."""

    state: np.ndarray
    value_in: float
    value_out: float


@dataclass(frozen=True)
class QuantitativeVerdict:
    measure: str
    preserved: bool
    certificate: QuantitativeCertificate | None
    witness: QuantitativeWitness | None


def _spread(s: np.ndarray) -> float:
    return float((s[0] - s[-1]) / s[0])


def _witness_value(lambdas, mus, weighted: bool) -> float:
    """value_out of the psi_c(1/sqrt 2) witness: E1, or E2 when weighted.

    h(q) with q = r^2 / (1 + r^2) and r = y / x (module docstring), times
    (x^2 + y^2) / 2 = x^2 (1 + r^2) / 2 when weighted; r <= DEFAULT_RANK_TOL
    reads as a product image.  Python floats carry the scale, which enters
    last as in measure_E2, so the value overflows or underflows only where
    the true value does, and without a RuntimeWarning.
    """
    r = float(lambdas[-1] / lambdas[0]) * float(mus[-1] / mus[0])
    if r <= DEFAULT_RANK_TOL:
        return 0.0
    # psi_c_entanglement(c) is h(c^2); c^2 = q keeps the small weight exact
    value = psi_c_entanglement(r / np.sqrt(1.0 + r * r))
    if weighted:
        x = float(lambdas[0]) * float(mus[0])
        value = (1.0 + r * r) / 2.0 * value * x * x
    return value


def _check(measure, a, b, tol, preserved, scalar) -> QuantitativeVerdict:
    """preserved(lambdas, mus, tol) decides from one SVD per factor.

    Both factors must be square with dimension >= 2 (ShapeMismatch).  The
    certificate holds scalar(lambdas, mus) and the unitary parts U Vh; the
    witness is psi_c(1/sqrt 2) in the right singular bases, with value_in
    exactly 1 and value_out read off the spectra by _witness_value.
    """
    a, b, tol = as_matrix(a), as_matrix(b), tolerance(tol)
    for name, f in (("A", a), ("B", b)):
        if f.shape[0] != f.shape[1] or f.shape[0] < 2:
            raise ShapeMismatch(f"factor {name} is {f.shape}; it must be square with dim >= 2")
    ra, rb = _factor_svds(a, b, tol)
    lambdas, mus = ra.singular_values, rb.singular_values
    if preserved(lambdas, mus, tol):
        unitaries = (ra.left_basis @ ra.right_basis, rb.left_basis @ rb.right_basis)
        cert = QuantitativeCertificate(float(scalar(lambdas, mus)), *unitaries)
        return QuantitativeVerdict(measure, True, cert, None)
    state = psi_c(1.0 / np.sqrt(2.0), (a.shape[0], b.shape[0]), (ra.right_basis, rb.right_basis))
    witness = QuantitativeWitness(state, 1.0, _witness_value(lambdas, mus, measure == "E2"))
    return QuantitativeVerdict(measure, False, None, witness)


def check_E1(a, b, tol: float = DEFAULT_RANK_TOL) -> QuantitativeVerdict:
    """Preserved iff both singular spectra are flat (relative spread <= tol).

    On success the factors are multiples of unitaries; the certificate
    carries lambda_1*mu_1 and the unitary parts.  On failure the maximally
    entangled probe (E1 = 1) maps to an image of E1 = h(q) < 1, the binary
    entropy of q = (lambda_n mu_m)^2 / ((lambda_1 mu_1)^2 + (lambda_n mu_m)^2),
    read off the spectra (0 when lambda_n mu_m / lambda_1 mu_1 <=
    DEFAULT_RANK_TOL).  Non-square factors or dimension < 2: ShapeMismatch.
    """
    return _check(
        "E1", a, b, tol,
        lambda lambdas, mus, tol: _spread(lambdas) <= tol and _spread(mus) <= tol,
        lambda lambdas, mus: float(lambdas[0]) * float(mus[0]),
    )


def check_E2(a, b, tol: float = DEFAULT_RANK_TOL) -> QuantitativeVerdict:
    """Preserved iff lambda_1*mu_1 = lambda_n*mu_m = 1 within tol.

    With the spectra ordered this forces every product lambda_i*mu_j to 1,
    i.e. A = c U and B = V / c; the certificate records c = lambda_1.  On
    failure the probe (E2 = 1) maps to an image of E2 = h(q) (x^2 + y^2) / 2
    with x = lambda_1 mu_1, y = lambda_n mu_m and q as in check_E1, read off
    the spectra.  Non-square factors or dimension < 2: ShapeMismatch.
    """
    return _check(
        "E2", a, b, tol,
        lambda lambdas, mus, tol: abs(float(lambdas[0]) * float(mus[0]) - 1.0) <= tol
        and abs(float(lambdas[-1]) * float(mus[-1]) - 1.0) <= tol,
        lambda lambdas, mus: lambdas[0],
    )


# ---------------------------------------------------------------------------
# the ratio-root certification for the norm-weighted measure

def psi_c_entanglement(c):
    """E of the two-term probe: the binary entropy of c^2, in ebits."""
    c = np.asarray(c, dtype=float)
    x = c**2
    out = np.zeros_like(x)
    for val, weight in ((x, x), (1.0 - x, 1.0 - x)):
        mask = val > 0.0
        out = out - np.where(mask, weight * np.log2(np.where(mask, val, 1.0)), 0.0)
    return out if out.ndim else float(out)


def ratio_deficit(c):
    """E(psi(c)) / sqrt(c^2 (1 - c^2)) - 2 on (0, 1).

    Non-positive everywhere and tangent to zero at its only root, where a
    norm-trading local map can keep the probe's image maximally entangled.
    """
    c = np.asarray(c, dtype=float)
    return psi_c_entanglement(c) / np.sqrt(c**2 * (1.0 - c**2)) - 2.0


def _ratio_deficit_derivative(c: float) -> float:
    # d/dc of E(c)/D(c) with E = H(c^2), D = c sqrt(1-c^2); both E' and D'
    # vanish at the root, so the quotient rule keeps full precision there.
    x = c * c
    e = psi_c_entanglement(c)
    e_prime = 2.0 * c * np.log2((1.0 - x) / x)
    d_val = c * np.sqrt(1.0 - x)
    d_prime = (1.0 - 2.0 * x) / np.sqrt(1.0 - x)
    return (e_prime * d_val - e * d_prime) / d_val**2


def ratio_deficit_sign_changes(grid_points: int = 10**6) -> int:
    """Sign changes of the deficit's first differences on a uniform grid.

    One change (rise then fall) certifies a single interior maximum, hence
    a unique root given that the maximum value is zero.
    """
    cs = np.linspace(1e-6, 1.0 - 1e-6, grid_points)
    diffs = np.diff(ratio_deficit(cs))
    signs = np.sign(diffs)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def ratio_deficit_root(tol: float = ROOT_TOL, grid_points: int = 10**6) -> float:
    """The unique c in (0, 1) with E(psi(c)) = 2 sqrt(c^2 (1 - c^2)).

    The deficit touches zero without crossing, so bisection brackets its
    analytic derivative (which changes sign exactly once); uniqueness is
    certified by the grid scan.  Returns 1/sqrt(2) to within tol.
    """
    if tol <= 0.0:
        raise ParamOutOfRange(f"tol must be positive, got {tol}")
    lo, hi = 1e-4, 1.0 - 1e-4
    if not (_ratio_deficit_derivative(lo) > 0.0 > _ratio_deficit_derivative(hi)):
        raise NoRoot("deficit derivative does not bracket a maximum")
    while hi - lo > tol / 4:
        mid = 0.5 * (lo + hi)
        if _ratio_deficit_derivative(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if abs(float(ratio_deficit(root))) > 1e-6:
        raise NoRoot(f"deficit at the stationary point is {ratio_deficit(root)}")
    if ratio_deficit_sign_changes(grid_points) != 1:
        raise NoRoot("grid scan does not certify a unique maximum")
    return root
