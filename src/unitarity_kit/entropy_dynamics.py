"""Single-system analyzer: decides whether a linear map on density matrices
preserves disorder, reads the implementing unitary (or antiunitary) and its
gain off the map and certifies them by reconstruction, or returns a concrete
counterexample witness.

A candidate dynamics is a d^2 x d^2 matrix acting on column-stacked density
matrices (entry (i, j) of rho sits at flat index i + j*d).  This matrix form
makes linearity over statistical mixtures automatic, so the analyzer only
has to test preservation of disorder and extract the structure.

Every decision is made at unit scale, on M * 2^-k, with k one binary
exponent per map that the constructor takes from the sum of squares it
already forms.  Scaling by a power of two is exact, so the fits, probe
images and witnesses are the same bits for M and for M * 2^j whenever that
product is exact, and no norm under- or overflows at any scale of the map.
Only the gain, and the gains a reject reports, are multiplied back by 2^k.

An accepted map is read twice: once by the constructor, whose one sum
gives finiteness, the exponent and the unit-scale squared norm, and once by
the fit of the reading that accepts it, which scales each slab into a
buffer and takes the gain and the residual in the same pass over the map's
own layout.  A wrong reading stops as soon as the slabs read so far leave
no gain within tol, most often after its first slab.

The closed-form helpers give the spectra of the two-state mixture argument,
and the witness search runs on them.  Once every probe image is certified
as a positive rank-1 matrix (by a rank-1 fit, without an eigensolve), a
mixture of two images has the closed-form output spectrum of its two gains
and one overlap, as its input mixture has the input one; the search then
diagonalizes only the mixture it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParamOutOfRange, ShapeMismatch
from .generators import random_pure_state, split_rng
from .linalg import DEFAULT_RANK_TOL, as_matrix, dag, ldexp, part_exponent, tolerance

KIND_UNITARY = "UnitaryConjugation"
KIND_ANTIUNITARY = "AntiunitaryConjugation"
KIND_NOT_PRESERVING = "NotPreserving"

_TINY = float(np.finfo(np.float64).tiny)


# ---------------------------------------------------------------------------
# superoperator representation (column-stacking convention)

def vec_density(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix: vec(rho)[i + j*d] = rho[i, j]."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec_density(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Candidate single-system dynamics in matrix form; every entry finite.

    The matrix is stored C-contiguous, and construction reads it once: its
    squared Frobenius norm, one vdot, is finite exactly when every entry is,
    as a sum of non-negative terms cannot cancel an inf or a NaN.  When
    the sum is finite and normal, it also gives the exponent k, with
    ||M * 2^-k||_F^2 in [1/4, 1), and that unit-scale sum exactly.  Only a
    sum outside the normal range (an overflow, a NaN, an inf, or a map so
    small that its squares underflow) reads the largest and smallest real
    or imaginary part, which refuse a non-finite entry and give a first
    exponent, and sums the slabs at that scale once.  analyze works at the
    scale kept on the instance, so the matrix must not be mutated after
    construction.
    """

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        m = np.ascontiguousarray(as_matrix(self.matrix))
        if m.shape != (self.dim**2, self.dim**2):
            raise ShapeMismatch(
                f"superoperator matrix is {m.shape}, dim {self.dim} needs "
                f"{(self.dim**2, self.dim**2)}"
            )
        total, shift = float(np.vdot(m, m).real), 0
        if not _TINY <= total < math.inf:
            shift = part_exponent(m)
            if shift is None:
                raise ParamOutOfRange("superoperator has non-finite entries")
            unit_slabs = (ldexp(rows, -shift) for rows in m.reshape(self.dim, -1))
            total = float(sum(np.vdot(s, s).real for s in unit_slabs))
        half = (math.frexp(total)[1] + 1) // 2
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_exponent", shift + half)
        object.__setattr__(self, "_unit_sq", math.ldexp(total, -2 * half))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec_density(self.matrix @ vec_density(rho), self.dim)


def superop_from_conjugation(u, gain: float = 1.0) -> Superoperator:
    """rho -> gain * U rho U^dag.  With column stacking this is conj(U) x U."""
    u = as_matrix(u)
    return Superoperator(matrix=gain * np.kron(u.conj(), u), dim=u.shape[0])


def superop_transpose(d: int) -> Superoperator:
    """rho -> rho^T, the canonical antiunitary conjugation (U = identity)."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            m[a + b * d, b + a * d] = 1.0
    return Superoperator(matrix=m, dim=d)


def superop_depolarizing(d: int, strength: float = 0.5) -> Superoperator:
    """rho -> (1-s) rho + s (I/d) Tr(rho); mixes toward the flat state."""
    if not 0.0 <= strength <= 1.0:
        raise ParamOutOfRange(f"strength must be in [0, 1], got {strength}")
    m = (1.0 - strength) * np.eye(d * d, dtype=complex)
    for i in range(d):
        for k in range(d):
            m[k + k * d, i + i * d] += strength / d
    return Superoperator(matrix=m, dim=d)


# ---------------------------------------------------------------------------
# closed-form spectra of the two-state mixture argument

@dataclass(frozen=True)
class MixtureSpectrum:
    """The two eigenvalues of a rank-<=2 mixture, ascending."""

    lo: float
    hi: float


def _input_spectra(ps, lam2_sq: float):
    """(lo, hi) eigenvalues of p|phi1><phi1| + (1-p)|phi2><phi2| for each p.

    lam2_sq = 1 - |<phi1|phi2>|^2 (clipped at 0) is the squared component of
    phi2 orthogonal to phi1.  With x = 4p(1-p) lam2_sq the eigenvalues are
    (1 -+ sqrt(1 - x)) / 2; lo is taken as x / (2(1 + sqrt(1 - x))), which
    has no cancellation, and hi = 1 - lo.
    """
    ps = np.asarray(ps, dtype=float)
    x = 4.0 * ps * (1.0 - ps) * max(lam2_sq, 0.0)
    lo = x / (2.0 * (1.0 + np.sqrt(1.0 - x)))
    return lo, 1.0 - lo


def input_spectrum(p: float, lam2: float) -> MixtureSpectrum:
    """Eigenvalues of p|phi1><phi1| + (1-p)|phi2><phi2|.

    lam2 is the component of phi2 orthogonal to phi1; the pair sums to 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"p must be in [0, 1], got {p}")
    if not 0.0 < lam2 <= 1.0:
        raise ParamOutOfRange(f"lam2 must be in (0, 1], got {lam2}")
    lo, hi = _input_spectra(p, lam2**2)
    return MixtureSpectrum(lo=float(lo), hi=float(hi))


def _output_spectra(ps, d1: float, d2: float, mu2_sq: float):
    """(lo, hi) eigenvalues of p*d1|psi1><psi1| + (1-p)*d2|psi2><psi2| for each p.

    mu2_sq = 1 - |<psi1|psi2>|^2 (clipped at 0); d1, d2 > 0.  The mixture is
    alpha * (t|psi1><psi1| + (1-t)|psi2><psi2|) with alpha = p*d1 + (1-p)*d2
    and t = p*d1 / alpha, so its spectrum is _input_spectra's scaled by
    alpha, with x = 4 t (1-t) mu2_sq.  The gains enter x only through the
    ratios t and 1-t, taken apart so neither cancels, and alpha, a convex
    combination of the gains, cannot overflow: no product of gains is formed.
    """
    ps = np.asarray(ps, dtype=float)
    a = ps * d1
    b = (1.0 - ps) * d2
    alpha = a + b
    x = np.minimum(4.0 * (a / alpha) * (b / alpha) * max(mu2_sq, 0.0), 1.0)
    lo = alpha * x / (2.0 * (1.0 + np.sqrt(1.0 - x)))
    return lo, alpha - lo


def output_spectrum(p: float, d1: float, d2: float, mu2: float) -> MixtureSpectrum:
    """Eigenvalues of p*d1|psi1><psi1| + (1-p)*d2|psi2><psi2|.

    d1, d2 are the gains of the two image projectors and mu2 the orthogonal
    component of psi2 relative to psi1.  The pair sums to
    alpha = p*d1 + (1-p)*d2; lo has no cancellation and neither value
    under- or overflows at any gain scale (see _output_spectra).
    """
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"p must be in [0, 1], got {p}")
    if not (d1 > 0.0 and d2 > 0.0):
        raise ParamOutOfRange(f"gains must be positive, got d1={d1}, d2={d2}")
    if not 0.0 < mu2 <= 1.0:
        raise ParamOutOfRange(f"mu2 must be in (0, 1], got {mu2}")
    lo, hi = _output_spectra(p, d1, d2, mu2**2)
    return MixtureSpectrum(lo=float(lo), hi=float(hi))


def mu2_relation(p: float, d1: float, d2: float, lam2: float) -> float:
    """The image-overlap component forced by ratio equality at mixing p.

    mu2 = |p(d1-d2) + d2| * lam2 / sqrt(d1 d2); constant in p exactly when
    d1 = d2 (where it collapses to lam2).  The root is taken of each gain
    apart, so no product of gains under- or overflows.
    """
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"p must be in [0, 1], got {p}")
    if not (d1 > 0.0 and d2 > 0.0):
        raise ParamOutOfRange(f"gains must be positive, got d1={d1}, d2={d2}")
    if not 0.0 < lam2 <= 1.0:
        raise ParamOutOfRange(f"lam2 must be in (0, 1], got {lam2}")
    return float(abs(p * (d1 - d2) + d2) * lam2 / (np.sqrt(d1) * np.sqrt(d2)))


def gain_equality_deficit(d1: float, d2: float, lam2: float, grid) -> float:
    """Spread (max - min) of mu2_relation over a grid of mixing parameters.

    Zero iff the two gains are equal (for lam2 > 0); strictly positive
    otherwise.  The grid must contain at least 3 points inside [0, 1].
    """
    ps = [float(p) for p in grid]
    if len(ps) < 3:
        raise ParamOutOfRange(f"grid needs >= 3 points, got {len(ps)}")
    vals = [mu2_relation(p, d1, d2, lam2) for p in ps]
    return max(vals) - min(vals)


def ratio_mismatch_scan(d1: float, d2: float, lam2: float, grid=None):
    """Locate a mixing parameter where unequal gains break the spectrum ratio.

    Fixes mu2 at the endpoint value that is always a legal state geometry
    (numerator = min gain, so mu2 <= lam2 <= 1), then scans the grid for
    the largest discrepancy between the input ratio lo/hi and the output
    ratio lo/hi, both spectra in closed form over the whole grid at once.
    Returns (p_star, mismatch), p_star the first grid point of largest
    mismatch, or (0.0, 0.0) when no point has a positive one.
    """
    ps = np.linspace(0.0, 1.0, 101) if grid is None else np.asarray(grid, dtype=float)
    if not ((ps >= 0.0) & (ps <= 1.0)).all():
        raise ParamOutOfRange("grid points must lie in [0, 1]")
    ref_p = 0.0 if d2 <= d1 else 1.0
    mu2 = mu2_relation(ref_p, d1, d2, lam2)
    lo_in, hi_in = _input_spectra(ps, lam2**2)
    lo_out, hi_out = _output_spectra(ps, d1, d2, mu2**2)
    mismatch = np.abs(lo_in / hi_in - lo_out / hi_out)
    if not (mismatch > 0.0).any():
        return 0.0, 0.0
    k = int(np.argmax(mismatch))
    return float(ps[k]), float(mismatch[k])


# ---------------------------------------------------------------------------
# the analyzer

@dataclass(frozen=True)
class EntropyWitness:
    """A pure-state pair and mixing weight exhibiting an entropy change.

    entropy_out is computed on the trace-normalized image (the map is
    allowed to rescale), so entropy_in != entropy_out is a direct
    preservation violation.  A witness of one state has phi2 = phi1 and
    p = 1, so entropy_in = 0.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    p: float
    entropy_in: float
    entropy_out: float


@dataclass(frozen=True)
class SingleSystemVerdict:
    kind: str
    unitary: np.ndarray | None
    gain: float | None
    witness: EntropyWitness | None
    detail: str


def _fit_conjugation(superop: Superoperator, tol: float, transpose: bool = False):
    """Fit one reading of the map; return (U, gain, error).

    With m4 = M.reshape(d, d, d, d), the unitary reading fits
    m4[j, i, l, k] = gain * U[i, k] * conj(U[j, l]), the antiunitary one
    (transpose) m4[j, i, a, b] = gain * U[i, a] * conj(U[j, b]), which is
    the unitary reading of M T; both run on the map's own contiguous slabs.
    U is the polar part of the largest slice of the first slab,
    m4[0, :, l, :] (transpose: m4[0, :, :, b]), and the gain is the
    least-squares one, Re<K, M> / d^2 with K the model at gain 1
    (||K||_F^2 = d^2).  The error is ||M - gain K||_F / ||M||_F.  All of it
    is taken at unit scale, on M * 2^-k against the squared norm the
    constructor kept; only the gain is scaled back by 2^k.

    One pass, one slab at a time scaled into a single d x d x d buffer (no
    d^4-sized copy): slab j adds its part of Re<K, M> and its explicit
    residual at the first slab's best non-negative gain
    g0 = max(Re<K_0, S_0>, 0) / d.
    The residual of the first J slabs is quadratic in the gain with
    curvature J d, so at gain g it is num - 2(g - g0)c + (g - g0)^2 J d,
    with num the residual at g0 and c = Re<K, S> - g0 J d over those slabs.
    Its minimum over g >= 0, at g0 plus the shift max(c / (J d), -g0), is a
    lower bound on the whole residual at any gain >= 0, so the reading is
    rejected, with no U or gain and that bound as its error, as soon as it
    exceeds tol; a wrong reading mostly stops at J = 1.  After all d slabs
    the bound is the residual at the fitted gain, num - d^2 (g - g0)^2.
    The subtraction does not cancel at tol^2: the first slab's residual at
    g is at least d (g - g0)^2, so the minimum is at least num / (J + 1).
    The expansion ||S||^2 - 2g<K, S> + g^2 ||K||^2 would cancel, which is
    why num is formed explicitly.  The error is inf when no positive gain
    can be read.
    """
    d, k = superop.dim, superop._exponent
    m4 = superop.matrix.reshape((d,) * 4)
    den = superop._unit_sq
    limit = tol**2 * den
    buf = np.empty((d, d, d), dtype=complex)

    def unit_slab(j):
        np.ldexp(m4[j].view(np.float64), -k, out=buf.view(np.float64))
        return buf

    slab = unit_slab(0)
    if transpose:
        u_slice = slab[:, :, int(np.argmax(np.linalg.norm(slab, axis=(0, 1))))]
    else:
        u_slice = slab[:, int(np.argmax(np.linalg.norm(slab, axis=(0, 2)))), :]
    w, _, vh = np.linalg.svd(u_slice)
    u = w @ vh
    uc = u.conj()
    flat_uc = uc.reshape(-1)
    inner, num, g0 = 0.0, 0.0, 0.0
    for j in range(d):
        if j:
            slab = unit_slab(j)
        if transpose:
            inner += (flat_uc @ slab.reshape(d * d, d)) @ u[j]
        else:
            inner += np.matmul(slab, uc[:, :, None]).sum(axis=0)[:, 0] @ u[j]
        if not j:
            g0 = max(float(inner.real), 0.0) / d
        if transpose:
            slab -= u[:, :, None] * (g0 * uc[j])[None, None, :]
        else:
            slab -= (g0 * uc[j])[None, :, None] * u[:, None, :]
        num += np.vdot(slab, slab).real
        curvature = (j + 1) * d
        c = float(inner.real) - g0 * curvature
        shift = max(c / curvature, -g0)
        bound = num - shift * (2.0 * c - shift * curvature)
        if not bound <= limit:
            return None, None, float(np.sqrt(bound / den))
    gain = float(inner.real) / d**2
    if not gain > 0.0:
        return None, None, np.inf
    return u, float(np.ldexp(gain, k)), float(np.sqrt(max(bound, 0.0) / den))


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of eigenvalues, normalized by the row sum;
    NaN where the sum is not positive (no valid state after normalization)."""
    totals = spectra.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = spectra / totals
        terms = np.where(probs > 0.0, probs * np.log2(probs), 0.0)
    return np.where(totals[..., 0] > 0.0, -terms.sum(axis=-1) + 0.0, np.nan)


def _mixture_spectra(ps: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clipped eigenvalues of p*a + (1-p)*b for each p, a and b Hermitian."""
    w = ps[:, None, None]
    m = w * a
    m += (1.0 - w) * b
    return np.clip(np.linalg.eigvalsh(m), 0.0, None)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + dag(m)) / 2


def _state_witness(phi, image) -> EntropyWitness:
    """The witness of one pure state, given its image: p = 1, entropy 0 in,
    and out the entropy of the image's Hermitian part (one eigensolve).
    The witness holds its own copy of phi."""
    spectrum = np.clip(np.linalg.eigvalsh(_hermitian_part(image)), 0.0, None)
    phi = np.array(phi)
    return EntropyWitness(
        phi1=phi, phi2=phi, p=1.0, entropy_in=0.0, entropy_out=float(_entropies(spectrum))
    )


def _scan_witness(phi1, q1, phi2, q2, grid_size: int = 101, rank_one=None) -> EntropyWitness:
    """Pick the mixing weight with the largest entropy mismatch for the pair.

    q1 and q2 are the map's images of the two pure projectors.  The input
    spectra over the grid are the closed form of the two-state mixture
    argument, which needs only the overlap <phi1|phi2>.  The map is linear,
    so the Hermitian part of each mixture's image is the same mixture of
    q1's and q2's Hermitian parts: the grid's output spectra need no further
    application of the map, and without rank_one each is one eigensolve.
    rank_one = (g1, g2, mu2_sq) says the images are g1|psi1><psi1| and
    g2|psi2><psi2| within tol, mu2_sq = 1 - |<psi1|psi2>|^2; the grid's
    output spectra are then the closed form too (_output_spectra), and only
    the chosen mixture is diagonalized, so the reported entropies stay exact.
    An image with no valid normalized spectrum counts as an infinite mismatch.
    The witness holds its own copies of phi1 and phi2.
    """
    ps = np.linspace(0.0, 1.0, grid_size)
    lo, hi = _input_spectra(ps, 1.0 - abs(np.vdot(phi1, phi2)) ** 2)
    s_in = _entropies(np.stack([lo, hi], axis=-1))
    h1, h2 = _hermitian_part(q1), _hermitian_part(q2)
    if rank_one is None:
        s_out = _entropies(_mixture_spectra(ps, h1, h2))
    else:
        s_out = _entropies(np.stack(_output_spectra(ps, *rank_one), axis=-1))
    k = int(np.argmax(np.where(np.isnan(s_out), np.inf, np.abs(s_in - s_out))))
    out = s_out[k] if rank_one is None else _entropies(_mixture_spectra(ps[k : k + 1], h1, h2))[0]
    return EntropyWitness(
        phi1=np.array(phi1),
        phi2=np.array(phi2),
        p=float(ps[k]),
        entropy_in=float(s_in[k]),
        entropy_out=float(out),
    )


def _probe_states(d: int, rng) -> list[np.ndarray]:
    """d+1 Haar states plus one hub, a random-phase combination of them."""
    probes = [random_pure_state(d, rng) for _ in range(d + 1)]
    while True:
        phases = np.exp(2j * np.pi * rng.uniform(size=len(probes)))
        hub = np.sum([ph * v for ph, v in zip(phases, probes)], axis=0)
        norm = np.linalg.norm(hub)
        if norm > 1e-6:
            probes.append(hub / norm)
            return probes


@lru_cache(maxsize=None)
def _fixed_probes(d: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The witness search's probes, _probe_states(d, split_rng(0, 0)), and
    their column-stacked matrix; they depend on d alone, so they are drawn
    once per d and cached, hence read-only."""
    probes = tuple(_probe_states(d, split_rng(0, 0)))
    columns = np.column_stack(probes)
    for a in (*probes, columns):
        a.flags.writeable = False
    return probes, columns


def _probe_images(superop: Superoperator, kets: np.ndarray) -> np.ndarray:
    """Images of the pure projectors of the columns of kets under the
    unit-scale map M * 2^-k, stacked as [n, i, j], from one product of the
    map with their column-stacked forms.

    The power of two goes on the forms, not on M: (M * 2^-k) V is
    (M (V * 2^c)) * 2^(-k-c), with c = -k clipped to [-960, 960] so that
    the entries of V * 2^c, at most 1 before, stay finite and, down to
    2^-62 of the largest, normal.  Every scaling is exact, so the products
    are those of the unit-scale map (for k beyond +-960, the same up to a
    factor of at most 2^113), and no copy of M is made.
    """
    d, k = superop.dim, superop._exponent
    c = min(max(-k, -960), 960)
    vecs = ldexp((kets.conj()[:, None, :] * kets[None, :, :]).reshape(d * d, -1), c)  # [i + j*d, n]
    images = ldexp(superop.matrix @ vecs, -k - c)
    return np.ascontiguousarray(images.reshape(d, d, -1).transpose(2, 1, 0))


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each x[n] of a contiguous complex stack."""
    flat = x.view(np.float64).reshape(len(x), -1)
    return np.einsum("na,na->n", flat, flat)


def _check_images(phis, images: np.ndarray, tol: float):
    """(failure, h, kets) for stacked images of the pure states phis.

    Each image m must be Hermitian, max|m - m^dag| <= tol * s with s its
    largest modulus (floored at 1e-300, so a zero image stays zero and
    fails), and then positive rank 1: h = (m + m^dag) / (2 s) has a
    largest eigenvalue lam > tol with ||h - lam vv^dag||_F <= tol ||h||_F.
    failure is (witness, detail) for the first image, in the order of phis,
    that fails, else None; h is the stack of Hermitian parts at unit scale
    and kets[n] the unit top eigenvector of h[n] (up to a phase, within
    tol) for every image that passes.

    One stacked rank-1 fit decides most images without an eigensolve: w is
    the column of h at its largest diagonal entry, divided by that entry's
    square root, and r = ||h - ww^dag||_F.  When r <= tol ||h||_F and
    ||w||^2 - r > tol the test holds, since lam >= ||w||^2 - r (Weyl) and
    lam vv^dag is the nearest positive rank-1 matrix to h, so
    ||h - lam vv^dag||_F <= r (Eckart-Young); w / ||w|| is then the ket.
    This holds for any w, so the divisor is floored at 1/2, which keeps w
    bounded: a positive matrix has its largest entry on the diagonal, and
    at unit scale that entry is about 1.  Only an image the fit does not
    certify takes an eigensolve.

    A lone image (the first probe's) skips the fit when it cannot pass.
    An image that passes has its eigenvalues beyond lam within tol ||h||_F
    in root sum of squares, so its trace is at most (1 + sqrt(d) tol)
    ||h||_F, plus rounding.  A lone image that is not Hermitian, or whose
    trace exceeds that (a clearly mixed one), goes straight to the
    eigensolve, which decides it as before.
    """
    d = images.shape[1]
    adj = images.conj().swapaxes(1, 2)
    scale = np.maximum(np.abs(images).max(axis=(1, 2)), 1e-300)
    hermitian = np.abs(images - adj).max(axis=(1, 2)) <= tol * scale
    h = (images + adj) / (2 * scale)[:, None, None]  # unit scale: no norm below under- or overflows
    diagonal = np.einsum("nii->ni", h).real
    norms = np.sqrt(_squared_norms(h))
    trace_bound = 1.0 + math.sqrt(d) * (tol + d * d * 2.0**-50)
    if len(h) == 1 and not (hermitian[0] and diagonal[0].sum() <= trace_bound * norms[0]):
        certified, kets = np.zeros(1, dtype=bool), np.zeros((1, d), dtype=complex)
    else:
        n = np.arange(len(h))
        k = np.argmax(diagonal, axis=1)
        w = h[n, :, k] / np.sqrt(np.maximum(h[n, k, k].real, 0.5))[:, None]
        w_sq = _squared_norms(w)
        misfit = np.sqrt(_squared_norms(h - w[:, :, None] * w.conj()[:, None, :]))
        certified = hermitian & (misfit <= tol * norms) & (w_sq - misfit > tol)
        kets = w / np.sqrt(np.maximum(w_sq, tol))[:, None]
    for i in np.flatnonzero(~certified):
        phi, m = phis[i], images[i]
        if not hermitian[i]:
            return (_state_witness(phi, m), "image of a pure state is not Hermitian"), h, kets
        lam, vecs = np.linalg.eigh(h[i])
        residual = np.linalg.norm(h[i] - lam[-1] * np.outer(vecs[:, -1], vecs[:, -1].conj()))
        if lam[-1] <= tol or residual > tol * np.linalg.norm(h[i]):
            failure = _state_witness(phi, m), "image of a pure state is not a positive rank-1 matrix"
            return failure, h, kets
        kets[i] = vecs[:, -1]
    return None, h, kets


def _search_witness(superop: Superoperator, tol: float):
    """(witness, detail) for a map no conjugation reproduces.

    Probe stages (fixed-stream states, drawn once per d), in order: pure
    projectors must map to positive rank-1 matrices, their gains must agree,
    pairwise overlap moduli must be preserved; the first stage that fails
    names the witness, the failing state alone at the first stage and a
    pair after it.  If all pass, the pair and mixing weight with the
    largest entropy change win.
    Every witness is built from the probe images computed here at unit
    scale, in two products with the map: the first probe alone, which
    decides most maps that send pure states to mixed ones, then the rest at
    once.  The gains stage picks its mixing weight from the closed-form
    spectra of the two rank-1 images and reports the gains at the map's
    scale; the overlap stage compares the kets _check_images certified,
    the images' top eigenvectors within tol, with no further eigensolve.
    """
    probes, columns = _fixed_probes(superop.dim)
    images, kets = [], []
    for part in (slice(0, 1), slice(1, None)):
        m = _probe_images(superop, columns[:, part])
        failure, _, w = _check_images(probes[part], m, tol)
        if failure is not None:
            return failure
        images.append(m)
        kets.append(w)
    images, kets = np.concatenate(images), np.concatenate(kets)

    def scan(k, l, grid_size=101, rank_one=None):
        return _scan_witness(probes[k], images[k], probes[l], images[l], grid_size, rank_one)

    gains = np.trace(images, axis1=1, axis2=2).real
    if gains.max() - gains.min() > tol * float(gains.mean()):
        k, l = int(np.argmin(gains)), int(np.argmax(gains))
        mu2_sq = 1.0 - abs(np.vdot(kets[k], kets[l])) ** 2
        lo, hi = ldexp(gains[[k, l]], superop._exponent)
        return (
            scan(k, l, rank_one=(gains[k], gains[l], mu2_sq)),
            f"pure-state gains differ: {lo:.6g} vs {hi:.6g}",
        )

    gap = np.abs(np.abs(kets.conj() @ kets.T) - np.abs(dag(columns) @ columns))
    if float(gap.max()) > tol:
        k, l = np.unravel_index(np.argmax(gap), gap.shape)
        return scan(k, l), f"overlap modulus changes by {float(gap.max()):.3g}"

    worst = None
    for k in range(len(probes)):
        for l in range(k + 1, len(probes)):
            w = scan(k, l, grid_size=21)
            change = abs(w.entropy_in - w.entropy_out)
            if worst is None or change > worst[0]:
                worst = (change, w)
    return worst[1], "no single conjugation reproduces the map"


def analyze(superop: Superoperator, tol: float = DEFAULT_RANK_TOL) -> SingleSystemVerdict:
    """Decide whether the map is a (scaled) unitary or antiunitary conjugation.

    The accepted maps are M = g * (conj(U) x U) and that map composed with
    the transpose, M T (Wigner's theorem).  U and g are read off M itself,
    first for the unitary reading and then for the antiunitary one (M T in
    place of M), and a reading is accepted exactly when g > 0 and
    ||M - g * conj(U) x U||_F <= tol * ||M||_F, with tol in (0, 1); for d >= 2
    no map fits both readings, as the transpose is not completely positive.
    Each reading is one pass over M's own slabs at unit scale (the
    antiunitary one fits the transposed model there, so no strided view of
    M is read), against the squared norm the constructor summed: an
    accepted map is read twice in all.
    A rejected map gets its witness from fixed-stream probe states, so the
    whole verdict depends only on (map, tol).
    """
    tol = tolerance(tol)
    for kind, transpose in ((KIND_UNITARY, False), (KIND_ANTIUNITARY, True)):
        u, gain, err = _fit_conjugation(superop, tol, transpose)
        if err <= tol:
            return SingleSystemVerdict(
                kind=kind, unitary=u, gain=gain, witness=None, detail="certified by reconstruction"
            )
    witness, detail = _search_witness(superop, tol)
    return SingleSystemVerdict(
        kind=KIND_NOT_PRESERVING, unitary=None, gain=None, witness=witness, detail=detail
    )
