"""Single-system analyzer: analyze decides whether a linear map on density
matrices is a unitary or antiunitary conjugation, and names its stages in
order.

A map is a d^2 x d^2 matrix M acting on column-stacked density matrices:
entry (i, j) of rho sits at flat index i + j*d, so rho -> U rho U^dag is
conj(U) x U.  This matrix form makes linearity over statistical mixtures
automatic.  It has two reading models (Wigner's theorem): the unitary one,
M = g conj(U) x U, and the antiunitary one, M T = g conj(U) x U with T the
transpose of rho; _fit_conjugation writes both out entry by entry.

Every decision is taken at the map's unit scale (linalg.unit_scale).  The
closed-form helpers give the spectra of the paper's two-state mixture
argument, on which the witness search runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ParamOutOfRange, ShapeMismatch
from .generators import random_pure_state, split_rng
from .linalg import DEFAULT_RANK_TOL, as_matrix, block_beyond, dag, dimension, ldexp, tolerance, unit_scale

KIND_UNITARY = "UnitaryConjugation"
KIND_ANTIUNITARY = "AntiunitaryConjugation"
KIND_NOT_PRESERVING = "NotPreserving"

_TURN = np.array([[1.0], [1j]])  # the factors of _real_forms' two rows
_TURN.flags.writeable = False


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

    The matrix is stored C-contiguous, and construction takes its unit
    scale (linalg.unit_scale, in d slabs), refusing a non-finite entry
    with ParamOutOfRange.  analyze works at the scale kept on the
    instance, so the matrix must not be mutated after construction.  dim
    follows linalg.dimension's integer rule.
    """

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        d = dimension(self.dim, "superoperator dim")
        m = np.ascontiguousarray(as_matrix(self.matrix))
        if m.shape != (d * d, d * d):
            raise ShapeMismatch(f"superoperator matrix is {m.shape}, dim {d} needs {(d * d, d * d)}")
        k, unit_sq = unit_scale(m, d)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "_exponent", k)
        object.__setattr__(self, "_unit_sq", unit_sq)

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


def _input_spectra(ps, lam2_sq):
    """(lo, hi) eigenvalues of p|phi1><phi1| + (1-p)|phi2><phi2| for each p
    and each lam2_sq, broadcast against ps.

    lam2_sq = 1 - |<phi1|phi2>|^2 (clipped at 0) is the squared component of
    phi2 orthogonal to phi1.  With x = 4p(1-p) lam2_sq the eigenvalues are
    (1 -+ sqrt(1 - x)) / 2; lo is taken as x / (2(1 + sqrt(1 - x))), which
    has no cancellation, and hi = 1 - lo.
    """
    ps = np.asarray(ps, dtype=float)
    x = 4.0 * ps * (1.0 - ps) * np.maximum(lam2_sq, 0.0)
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


def _output_spectra(ps, d1, d2, mu2_sq):
    """(lo, hi) eigenvalues of p*d1|psi1><psi1| + (1-p)*d2|psi2><psi2| for each
    p and each (d1, d2, mu2_sq), broadcast against ps.

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
    x = np.minimum(4.0 * (a / alpha) * (b / alpha) * np.maximum(mu2_sq, 0.0), 1.0)
    lo = alpha * x / (2.0 * (1.0 + np.sqrt(1.0 - x)))
    return lo, alpha - lo


def output_spectrum(p: float, d1: float, d2: float, mu2: float) -> MixtureSpectrum:
    """Eigenvalues of p*d1|psi1><psi1| + (1-p)*d2|psi2><psi2|.

    d1, d2 are the gains of the two image projectors, each in (0, inf), and
    mu2 the orthogonal component of psi2 relative to psi1.  The pair sums to
    alpha = p*d1 + (1-p)*d2; lo has no cancellation and neither value
    under- or overflows at any gain scale (see _output_spectra).
    """
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"p must be in [0, 1], got {p}")
    if not (0.0 < d1 < math.inf and 0.0 < d2 < math.inf):
        raise ParamOutOfRange(f"gains must be positive and finite, got d1={d1}, d2={d2}")
    if not 0.0 < mu2 <= 1.0:
        raise ParamOutOfRange(f"mu2 must be in (0, 1], got {mu2}")
    lo, hi = _output_spectra(p, d1, d2, mu2**2)
    return MixtureSpectrum(lo=float(lo), hi=float(hi))


def mu2_relation(p: float, d1: float, d2: float, lam2: float) -> float:
    """The image-overlap component forced by ratio equality at mixing p.

    mu2 = |p(d1-d2) + d2| * lam2 / sqrt(d1 d2); constant in p exactly when
    d1 = d2 (where it collapses to lam2).  The root is taken of each gain
    apart, so no product of gains under- or overflows.  Each gain must lie
    in (0, inf) (ParamOutOfRange otherwise), and ratio_mismatch_scan takes
    its gains through here.
    """
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"p must be in [0, 1], got {p}")
    if not (0.0 < d1 < math.inf and 0.0 < d2 < math.inf):
        raise ParamOutOfRange(f"gains must be positive and finite, got d1={d1}, d2={d2}")
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


def _real_forms(a: np.ndarray, g: float) -> np.ndarray:
    """The rows of g a and i g a as reals, shape (n, 2, 2n): forms[n, 0]
    and forms[n, 1] hold the interleaved real and imaginary parts of g a[n]
    and i g a[n].  So (x, y) @ forms[n] are those of (x + i y) g a[n], and
    one real matmul with inner dimension 2 of the pairs (Re c, Im c) against
    forms gives the complex products c g a[n]."""
    return (a[:, None, :] * (g * _TURN)).view(np.float64)


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
    g0 = max(Re<K_0, S_0>, 0) / d.  The model slab g0 K_j is one real
    matmul into a second buffer of the slab's size, subtracted in place:
    the unitary reading's [i, l, k] = g0 conj(U[j, l]) U[i, k] takes the
    pairs (Re, Im) of conj(U[j]), (d, 2), against the real forms of g0 U
    and i g0 U, (d, 2, 2d); the transposed reading's [i, a, b] =
    g0 U[i, a] conj(U[j, b]) takes the pairs of U, (d^2, 2), against the
    real forms of g0 conj(U[j]) and i g0 conj(U[j]), (2, 2d).  g0 enters
    the forms, which are built once, after the first slab's inner product.
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
    parts = superop.matrix.view(np.float64).reshape(d, d, d, 2 * d)
    den = superop._unit_sq
    limit = tol**2 * den
    slab = np.empty((d, d, d), dtype=complex)
    real = slab.view(np.float64)
    model = np.empty_like(real)
    np.ldexp(parts[0], -k, out=real)
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
            np.ldexp(parts[j], -k, out=real)
        if transpose:
            inner += (flat_uc @ slab.reshape(d * d, d)) @ u[j]
        else:
            inner += np.matmul(slab, uc[:, :, None]).sum(axis=0)[:, 0] @ u[j]
        if not j:
            g0 = max(float(inner.real), 0.0) / d
            if transpose:
                pairs, forms = u.view(np.float64).reshape(d * d, 2), _real_forms(uc, g0)
                out = model.reshape(d * d, -1)
            else:
                pairs, forms, out = uc.view(np.float64).reshape(d, d, 2), _real_forms(u, g0), model
        if transpose:
            np.matmul(pairs, forms[j], out=out)
        else:
            np.matmul(pairs[j], forms, out=out)
        real -= model
        num += float(np.vdot(slab, slab).real)
        curvature = (j + 1) * d
        c = float(inner.real) - g0 * curvature
        shift = max(c / curvature, -g0)
        bound = num - shift * (2.0 * c - shift * curvature)
        if not bound <= limit:
            return None, None, math.sqrt(bound / den)
    gain = float(inner.real) / d**2
    if not gain > 0.0:
        return None, None, np.inf
    return u, float(np.ldexp(gain, k)), math.sqrt(max(bound, 0.0) / den)


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of eigenvalues, normalized by the row sum;
    NaN where the sum is not positive (no valid state after normalization)."""
    totals = spectra.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = spectra / totals
        terms = np.where(probs > 0.0, probs * np.log2(probs), 0.0)
    return np.where(totals[..., 0] > 0.0, -terms.sum(axis=-1) + 0.0, np.nan)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + dag(m)) / 2


def _witness(phi1, phi2, p, entropy_in, h) -> EntropyWitness | None:
    """The witness of the mixture p|phi1><phi1| + (1-p)|phi2><phi2|, given
    the Hermitian part h of its image, whose clipped spectrum (one
    eigensolve) gives entropy_out; None when that spectrum sums to 0 and
    leaves no state after normalization (the image of -|phi><phi|, say).
    The witness holds its own copies of phi1 and phi2."""
    spectrum = np.clip(np.linalg.eigvalsh(h), 0.0, None)
    if not spectrum.sum() > 0.0:
        return None
    return EntropyWitness(
        phi1=np.array(phi1),
        phi2=np.array(phi2),
        p=float(p),
        entropy_in=float(entropy_in),
        entropy_out=float(_entropies(spectrum)),
    )


def _scan_pairs(probes, images, kets, gains, first, second) -> EntropyWitness | None:
    """The witness of the probe pair (first[n], second[n]) and the mixing
    weight on a 101-point grid with the largest entropy mismatch.

    The images are certified positive rank 1, with traces gains and top
    eigenvectors kets, so every mixture on the grid has the closed-form
    spectra of the two-state mixture argument: the input one of the probes'
    overlap, the output one of the two gains and the kets' overlap.  The
    map is linear, so the Hermitian part of the chosen mixture's image is
    the same mixture of the two images' Hermitian parts; only that one is
    diagonalized, so the reported entropies are exact.  An output spectrum
    with no valid normalization counts as an infinite mismatch.
    """
    pairs = list(zip(first, second))
    ps = np.linspace(0.0, 1.0, 101)
    lam2_sq = np.array([1.0 - abs(np.vdot(probes[k], probes[l])) ** 2 for k, l in pairs])
    mu2_sq = np.array([1.0 - abs(np.vdot(kets[k], kets[l])) ** 2 for k, l in pairs])
    s_in = _entropies(np.stack(_input_spectra(ps, lam2_sq[:, None]), axis=-1))
    spectra = _output_spectra(ps, gains[first][:, None], gains[second][:, None], mu2_sq[:, None])
    s_out = _entropies(np.stack(spectra, axis=-1))
    mismatch = np.where(np.isnan(s_out), np.inf, np.abs(s_in - s_out))
    n, i = np.unravel_index(np.argmax(mismatch), mismatch.shape)
    (k, l), p = pairs[n], ps[i]
    h = p * _hermitian_part(images[k])
    h += (1.0 - p) * _hermitian_part(images[l])
    return _witness(probes[k], probes[l], p, s_in[n, i], h)


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


@lru_cache(maxsize=None)
def _basis_kets(d: int) -> np.ndarray:
    """The rows of the d x d identity, the basis set's states; cached per
    d, hence read-only."""
    kets = np.eye(d, dtype=complex)
    kets.flags.writeable = False
    return kets


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
    return _stacked(ldexp(superop.matrix @ vecs, -k - c), d)


def _basis_images(superop: Superoperator, part: slice) -> np.ndarray:
    """Images of the basis projectors |a><a|, a in range(d)[part], under
    the unit-scale map, stacked as _probe_images stacks them.  The
    column-stacked form of |a><a| is the unit vector at a(d+1), so each
    image is column a(d+1) of M * 2^-k: a strided read with no product
    with M."""
    d = superop.dim
    return _stacked(ldexp(superop.matrix[:, :: d + 1][:, part], -superop._exponent), d)


def _stacked(vecs: np.ndarray, d: int) -> np.ndarray:
    """The column-stacked images in the columns of vecs as a contiguous
    stack [n, i, j]."""
    return np.ascontiguousarray(vecs.reshape(d, d, -1).transpose(2, 1, 0))


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
    failure is (witness, detail, mixed) for the first image, in the order
    of phis, that fails (the witness None as _witness says), else None; h
    is the stack of Hermitian parts at unit scale and kets[n] the unit top
    eigenvector of h[n] (up to a phase, within tol) for every image that
    passes.  mixed says that the failing image is Hermitian and that its
    eigenvalues, from the eigensolve that failed it, have a second largest
    above tol times the largest modulus: then the clipped spectrum keeps two
    positive values, so the single-state witness's entropy_out > 0 =
    entropy_in.

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
        mixed = False
        if hermitian[i]:
            lam, vecs = np.linalg.eigh(h[i])
            residual = np.linalg.norm(h[i] - lam[-1] * np.outer(vecs[:, -1], vecs[:, -1].conj()))
            if lam[-1] > tol and residual <= tol * np.linalg.norm(h[i]):
                kets[i] = vecs[:, -1]
                continue
            mixed = d > 1 and bool(lam[-2] > tol * max(-lam[0], lam[-1]))
            detail = "image of a pure state is not a positive rank-1 matrix"
        else:
            detail = "image of a pure state is not Hermitian"
        witness = _witness(phis[i], phis[i], 1.0, 0.0, _hermitian_part(images[i]))
        return (witness, detail, mixed), h, kets
    return None, h, kets


def _first_stages(superop: Superoperator, phis, image_of, tol: float):
    """(failure, images, kets, gains) of the rank-1 and gains stages for the
    pure states phis, whose unit-scale images image_of(part) gives: the
    first state alone, which decides most maps that send pure states to
    mixed ones, then the rest at once.

    failure is None when every image is certified positive rank 1 (the
    images, their kets and their traces gains are then returned) and the
    gains agree within tol; else it is (witness, detail, claimed) for the
    first stage that fails and the rest is None.  A rank-1 failure claims
    an entropy change when _check_images found its image mixed.  A gains
    failure, the pair of smallest and largest gain mixed on the closed-form
    grid (_scan_pairs), claims the two gains it reports at the map's scale.
    """
    images, kets = [], []
    for part in (slice(0, 1), slice(1, None)):
        m = image_of(part)
        failure, _, w = _check_images(phis[part], m, tol)
        if failure is not None:
            return failure, None, None, None
        images.append(m)
        kets.append(w)
    images, kets = np.concatenate(images), np.concatenate(kets)
    gains = np.trace(images, axis1=1, axis2=2).real
    if gains.max() - gains.min() > tol * float(gains.mean()):
        k, l = int(np.argmin(gains)), int(np.argmax(gains))
        lo, hi = ldexp(gains[[k, l]], superop._exponent)
        witness = _scan_pairs(phis, images, kets, gains, [k], [l])
        return (witness, f"pure-state gains differ: {lo:.6g} vs {hi:.6g}", True), None, None, None
    return None, images, kets, gains


def _search_witness(superop: Superoperator, tol: float):
    """(witness, detail) for a map no conjugation reproduces.

    Two probe sets run the same first stages (_first_stages).  The basis
    set comes first: the d projectors |a><a|, whose images are columns of
    M (_basis_images), so it takes no product with the map.  It decides
    the map only with a witness that makes its claim: a pair of basis kets
    of unequal gains, or a basis ket whose image is Hermitian with a second
    eigenvalue above tol times the largest eigenvalue modulus, so that its
    entropy_out > 0 = entropy_in (read from the eigensolve _check_images
    runs, with no new one).  The limit is relative to the largest modulus,
    not to the largest eigenvalue, so the image of a negated conjugation,
    -|phi><phi|, whose other eigenvalues are rounding noise, claims
    nothing.  Every other basis outcome hands the map to the Haar set.  The
    basis set decides every entropy-verify reject of the corpus of
    scripts/equivalence.py.

    The Haar set (_fixed_probes) runs its first stages on images from two
    products with the map (_probe_images), then two pair stages, each one
    _scan_pairs: the overlap stage takes the pair whose overlap modulus
    changes most, comparing the kets _check_images certified, and the last
    stage every pair.  The first stage that fails names the witness.
    """
    d = superop.dim
    failure, *_ = _first_stages(superop, _basis_kets(d), partial(_basis_images, superop), tol)
    if failure is not None and failure[2]:
        return failure[:2]
    probes, columns = _fixed_probes(d)
    failure, images, kets, gains = _first_stages(
        superop, probes, lambda part: _probe_images(superop, columns[:, part]), tol
    )
    if failure is not None:
        return failure[:2]
    scan = partial(_scan_pairs, probes, images, kets, gains)
    gap = np.abs(np.abs(kets.conj() @ kets.T) - np.abs(dag(columns) @ columns))
    if float(gap.max()) > tol:
        k, l = np.unravel_index(np.argmax(gap), gap.shape)
        return scan([k], [l]), f"overlap modulus changes by {float(gap.max()):.3g}"

    return scan(*np.triu_indices(len(probes), 1)), "no single conjugation reproduces the map"


def _readings(superop: Superoperator, tol: float):
    """The readings analyze fits, as (kind, transpose) in order, less each
    one that a 2x2 block of its realignment puts beyond a fit
    (linalg.block_beyond); a block is tested only when its reading comes
    up, and a reading left out would have been rejected by its fit.

    The blocks take seven entries of rows 0 and 1 of M * 2^-k.  The block
    M[0,0], M[0,1], M[0,d], M[0,d+1] belongs to both realignments,
    R_U[(j,l),(i,k)] = M[jd+i, ld+k] and R_A[(j,b),(i,a)] = M[jd+i, ad+b]
    (to the second one transposed), so where it is beyond a fit no reading
    is fitted: a depolarizer or a mixture of conjugations runs no fit.
    Otherwise the unitary reading is left out where its block
    M[0,0], M[1,0], M[0,d], M[1,d] is, and the antiunitary one where its
    block M[0,0], M[1,0], M[0,1], M[1,1] is.  For d = 1 there is no 2x2
    block and both readings are fitted.
    """
    d = superop.dim
    if d == 1:
        yield from ((KIND_UNITARY, False), (KIND_ANTIUNITARY, True))
        return
    row0, row1 = superop.matrix[:2, : d + 2].tolist()
    k, unit_sq = -superop._exponent, superop._unit_sq
    if block_beyond(row0[0], row0[1], row0[d], row0[d + 1], k, unit_sq, tol):
        return
    if not block_beyond(row0[0], row1[0], row0[d], row1[d], k, unit_sq, tol):
        yield KIND_UNITARY, False
    if not block_beyond(row0[0], row1[0], row0[1], row1[1], k, unit_sq, tol):
        yield KIND_ANTIUNITARY, True


def analyze(superop: Superoperator, tol: float = DEFAULT_RANK_TOL) -> SingleSystemVerdict:
    """Decide whether the map is a (scaled) unitary or antiunitary conjugation.

    A reading is accepted exactly when its fitted gain g > 0 and
    ||M - g conj(U) x U||_F <= tol ||M||_F (the antiunitary one with M T
    in place of M); the verdict reports U and g.  For d >= 2 no map fits
    both readings, as the transpose is not completely positive.  A reject
    is NotPreserving with an EntropyWitness and a detail naming the stage
    that failed, or with no witness where the reported image leaves no
    state (_witness); its detail then ends in "; no witness found".  The
    verdict depends only on the map and tol, with tol in (0, 1).

    Stages, in order:
    1. _readings: 2x2 blocks rule readings out before any fit.
    2. _fit_conjugation, unitary then antiunitary, for each reading left;
       the first that fits is the verdict.
    3. _search_witness, on reject.
    An accepted map is read twice in all: by the constructor's sum and by
    the fit that accepts it.
    """
    tol = tolerance(tol)
    for kind, transpose in _readings(superop, tol):
        u, gain, err = _fit_conjugation(superop, tol, transpose)
        if err <= tol:
            return SingleSystemVerdict(
                kind=kind, unitary=u, gain=gain, witness=None, detail="certified by reconstruction"
            )
    witness, detail = _search_witness(superop, tol)
    if witness is None:
        detail += "; no witness found"
    return SingleSystemVerdict(
        kind=KIND_NOT_PRESERVING, unitary=None, gain=None, witness=witness, detail=detail
    )
