"""Single-system analyzer: decides whether a linear map on density matrices
preserves disorder, reads the implementing unitary (or antiunitary) and its
gain off the map and certifies them by reconstruction, or returns a concrete
counterexample witness.

A candidate dynamics is a d^2 x d^2 matrix acting on column-stacked density
matrices (entry (i, j) of rho sits at flat index i + j*d).  This matrix form
makes linearity over statistical mixtures automatic, so the analyzer only
has to test preservation of disorder and extract the structure.

The closed-form helpers expose the intermediate spectra of the two-state
mixture argument so they can be tested against an eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeDiscriminant, ParamOutOfRange, ShapeMismatch
from .generators import random_pure_state, split_rng
from .linalg import DEFAULT_RANK_TOL, as_matrix, dag, tolerance
from .states import pure_projector

KIND_UNITARY = "UnitaryConjugation"
KIND_ANTIUNITARY = "AntiunitaryConjugation"
KIND_NOT_PRESERVING = "NotPreserving"


# ---------------------------------------------------------------------------
# superoperator representation (column-stacking convention)

def vec_density(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix: vec(rho)[i + j*d] = rho[i, j]."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec_density(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Candidate single-system dynamics in matrix form; every entry finite."""

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (self.dim**2, self.dim**2):
            raise ShapeMismatch(
                f"superoperator matrix is {m.shape}, dim {self.dim} needs "
                f"{(self.dim**2, self.dim**2)}"
            )
        if not np.isfinite(m).all():
            raise ParamOutOfRange("superoperator has non-finite entries")
        object.__setattr__(self, "matrix", m)

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


def input_spectrum(p: float, lam2: float) -> MixtureSpectrum:
    """Eigenvalues of p|phi1><phi1| + (1-p)|phi2><phi2|.

    lam2 is the component of phi2 orthogonal to phi1; the pair sums to 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"p must be in [0, 1], got {p}")
    if not 0.0 < lam2 <= 1.0:
        raise ParamOutOfRange(f"lam2 must be in (0, 1], got {lam2}")
    disc = 1.0 - 4.0 * p * lam2**2 + 4.0 * p**2 * lam2**2
    root = np.sqrt(max(disc, 0.0))
    return MixtureSpectrum(lo=0.5 * (1.0 - root), hi=0.5 * (1.0 + root))


def output_spectrum(p: float, d1: float, d2: float, mu2: float) -> MixtureSpectrum:
    """Eigenvalues of p*d1|psi1><psi1| + (1-p)*d2|psi2><psi2|.

    d1, d2 are the gains of the two image projectors and mu2 the orthogonal
    component of psi2 relative to psi1.  The pair sums to
    alpha = p*d1 + (1-p)*d2.
    """
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"p must be in [0, 1], got {p}")
    if d1 <= 0.0 or d2 <= 0.0:
        raise ParamOutOfRange(f"gains must be positive, got d1={d1}, d2={d2}")
    if not 0.0 < mu2 <= 1.0:
        raise ParamOutOfRange(f"mu2 must be in (0, 1], got {mu2}")
    alpha = p * d1 + d2 - p * d2
    disc = alpha**2 + 4.0 * p * d1 * d2 * mu2**2 * (p - 1.0)
    if disc < -1e-12 * max(alpha**2, 1.0):
        raise NegativeDiscriminant(f"inconsistent parameters, discriminant {disc}")
    beta = np.sqrt(max(disc, 0.0))
    return MixtureSpectrum(lo=0.5 * (alpha - beta), hi=0.5 * (alpha + beta))


def mu2_relation(p: float, d1: float, d2: float, lam2: float) -> float:
    """The image-overlap component forced by ratio equality at mixing p.

    mu2 = |p(d1-d2) + d2| * lam2 / sqrt(d1 d2); constant in p exactly when
    d1 = d2 (where it collapses to lam2).
    """
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"p must be in [0, 1], got {p}")
    if d1 <= 0.0 or d2 <= 0.0:
        raise ParamOutOfRange(f"gains must be positive, got d1={d1}, d2={d2}")
    if not 0.0 < lam2 <= 1.0:
        raise ParamOutOfRange(f"lam2 must be in (0, 1], got {lam2}")
    return abs(p * (d1 - d2) + d2) * lam2 / np.sqrt(d1 * d2)


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
    ratio lo/hi.  Returns (p_star, mismatch).
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    ref_p = 0.0 if d2 <= d1 else 1.0
    mu2 = mu2_relation(ref_p, d1, d2, lam2)
    best_p, best = 0.0, 0.0
    for p in grid:
        s = input_spectrum(float(p), lam2)
        t = output_spectrum(float(p), d1, d2, mu2)
        mismatch = abs(s.lo / s.hi - t.lo / t.hi)
        if mismatch > best:
            best_p, best = float(p), mismatch
    return best_p, best


# ---------------------------------------------------------------------------
# the analyzer

@dataclass(frozen=True)
class EntropyWitness:
    """A pure-state pair and mixing weight exhibiting an entropy change.

    entropy_out is computed on the trace-normalized image (the map is
    allowed to rescale), so entropy_in != entropy_out is a direct
    preservation violation.
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


def _fit_conjugation(m4: np.ndarray, tol: float):
    """Fit m4[j, i, l, k] = gain * U[i, k] * conj(U[j, l]); return (U, gain, error).

    U is the polar part of the largest slice m4[0, :, l, :] and the gain is
    the least-squares one, Re<conj(U) x U, M> / d^2.  The error is
    ||M - gain * conj(U) x U||_F / ||M||_F, summed one j slab at a time, so
    no d^4-sized copy is made; every slab is divided by the largest modulus
    of the first, so no norm under- or overflows unless the map dwarfs that
    slab.  Summation stops once the error exceeds tol, which then reports a
    lower bound.  The error is inf when no U (the first slab is zero or
    subnormal), no positive gain or no finite norm can be read.
    """
    d = m4.shape[0]
    top = float(np.abs(m4[0]).max())
    unit = 1.0 / top if top > 0.0 else np.inf
    if unit == np.inf:
        return None, None, np.inf
    row = m4[0] * unit
    w, _, vh = np.linalg.svd(row[:, int(np.argmax(np.linalg.norm(row, axis=(0, 2)))), :])
    u = w @ vh
    uc = u.conj()
    inner = den = 0.0
    for j in range(d):
        slab = m4[j] * unit
        inner += u[j] @ np.tensordot(slab, uc, axes=([0, 2], [0, 1]))
        den += np.vdot(slab, slab).real
    gain = float(inner.real) / d**2
    if not (gain > 0.0 and den < np.inf):
        return None, None, np.inf
    num = 0.0
    for j in range(d):
        r = (gain * uc[j])[None, :, None] * u[:, None, :]
        r -= m4[j] * unit
        num += np.vdot(r, r).real
        if not num <= tol**2 * den:
            break
    return u, gain * top, float(np.sqrt(num / den))


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


def _scan_witness(superop: Superoperator, phi1, phi2, grid_size: int = 101) -> EntropyWitness:
    """Pick the mixing weight with the largest entropy mismatch for the pair.

    The map is linear, so the Hermitian part of each mixture's image is the
    same mixture of the two projector images' Hermitian parts: two
    applications serve the whole grid.  An image with no valid normalized
    spectrum counts as an infinite mismatch.
    """
    p1 = pure_projector(phi1)
    p2 = pure_projector(phi2)
    q1 = superop.apply(p1)
    q2 = superop.apply(p2)
    ps = np.linspace(0.0, 1.0, grid_size)
    s_in = _entropies(_mixture_spectra(ps, p1, p2))
    s_out = _entropies(_mixture_spectra(ps, (q1 + dag(q1)) / 2, (q2 + dag(q2)) / 2))
    k = int(np.argmax(np.where(np.isnan(s_out), np.inf, np.abs(s_in - s_out))))
    return EntropyWitness(
        phi1=np.asarray(phi1, dtype=complex),
        phi2=np.asarray(phi2, dtype=complex),
        p=float(ps[k]),
        entropy_in=float(s_in[k]),
        entropy_out=float(s_out[k]),
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


def _search_witness(superop: Superoperator, tol: float):
    """(witness, detail) for a map no conjugation reproduces.

    Probe stages (fixed-stream states), in order: pure projectors must map
    to positive rank-1 matrices, their gains must agree, pairwise overlap
    moduli must be preserved; the first stage that fails names the witness
    pair.  If all pass, the pair and mixing weight with the largest entropy
    change win.
    """
    probes = _probe_states(superop.dim, split_rng(0, 0))
    gains, kets = [], []
    for v in probes:
        m = superop.apply(pure_projector(v))
        scale = max(float(np.abs(m).max()), 1e-300)
        if float(np.abs(m - dag(m)).max()) > tol * scale:
            return _scan_witness(superop, v, v), "image of a pure state is not Hermitian"
        h = (m + dag(m)) / (2 * scale)  # unit scale: the norms below neither under- nor overflow
        w, vecs = np.linalg.eigh(h)
        top = w[-1]
        residual = np.linalg.norm(h - top * np.outer(vecs[:, -1], vecs[:, -1].conj()))
        if top <= tol or residual > tol * np.linalg.norm(h):
            return (
                _scan_witness(superop, v, v),
                "image of a pure state is not a positive rank-1 matrix",
            )
        gains.append(float(np.trace(m).real))
        kets.append(vecs[:, -1])

    gains = np.asarray(gains)
    if gains.max() - gains.min() > tol * float(gains.mean()):
        k_lo, k_hi = int(np.argmin(gains)), int(np.argmax(gains))
        return (
            _scan_witness(superop, probes[k_lo], probes[k_hi]),
            f"pure-state gains differ: {gains.min():.6g} vs {gains.max():.6g}",
        )

    phi_cols = np.column_stack(probes)
    psi_cols = np.column_stack(kets)
    gap = np.abs(np.abs(dag(psi_cols) @ psi_cols) - np.abs(dag(phi_cols) @ phi_cols))
    if float(gap.max()) > tol:
        k, l = np.unravel_index(np.argmax(gap), gap.shape)
        return (
            _scan_witness(superop, probes[k], probes[l]),
            f"overlap modulus changes by {float(gap.max()):.3g}",
        )

    worst = None
    for k in range(len(probes)):
        for l in range(k + 1, len(probes)):
            w = _scan_witness(superop, probes[k], probes[l], grid_size=21)
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
    A rejected map gets its witness from fixed-stream probe states, so the
    whole verdict depends only on (map, tol).
    """
    tol = tolerance(tol)
    d = superop.dim
    m4 = superop.matrix.reshape((d,) * 4)  # m4[j, i, l, k]: weight of rho[k, l] in entry (i, j)
    for kind, view in ((KIND_UNITARY, m4), (KIND_ANTIUNITARY, m4.swapaxes(2, 3))):
        u, gain, err = _fit_conjugation(view, tol)
        if err <= tol:
            return SingleSystemVerdict(
                kind=kind, unitary=u, gain=gain, witness=None, detail="certified by reconstruction"
            )
    witness, detail = _search_witness(superop, tol)
    return SingleSystemVerdict(
        kind=KIND_NOT_PRESERVING, unitary=None, gain=None, witness=witness, detail=detail
    )
