"""Single-system analyzer: decides whether a linear map on density matrices
preserves disorder, reconstructs the implementing unitary (or antiunitary)
together with its gain, or returns a concrete counterexample witness.

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

from .errors import (
    InsufficientSamples,
    NegativeDiscriminant,
    ParamOutOfRange,
    ShapeMismatch,
)
from .generators import random_density, random_pure_state, split_rng
from .linalg import DEFAULT_RANK_TOL, as_matrix, dag
from .states import pure_projector, shannon_bits

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
    ambiguous_gram: bool
    detail: str


def _entropy_of_output(m: np.ndarray) -> float:
    """Best-effort entropy of a (possibly invalid) image after normalization."""
    h = (m + dag(m)) / 2
    w = np.clip(np.linalg.eigvalsh(h), 0.0, None)
    total = w.sum()
    if total <= 0.0:
        return float("nan")
    return shannon_bits(w / total)


def _scan_witness(superop: Superoperator, phi1, phi2, grid_size: int = 101) -> EntropyWitness:
    """Pick the mixing weight with the largest entropy mismatch for the pair."""
    p1 = pure_projector(phi1)
    p2 = pure_projector(phi2)
    best = None
    for p in np.linspace(0.0, 1.0, grid_size):
        rho = p * p1 + (1.0 - p) * p2
        s_in = shannon_bits(np.clip(np.linalg.eigvalsh(rho), 0.0, None))
        s_out = _entropy_of_output(superop.apply(rho))
        mismatch = abs(s_in - s_out)
        if np.isnan(s_out):
            mismatch = np.inf
        if best is None or mismatch > best[0]:
            best = (mismatch, float(p), s_in, s_out)
    _, p_star, s_in, s_out = best
    return EntropyWitness(
        phi1=np.asarray(phi1, dtype=complex),
        phi2=np.asarray(phi2, dtype=complex),
        p=p_star,
        entropy_in=s_in,
        entropy_out=s_out,
    )


def _sync_phases(g_weighted: np.ndarray) -> np.ndarray:
    """Unit phases from the leading eigenvector of the consistency matrix."""
    _, vecs = np.linalg.eigh(g_weighted)
    lead = vecs[:, -1]
    mags = np.abs(lead)
    safe = np.where(mags > 1e-12, lead, 1.0)
    return safe / np.abs(safe)


def _probe_states(d: int, samples: int, rng) -> list[np.ndarray]:
    """samples-1 Haar states plus one hub overlapping all of them.

    The hub (a random-phase combination of the others) keeps the Gram
    phase gauge rigid even if some pairwise overlaps come out small.
    """
    probes = [random_pure_state(d, rng) for _ in range(samples - 1)]
    while True:
        phases = np.exp(2j * np.pi * rng.uniform(size=len(probes)))
        hub = np.sum([ph * v for ph, v in zip(phases, probes)], axis=0)
        norm = np.linalg.norm(hub)
        if norm > 1e-6:
            probes.append(hub / norm)
            return probes


def _reconstruct(phi_cols, psi_cols, antiunitary: bool) -> np.ndarray:
    """Least-squares operator through the probe pairs, projected to unitary."""
    src = phi_cols.conj() if antiunitary else phi_cols
    raw = psi_cols @ np.linalg.pinv(src)
    u, _, vh = np.linalg.svd(raw)
    return u @ vh


def _conjugation_error(superop, u, gain, antiunitary, rhos) -> float:
    worst = 0.0
    for rho in rhos:
        src = rho.T if antiunitary else rho
        target = gain * (u @ src @ dag(u))
        err = np.linalg.norm(superop.apply(rho) - target) / max(np.linalg.norm(target), 1e-300)
        worst = max(worst, err)
    return worst


def analyze(
    superop: Superoperator,
    samples: int | None = None,
    seed: int = 0,
    tol: float = DEFAULT_RANK_TOL,
) -> SingleSystemVerdict:
    """Decide whether the map is a (scaled) unitary or antiunitary conjugation.

    Pipeline: sampled pure projectors must map to positive rank-1 matrices
    (else witness); their gains must agree; pairwise overlap moduli must be
    preserved; the Gram phases then select the linear-unitary or the
    antilinear branch, the operator is reconstructed by phase-synchronized
    least squares, and the candidate is re-verified on fresh mixed states.

    An all-real sampled Gram fits both branches; the verdict then reports
    UnitaryConjugation with ambiguous_gram set (antilinear maps cannot be
    continuously deformed to linear ones, so the linear reading is the
    physical default).
    """
    d = superop.dim
    if samples is None:
        samples = d + 2
    if samples < d + 1:
        raise InsufficientSamples(f"need at least {d + 1} samples, got {samples}")

    rng = split_rng(seed, 0)
    probes = _probe_states(d, samples, rng)
    images = [superop.apply(pure_projector(v)) for v in probes]

    # pure projectors must map to positive rank-1 matrices
    gains, kets = [], []
    for v, m in zip(probes, images):
        scale = max(float(np.abs(m).max()), 1e-300)
        if float(np.abs(m - dag(m)).max()) > tol * scale:
            return SingleSystemVerdict(
                kind=KIND_NOT_PRESERVING,
                unitary=None,
                gain=None,
                witness=_scan_witness(superop, v, v),
                ambiguous_gram=False,
                detail="image of a pure state is not Hermitian",
            )
        h = (m + dag(m)) / 2
        w, vecs = np.linalg.eigh(h)
        top = w[-1]
        residual = np.linalg.norm(h - top * np.outer(vecs[:, -1], vecs[:, -1].conj()))
        if top <= tol * scale or residual > tol * np.linalg.norm(h):
            return SingleSystemVerdict(
                kind=KIND_NOT_PRESERVING,
                unitary=None,
                gain=None,
                witness=_scan_witness(superop, v, v),
                ambiguous_gram=False,
                detail="image of a pure state is not a positive rank-1 matrix",
            )
        gains.append(float(np.trace(m).real))
        kets.append(vecs[:, -1])

    # all pure states must be rescaled by the same gain
    gains = np.asarray(gains)
    gain = float(gains.mean())
    if gains.max() - gains.min() > tol * gain:
        k_lo, k_hi = int(np.argmin(gains)), int(np.argmax(gains))
        return SingleSystemVerdict(
            kind=KIND_NOT_PRESERVING,
            unitary=None,
            gain=None,
            witness=_scan_witness(superop, probes[k_lo], probes[k_hi]),
            ambiguous_gram=False,
            detail=f"pure-state gains differ: {gains.min():.6g} vs {gains.max():.6g}",
        )

    # overlap moduli must be preserved
    phi_cols = np.column_stack(probes)
    psi_cols = np.column_stack(kets)
    g_in = dag(phi_cols) @ phi_cols
    g_out = dag(psi_cols) @ psi_cols
    modulus_gap = float(np.abs(np.abs(g_out) - np.abs(g_in)).max())
    if modulus_gap > tol:
        k, l = np.unravel_index(
            np.argmax(np.abs(np.abs(g_out) - np.abs(g_in))), g_in.shape
        )
        return SingleSystemVerdict(
            kind=KIND_NOT_PRESERVING,
            unitary=None,
            gain=None,
            witness=_scan_witness(superop, probes[k], probes[l]),
            ambiguous_gram=False,
            detail=f"overlap modulus changes by {modulus_gap:.3g}",
        )

    # phase-gauge the image kets against the Gram matrix, both branches
    ambiguous = float(np.abs(g_in.imag).max()) <= tol

    def branch_residual(antiunitary: bool):
        target = g_in.conj() if antiunitary else g_in
        zeta = _sync_phases(g_out * target.conj())
        fixed = psi_cols * zeta
        resid = float(np.abs(dag(fixed) @ fixed - target).max())
        return resid, fixed

    resid_u, fixed_u = branch_residual(False)
    resid_a, fixed_a = branch_residual(True)

    if ambiguous:
        order = [False, True]
    elif resid_u <= resid_a:
        order = [False, True]
    else:
        order = [True, False]

    fresh = split_rng(seed, 1)
    check_states = [pure_projector(random_pure_state(d, fresh)) for _ in range(5)]
    check_states += [random_density(d, rank=max(1, d // 2 + 1), seed=fresh) for _ in range(5)]
    check_states += [random_density(d, rank=d, seed=fresh) for _ in range(5)]

    for antiunitary in order:
        resid = resid_a if antiunitary else resid_u
        if resid > tol:
            continue
        fixed = fixed_a if antiunitary else fixed_u
        u = _reconstruct(phi_cols, fixed, antiunitary)
        err = _conjugation_error(superop, u, gain, antiunitary, check_states)
        if err <= tol:
            return SingleSystemVerdict(
                kind=KIND_ANTIUNITARY if antiunitary else KIND_UNITARY,
                unitary=u,
                gain=gain,
                witness=None,
                ambiguous_gram=ambiguous,
                detail="verified on fresh samples",
            )

    # overlap moduli fit but no single operator reproduces the map
    worst = None
    for k in range(len(probes)):
        for l in range(k + 1, len(probes)):
            w = _scan_witness(superop, probes[k], probes[l], grid_size=21)
            gap = abs(w.entropy_in - w.entropy_out)
            if worst is None or gap > worst[0]:
                worst = (gap, w)
    return SingleSystemVerdict(
        kind=KIND_NOT_PRESERVING,
        unitary=None,
        gain=None,
        witness=worst[1],
        ambiguous_gram=ambiguous,
        detail="Gram phases are inconsistent with any single conjugation",
    )
