"""Qualitative classifier for linear bipartite maps.

Decides whether an invertible map on an n x m composite space is Local
(A x B), SwapLocal (a local map composed with the subsystem relabeling), or
NotPreserving, and in the last case produces a concrete witness state whose
Schmidt data demonstrably violates preservation.

The pipeline follows the constructive argument: full rank, product images of
the product basis, the parallelism pattern of the image factors (direct or
index-swapped), extraction of the local factors, and a rank-1 factorization
of the leftover phase/length grid.  The one accept gate is the
reconstruction certificate: full-rank factors whose product reproduces the
(relabeled) map to within tol.  Every stage that can fail emits a witness
that is re-verified through the Schmidt oracle before it is returned.

For n != m a swapped map produces images that factor with respect to the
flipped layout (m, n); the verdict records the output shape it certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence, ParamOutOfRange, ShapeMismatch
from .generators import random_schmidt_rank_state, split_rng
from .linalg import (
    DEFAULT_RANK_TOL,
    as_matrix,
    frobenius,
    kron,
    numerical_rank,
    singular_values,
    svd,
)
from .schmidt import BipartiteShape, as_shape, schmidt_decompose, swap_operator

KIND_LOCAL = "Local"
KIND_SWAP_LOCAL = "SwapLocal"
KIND_NOT_PRESERVING = "NotPreserving"

WITNESS_KERNEL = "KernelVector"
WITNESS_PRODUCT_TO_ENTANGLED = "ProductToEntangled"
WITNESS_ENTANGLED_TO_PRODUCT = "EntangledToProduct"
WITNESS_NONFACTORIZABLE_PHASE = "NonFactorizablePhase"

CASE_I = "I"
CASE_II = "II"


@dataclass(frozen=True)
class BipartiteMap:
    """Square nm x nm matrix acting on the composite space.

    Every entry must be finite.  The singular values of the matrix are
    computed once, on first use, and cached on the instance, so the matrix
    must not be mutated after construction.
    """

    matrix: np.ndarray
    shape: BipartiteShape

    def __post_init__(self):
        m = as_matrix(self.matrix)
        shape = as_shape(self.shape)
        if m.shape != (shape.dim, shape.dim):
            raise ShapeMismatch(
                f"map is {m.shape}, shape {shape.as_tuple()} needs "
                f"{(shape.dim, shape.dim)}"
            )
        if not np.isfinite(m).all():
            raise ParamOutOfRange("map has non-finite entries")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shape", shape)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the matrix, non-increasing; [0] is its 2-norm."""
        return singular_values(self.matrix)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=complex)


@dataclass(frozen=True)
class SchmidtEvidence:
    """Schmidt data of a witness state and of its image, with the layouts
    they were computed in, so the claim re-verifies from the record alone."""

    input_coefficients: np.ndarray
    input_rank: int
    input_shape: tuple[int, int]
    image_coefficients: np.ndarray
    image_rank: int
    image_shape: tuple[int, int]


@dataclass(frozen=True)
class Witness:
    kind: str
    state: np.ndarray
    evidence: SchmidtEvidence


@dataclass(frozen=True)
class QualitativeVerdict:
    kind: str
    a: np.ndarray | None
    b: np.ndarray | None
    reconstruction_error: float | None
    witness: Witness | None
    output_shape: tuple[int, int] | None
    detail: str = ""


def _basis_ket(d: int, k: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


def _vanishing(bmap: BipartiteMap, image: np.ndarray, state: np.ndarray, tol) -> bool:
    """Whether the image is at most tol * ||L||_2 * ||state||.

    Both sides are divided by ||L||_2 first, so the norms neither underflow
    nor overflow at any scale of the map.  The zero map annihilates all.
    """
    norm2 = bmap.singular_values[0]
    return norm2 == 0.0 or bool(np.linalg.norm(image / norm2) <= tol * np.linalg.norm(state))


def _evidence(bmap: BipartiteMap, state, image_shape, tol) -> SchmidtEvidence:
    """Schmidt data for a state and its image; a vanishing image has rank 0."""
    state = np.asarray(state, dtype=complex)
    dec_in = schmidt_decompose(state, bmap.shape, tol=tol)
    img = bmap.apply(state)
    if _vanishing(bmap, img, state, tol):
        img_coeffs, img_rank = np.zeros(0), 0
    else:
        # decomposed as an image of L / ||L||_2, whose norm cannot underflow
        norm2 = bmap.singular_values[0]
        dec_img = schmidt_decompose(img / norm2, image_shape, tol=tol)
        img_coeffs, img_rank = dec_img.coefficients * norm2, dec_img.rank
    return SchmidtEvidence(
        input_coefficients=dec_in.coefficients,
        input_rank=dec_in.rank,
        input_shape=bmap.shape.as_tuple(),
        image_coefficients=img_coeffs,
        image_rank=img_rank,
        image_shape=as_shape(image_shape).as_tuple(),
    )


def _orthogonal_complement_column(v: np.ndarray) -> np.ndarray:
    """Some unit vector orthogonal to v (dim >= 2)."""
    d = v.shape[0]
    basis = np.eye(d, dtype=complex)
    overlaps = np.abs(v.conj() @ basis)
    e = basis[:, int(np.argmin(overlaps))]
    w = e - np.vdot(v, e) * v
    return w / np.linalg.norm(w)


def check_full_rank(bmap: BipartiteMap, tol: float = DEFAULT_RANK_TOL) -> Witness | None:
    """None when the map has full numerical rank; otherwise a verified witness.

    A product kernel vector is upgraded to the constructive violation: a
    Schmidt-rank-2 combination whose image collapses to rank <= 1 (or, if
    the partner product state itself maps to an entangled vector, that
    product state directly).  An entangled kernel vector is its own
    witness, being annihilated outright.
    """
    s = bmap.singular_values
    if s[0] > 0 and s[-1] > tol * s[0]:
        return None
    kernel = svd(bmap.matrix).right_basis[-1, :].conj()
    dec = schmidt_decompose(kernel, bmap.shape, tol=tol)
    if dec.rank >= 2:
        ev = _evidence(bmap, kernel, bmap.shape, tol)
        return Witness(kind=WITNESS_KERNEL, state=kernel, evidence=ev)
    a1 = dec.left_vectors[:, 0]
    b1 = dec.right_vectors[:, 0]
    a2 = _orthogonal_complement_column(a1)
    b2 = _orthogonal_complement_column(b1)
    partner = np.kron(a2, b2)
    combo = (np.kron(a1, b1) + partner) / np.sqrt(2)
    ev = _evidence(bmap, combo, bmap.shape, tol)
    if ev.input_rank >= 2 and ev.image_rank <= 1:
        return Witness(kind=WITNESS_KERNEL, state=combo, evidence=ev)
    ev = _evidence(bmap, partner, bmap.shape, tol)
    return Witness(kind=WITNESS_PRODUCT_TO_ENTANGLED, state=partner, evidence=ev)


@dataclass(frozen=True)
class ProductImageTable:
    """Per basis pair (i, j): L|i,j> = amps[i,j] * d_vecs[i,j] (x) e_vecs[i,j].

    The factor vectors are unit length with their largest-magnitude entry
    made real positive; the complex amplitude carries everything else.
    d_vecs[i,j] lives in the first factor of shape_out, e_vecs[i,j] in the
    second.
    """

    shape_in: BipartiteShape
    shape_out: BipartiteShape
    amps: np.ndarray
    d_vecs: np.ndarray
    e_vecs: np.ndarray


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Divide each vector (last axis) by the phase of its largest-magnitude entry."""
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return v / (top / np.abs(top))


def _stacked_svd(stack: np.ndarray):
    try:
        return np.linalg.svd(stack, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _schmidt_ranks(spectra: np.ndarray, tol: float) -> np.ndarray:
    """Per stacked spectrum, the coefficients above tol times the largest;
    an all-zero spectrum has rank 0."""
    return np.count_nonzero(spectra > tol * spectra[..., :1], axis=-1)


def build_image_table(
    bmap: BipartiteMap,
    tol: float = DEFAULT_RANK_TOL,
    output_shape=None,
) -> ProductImageTable | Witness:
    """Schmidt-decompose every product-basis image.

    Returns a witness as soon as some basis image, in row-major order, is
    zero or entangled with respect to the requested output layout (the
    basis state itself is the witness).  The images of one basis row are
    decomposed by one stacked SVD, so a map that entangles |0,0> costs one
    row.  Expects a full-rank map; this evaluation on a basis fixes it
    completely.
    """
    shape = bmap.shape
    out = as_shape(output_shape) if output_shape is not None else shape
    if out.dim != shape.dim:
        raise ShapeMismatch(f"output shape {out.as_tuple()} has wrong total dim")
    n, m = shape.n, shape.m
    # images[i, j] is the column L|i,j> as an out.n x out.m coefficient matrix
    images = bmap.matrix.T.reshape(n, m, out.n, out.m)
    d_vecs = np.empty((n, m, out.n), dtype=complex)
    e_vecs = np.empty((n, m, out.m), dtype=complex)
    for i in range(n):
        u, s, vh = _stacked_svd(images[i])
        ranks = _schmidt_ranks(s, tol)
        bad = np.flatnonzero(ranks != 1)
        if bad.size:
            j = int(bad[0])
            basis_state = np.kron(_basis_ket(n, i), _basis_ket(m, j))
            kind = WITNESS_KERNEL if ranks[j] == 0 else WITNESS_PRODUCT_TO_ENTANGLED
            ev = _evidence(bmap, basis_state, out, tol)
            return Witness(kind=kind, state=basis_state, evidence=ev)
        d_vecs[i] = u[:, :, 0]
        e_vecs[i] = vh[:, 0, :]
    d_vecs = _fix_phases(d_vecs)
    e_vecs = _fix_phases(e_vecs)
    amps = np.einsum("ija,ijb,ijab->ij", d_vecs.conj(), e_vecs.conj(), images)
    return ProductImageTable(
        shape_in=shape, shape_out=out, amps=amps, d_vecs=d_vecs, e_vecs=e_vecs
    )


def _parallel(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    return abs(np.vdot(u, v)) >= 1.0 - tol


def _pattern_holds(table: ProductImageTable, case: str, tol: float) -> bool:
    """Case I: d depends only on the row index and e only on the column.
    Case II: roles swapped.  Validated across all index pairs."""
    d, e = table.d_vecs, table.e_vecs
    if case == CASE_I:
        d_ref, e_ref = d[:, :1], e[:1, :]
    else:
        d_ref, e_ref = d[:1, :], e[:, :1]
    overlaps = np.concatenate(
        [
            np.abs(np.sum(d.conj() * d_ref, axis=-1)),
            np.abs(np.sum(e.conj() * e_ref, axis=-1)),
        ]
    )
    return bool(np.all(overlaps >= 1.0 - tol))


def extract_factors(table: ProductImageTable, case: str):
    """Local factors and the residual phase/length grid.

    Case I: A's columns are the row representatives d[i, 0], B's columns
    the column representatives e[0, j], and L|i,j> = grid[i,j] A e_i (x) B e_j.
    Case II: A's columns are e[i, 0], B's are d[0, j], and the same identity
    holds after relabeling the output (swap first).
    """
    d, e = table.d_vecs, table.e_vecs
    if case == CASE_I:
        a, b = d[:, 0].T.copy(), e[0].T.copy()
        grid = (
            table.amps
            * np.einsum("ai,ija->ij", a.conj(), d)
            * np.einsum("bj,ijb->ij", b.conj(), e)
        )
    else:
        a, b = e[:, 0].T.copy(), d[0].T.copy()
        grid = (
            table.amps
            * np.einsum("bj,ijb->ij", b.conj(), d)
            * np.einsum("ai,ija->ij", a.conj(), e)
        )
    return a, b, grid


def factor_phase_grid(grid, tol: float = DEFAULT_RANK_TOL):
    """Split a fully nonzero grid into grid[i,j] = mu[i] * nu[j], or witness.

    Factorization uses the dominant singular triple (robust on
    near-degenerate grids); mu[0] is gauged real positive with nu rescaled
    reciprocally.  On failure the witness is the product state over the
    worst 2x2 minor, whose image under the grid's diagonal map is verified
    to have Schmidt rank 2.
    """
    grid = as_matrix(grid)
    n, m = grid.shape
    res = svd(grid)
    s = res.singular_values
    if len(s) < 2 or s[1] <= tol * s[0]:
        mu = s[0] * res.left_basis[:, 0]
        nu = res.right_basis[0, :].copy()
        anchor = mu[0] if abs(mu[0]) > 0 else mu[int(np.argmax(np.abs(mu)))]
        phase = anchor / abs(anchor)
        return mu / phase, nu * phase
    # locate the most non-degenerate 2x2 minor for the witness, on the grid
    # scaled to max modulus 1 so that products of entries stay finite
    peak = np.abs(grid).max()
    unit = grid / peak
    best, best_idx = -1.0, None
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(m):
                for l in range(j + 1, m):
                    det = unit[i, j] * unit[k, l] - unit[i, l] * unit[k, j]
                    scale = abs(unit[i, j] * unit[k, l]) + abs(unit[i, l] * unit[k, j])
                    rel = abs(det) / max(scale, 1e-300)
                    if rel > best:
                        best, best_idx = rel, (i, k, j, l)
    i, k, j, l = best_idx
    ea = (_basis_ket(n, i) + _basis_ket(n, k)) / np.sqrt(2)
    fb = (_basis_ket(m, j) + _basis_ket(m, l)) / np.sqrt(2)
    state = np.kron(ea, fb)
    dec_in = schmidt_decompose(state, (n, m), tol=tol)
    dec_img = schmidt_decompose(unit.reshape(-1) * state, (n, m), tol=tol)
    ev = SchmidtEvidence(
        input_coefficients=dec_in.coefficients,
        input_rank=dec_in.rank,
        input_shape=(n, m),
        image_coefficients=dec_img.coefficients * peak,
        image_rank=dec_img.rank,
        image_shape=(n, m),
    )
    return Witness(kind=WITNESS_NONFACTORIZABLE_PHASE, state=state, evidence=ev)


def _parallelism_witness(bmap: BipartiteMap, table: ProductImageTable, tol: float) -> Witness | None:
    """Search basis pairs for a verified preservation violation.

    A same-row or same-column pair whose image factors are both
    non-parallel sends a product state to a rank-2 image; a both-indices
    differ pair with a parallel factor sends a rank-2 state to a product.
    When the parallelism cascade fails, one of these must exist.
    """
    n, m = table.shape_in.n, table.shape_in.m
    d, e = table.d_vecs, table.e_vecs
    out = table.shape_out
    for i in range(n):
        for j in range(m):
            for l in range(j + 1, m):
                if not _parallel(d[i, j], d[i, l], tol) and not _parallel(e[i, j], e[i, l], tol):
                    state = np.kron(
                        _basis_ket(n, i),
                        (_basis_ket(m, j) + _basis_ket(m, l)) / np.sqrt(2),
                    )
                    ev = _evidence(bmap, state, out, tol)
                    if ev.input_rank == 1 and ev.image_rank >= 2:
                        return Witness(WITNESS_PRODUCT_TO_ENTANGLED, state, ev)
    for j in range(m):
        for i in range(n):
            for k in range(i + 1, n):
                if not _parallel(d[i, j], d[k, j], tol) and not _parallel(e[i, j], e[k, j], tol):
                    state = np.kron(
                        (_basis_ket(n, i) + _basis_ket(n, k)) / np.sqrt(2),
                        _basis_ket(m, j),
                    )
                    ev = _evidence(bmap, state, out, tol)
                    if ev.input_rank == 1 and ev.image_rank >= 2:
                        return Witness(WITNESS_PRODUCT_TO_ENTANGLED, state, ev)
    for i in range(n):
        for k in range(n):
            if k == i:
                continue
            for j in range(m):
                for l in range(m):
                    if l == j:
                        continue
                    if _parallel(d[i, j], d[k, l], tol) or _parallel(e[i, j], e[k, l], tol):
                        state = (
                            np.kron(_basis_ket(n, i), _basis_ket(m, j))
                            + np.kron(_basis_ket(n, k), _basis_ket(m, l))
                        ) / np.sqrt(2)
                        ev = _evidence(bmap, state, out, tol)
                        if ev.input_rank >= 2 and ev.image_rank <= 1:
                            return Witness(WITNESS_ENTANGLED_TO_PRODUCT, state, ev)
    return None


def _random_search_witness(bmap: BipartiteMap, seed: int, tol: float) -> Witness | None:
    """Fallback: random product and rank-2 states through the map."""
    rng = split_rng(seed, 11)
    shape = bmap.shape
    shapes_out = [shape] if shape.n == shape.m else [shape, shape.flipped()]
    for _ in range(200):
        state = random_schmidt_rank_state(shape, 1, rng)
        evs = [_evidence(bmap, state, out, tol) for out in shapes_out]
        if all(ev.image_rank >= 2 for ev in evs):
            return Witness(WITNESS_PRODUCT_TO_ENTANGLED, state, evs[0])
        state = random_schmidt_rank_state(shape, 2, rng)
        evs = [_evidence(bmap, state, out, tol) for out in shapes_out]
        if all(ev.image_rank <= 1 for ev in evs):
            return Witness(WITNESS_ENTANGLED_TO_PRODUCT, state, evs[0])
    return None


def classify(
    bmap: BipartiteMap,
    tol: float = DEFAULT_RANK_TOL,
    seed: int = 0,
) -> QualitativeVerdict:
    """Full pipeline: rank, image table, parallelism case, factor extraction,
    phase-grid factorization, then the reconstruction certificate.

    The map's spectrum is computed once, as singular values only, and
    cached on the map: it decides the rank check (the full SVD runs only on
    a rank-deficient map, for its kernel vector) and supplies the 2-norm
    that scales the reconstruction error and every vanishing-image test.
    The image table decomposes its vectors by one stacked SVD per basis row.

    A Local verdict certifies ||L - A x B|| <= tol * ||L||; SwapLocal
    certifies ||S L - A x B|| <= tol * ||L|| with S the relabeling from the
    recorded output shape.  Both need full-rank A and B, so the verdict
    kind depends on the map and tol alone.  Any failure downgrades to
    NotPreserving with a re-verified witness; the seed only steers the
    random fallback search for a witness when no constructive stage found
    one.
    """
    shape = bmap.shape
    if shape.n < 2 or shape.m < 2:
        raise ShapeMismatch("both factors need dim >= 2 for entanglement to exist")
    kernel_witness = check_full_rank(bmap, tol)
    if kernel_witness is not None:
        return QualitativeVerdict(
            kind=KIND_NOT_PRESERVING,
            a=None,
            b=None,
            reconstruction_error=None,
            witness=kernel_witness,
            output_shape=None,
            detail="map is rank deficient",
        )

    if shape.n == shape.m:
        plans = [(shape, CASE_I), (shape, CASE_II)]
    else:
        plans = [(shape, CASE_I), (shape.flipped(), CASE_II)]

    tables: dict[tuple[int, int], ProductImageTable | Witness] = {}
    candidates: list[Witness] = []
    for out_shape, case in plans:
        key = out_shape.as_tuple()
        if key not in tables:
            tables[key] = build_image_table(bmap, tol, out_shape)
        table = tables[key]
        if isinstance(table, Witness):
            if out_shape.as_tuple() == shape.as_tuple() or shape.n == shape.m:
                candidates.append(table)
            continue
        if not _pattern_holds(table, case, tol):
            continue
        a, b, grid = extract_factors(table, case)
        factored = factor_phase_grid(grid, tol)
        if isinstance(factored, Witness):
            ev = _evidence(bmap, factored.state, out_shape, tol)
            if ev.input_rank == 1 and ev.image_rank >= 2:
                candidates.append(
                    Witness(WITNESS_NONFACTORIZABLE_PHASE, factored.state, ev)
                )
            continue
        mu, nu = factored
        a = a * mu
        b = b * nu
        if numerical_rank(a, tol) < a.shape[0] or numerical_rank(b, tol) < b.shape[0]:
            continue
        if case == CASE_I:
            kind, reference = KIND_LOCAL, bmap.matrix
        else:
            kind, reference = KIND_SWAP_LOCAL, swap_operator(out_shape) @ bmap.matrix
        # both norms taken on L / ||L||_2, which neither underflows nor
        # overflows; a NaN error fails the gate
        norm2 = bmap.singular_values[0]
        err = frobenius((reference - kron(a, b)) / norm2) / frobenius(bmap.matrix / norm2)
        if not err <= tol:
            continue
        return QualitativeVerdict(
            kind=kind,
            a=a,
            b=b,
            reconstruction_error=err,
            witness=None,
            output_shape=out_shape.as_tuple(),
            detail="factors certified by reconstruction",
        )

    witness = candidates[0] if candidates else None
    if witness is None:
        for table in tables.values():
            if not isinstance(table, Witness):
                witness = _parallelism_witness(bmap, table, tol)
                if witness is not None:
                    break
    if witness is None:
        witness = _random_search_witness(bmap, seed, tol)
    return QualitativeVerdict(
        kind=KIND_NOT_PRESERVING,
        a=None,
        b=None,
        reconstruction_error=None,
        witness=witness,
        output_shape=None,
        detail="no local or swap-local decomposition fits",
    )
