"""Qualitative classifier for linear bipartite maps.

Decides whether an invertible map on an n x m composite space is Local
(A x B), SwapLocal (a local map composed with the subsystem relabeling), or
NotPreserving, and in the last case produces a concrete witness state whose
Schmidt data demonstrably violates preservation.

The decision is one certificate per reading: L = A x B holds exactly when
the realignment of L has rank 1 (Van Loan & Pitsianis, 1993), so a
least-squares rank-1 fit of the realigned map and its relative residual
decide Local, and the same fit of the relabeled map decides SwapLocal.  The
constructive stages of the paper's argument (product images of the product
basis, the parallelism pattern of the image factors, extraction of the
local factors and a rank-1 factorization of the leftover phase/length grid)
run only on a rejected map, to find a witness; every witness is
re-verified through the Schmidt oracle before it is returned.

For n != m a swapped map produces images that factor with respect to the
flipped layout (m, n); the verdict records the output shape it certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NoConvergence, ParamOutOfRange, ShapeMismatch
from .generators import random_schmidt_rank_state, split_rng
from .linalg import DEFAULT_RANK_TOL, as_matrix, numerical_rank, singular_values, svd, tolerance
from .schmidt import BipartiteShape, as_shape, schmidt_decompose

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
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    reconstruction_error: float | None = None
    witness: Witness | None = None
    output_shape: tuple[int, int] | None = None
    detail: str = ""


@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, k), i < k < d, in row-major order; cached, so read-only."""
    pairs = np.triu_indices(d, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


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
    partner = np.outer(a2, b2).ravel()
    combo = (np.outer(a1, b1).ravel() + partner) / np.sqrt(2)
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
            basis_state = _basis_ket(n * m, i * m + j)
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
    # rel[p, q] for row pair p = (i, k), i < k, and column pair q = (j, l),
    # j < l; argmax takes the first maximum in (i, k, j, l) order
    rows, cols = _pairs(n), _pairs(m)
    upper, lower = unit[rows[0]], unit[rows[1]]
    diag = upper[:, cols[0]] * lower[:, cols[1]]
    anti = upper[:, cols[1]] * lower[:, cols[0]]
    rel = np.abs(diag - anti) / np.maximum(np.abs(diag) + np.abs(anti), 1e-300)
    p, q = divmod(int(np.argmax(rel)), rel.shape[1])
    i, k, j, l = rows[0][p], rows[1][p], cols[0][q], cols[1][q]
    ea = (_basis_ket(n, i) + _basis_ket(n, k)) / np.sqrt(2)
    fb = (_basis_ket(m, j) + _basis_ket(m, l)) / np.sqrt(2)
    state = np.outer(ea, fb).ravel()
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
    out = table.shape_out

    def pair_state(p: int, q: int) -> np.ndarray:
        return (_basis_ket(n * m, p) + _basis_ket(n * m, q)) / np.sqrt(2)

    # apart[i, j, k, l]: both the d and the e factors of (i, j) and (k, l)
    # are non-parallel, from one overlap matrix per factor
    apart = np.ones((n, m, n, m), dtype=bool)
    for f in (table.d_vecs, table.e_vecs):
        flat = f.reshape(n * m, -1)
        apart &= (np.abs(flat.conj() @ flat.T) < 1.0 - tol).reshape(n, m, n, m)
    rows, cols = np.arange(n), np.arange(m)
    (i_lo, i_hi), (j_lo, j_hi) = _pairs(n), _pairs(m)
    # same row in (i, j, l) order, j < l; then same column in (j, i, k)
    # order, i < k
    for i, q in np.argwhere(apart[rows[:, None], j_lo, rows[:, None], j_hi]):
        state = pair_state(i * m + j_lo[q], i * m + j_hi[q])
        ev = _evidence(bmap, state, out, tol)
        if ev.input_rank == 1 and ev.image_rank >= 2:
            return Witness(WITNESS_PRODUCT_TO_ENTANGLED, state, ev)
    for j, p in np.argwhere(apart[i_lo, cols[:, None], i_hi, cols[:, None]]):
        state = pair_state(i_lo[p] * m + j, i_hi[p] * m + j)
        ev = _evidence(bmap, state, out, tol)
        if ev.input_rank == 1 and ev.image_rank >= 2:
            return Witness(WITNESS_PRODUCT_TO_ENTANGLED, state, ev)
    # both indices differ and some factor is parallel, in (i, k, j, l) order
    joined = ~apart.transpose(0, 2, 1, 3)
    joined[rows, rows] = False
    joined[:, :, cols, cols] = False
    for i, k, j, l in np.argwhere(joined):
        state = pair_state(i * m + j, k * m + l)
        ev = _evidence(bmap, state, out, tol)
        if ev.input_rank >= 2 and ev.image_rank <= 1:
            return Witness(WITNESS_ENTANGLED_TO_PRODUCT, state, ev)
    return None


def _random_search_witness(bmap: BipartiteMap, tol: float) -> Witness | None:
    """Fallback: product and rank-2 states from a fixed stream through the map."""
    rng = split_rng(0, 11)
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


def _fit_local(bmap: BipartiteMap, swap: bool, tol: float):
    """Fit L = A x B (swap=False) or S L = A x B (swap=True); return (A, B, error).

    R, the realignment of L / ||L||_2 to n^2 x m^2, is vec(A) vec(B)^T when
    the reading fits.  vec(A) is read off the largest column of R, then
    vec(B) and vec(A) are fitted once each by least squares; the error is
    ||R - vec(A) vec(B)^T||_F / ||R||_F, so no square under- or overflows.
    Its square equals the energy deficit 1 - ||vec(A)||^2 / ||R||_F^2, whose
    rounding is about 1e-15: a deficit above tol (>= tol^2) is read as the
    error without forming the residual.  A and B are None unless
    error <= tol; then they are at the map's scale with ||B||_F = 1 and the
    largest-modulus entry of A[:, 0] real positive.
    """
    n, m = bmap.shape.n, bmap.shape.m
    norm2 = bmap.singular_values[0]
    if swap:
        view = bmap.matrix.reshape(m, n, n, m).transpose(1, 2, 0, 3)
    else:
        view = bmap.matrix.reshape(n, m, n, m).transpose(0, 2, 1, 3)
    # realigned and divided in one pass over the real and imaginary parts
    x = np.empty((n * n, 2 * m * m))
    np.divide(view.view(np.float64), norm2, out=x.reshape(n, n, m, 2 * m))
    r = x.view(complex)
    energies = np.einsum("ij,ij->j", x, x).reshape(-1, 2).sum(axis=1)
    vb = r[:, np.argmax(energies)].conj() @ r
    vb /= np.linalg.norm(vb)
    va = r @ vb.conj()
    total = energies.sum()
    deficit = 1.0 - np.vdot(va, va).real / total
    if deficit > tol:
        return None, None, float(np.sqrt(deficit))
    resid = np.outer(va, vb)
    resid -= r
    err = float(np.sqrt(np.vdot(resid, resid).real / total))
    if not err <= tol:
        return None, None, err
    a, b = va.reshape(n, n), vb.reshape(m, m)
    top = a[np.argmax(np.abs(a[:, 0])), 0]
    phase = top / abs(top) if top else 1.0
    return a * (norm2 / phase), b * phase, err


def _search_witness(bmap: BipartiteMap, tol: float) -> Witness | None:
    """A witness for a rejected map: per reading, the image table (a zero or
    entangled basis image in the map's own layout) and the phase grid of a
    matching parallelism pattern; then the basis-pair parallelism scan of
    every table built; last the random search."""
    shape = bmap.shape
    # the relabeled reading's output layout is (m, n), the same table when n == m
    tables: dict[tuple[int, int], ProductImageTable | Witness] = {}
    for out_shape, case in ((shape, CASE_I), (shape.flipped(), CASE_II)):
        key = out_shape.as_tuple()
        if key not in tables:
            tables[key] = build_image_table(bmap, tol, out_shape)
        table = tables[key]
        if isinstance(table, Witness):
            if key == shape.as_tuple():
                return table
            continue
        if not _pattern_holds(table, case, tol):
            continue
        factored = factor_phase_grid(extract_factors(table, case)[2], tol)
        if isinstance(factored, Witness):
            ev = _evidence(bmap, factored.state, out_shape, tol)
            if ev.input_rank == 1 and ev.image_rank >= 2:
                return Witness(WITNESS_NONFACTORIZABLE_PHASE, factored.state, ev)
    for table in tables.values():
        if not isinstance(table, Witness):
            witness = _parallelism_witness(bmap, table, tol)
            if witness is not None:
                return witness
    return _random_search_witness(bmap, tol)


def classify(bmap: BipartiteMap, tol: float = DEFAULT_RANK_TOL) -> QualitativeVerdict:
    """Rank check, then the realignment certificate for Local and then for
    SwapLocal; a rejected map gets its witness from the constructive stages.

    The map's spectrum is computed once, as singular values only, and
    cached on the map: it decides the rank check (the full SVD runs only on
    a rank-deficient map, for its kernel vector) and supplies the 2-norm
    that scales the certificate and every vanishing-image test.

    A Local verdict certifies ||L - A x B|| <= tol * ||L|| (Frobenius);
    SwapLocal certifies ||S L - A x B|| <= tol * ||L|| with S the
    relabeling from the recorded output shape.  Both need full-rank A and
    B.  Otherwise the verdict is NotPreserving with a re-verified witness;
    when no constructive stage finds one, a random search over a fixed
    stream does.  The whole verdict, witness included, depends on the map
    and tol alone; tol must lie in (0, 1) (ParamOutOfRange otherwise).
    """
    tol = tolerance(tol)
    shape = bmap.shape
    if shape.n < 2 or shape.m < 2:
        raise ShapeMismatch("both factors need dim >= 2 for entanglement to exist")
    kernel_witness = check_full_rank(bmap, tol)
    if kernel_witness is not None:
        return QualitativeVerdict(
            KIND_NOT_PRESERVING, witness=kernel_witness, detail="map is rank deficient"
        )
    for kind, swap in ((KIND_LOCAL, False), (KIND_SWAP_LOCAL, True)):
        a, b, err = _fit_local(bmap, swap, tol)
        if a is not None and numerical_rank(a, tol) == shape.n and numerical_rank(b, tol) == shape.m:
            return QualitativeVerdict(
                kind,
                a,
                b,
                reconstruction_error=err,
                output_shape=(shape.flipped() if swap else shape).as_tuple(),
                detail="factors certified by reconstruction",
            )
    return QualitativeVerdict(
        KIND_NOT_PRESERVING,
        witness=_search_witness(bmap, tol),
        detail="no local or swap-local decomposition fits",
    )
