"""Qualitative classifier for linear bipartite maps.

Decides whether an invertible map on an n x m composite space is Local
(A x B), SwapLocal (a local map composed with the subsystem relabeling), or
NotPreserving, and in the last case produces a concrete witness state whose
Schmidt data demonstrably violates preservation.

The decision is one certificate per reading: L = A x B holds exactly when
the realignment of L has rank 1 (Van Loan & Pitsianis, 1993), so a
least-squares rank-1 fit of the realigned map and its relative residual
decide Local, and the same fit of the relabeled map decides SwapLocal; the
rank of A x B is read off the two small factors.  A rejected map gets its
witness from the constructive stages of the paper's argument (product
images of the product basis, the parallelism pattern of the image factors,
extraction of the local factors and a rank-1 factorization of the leftover
phase/length grid); every witness is re-verified through the Schmidt
oracle before it is returned.  The rank check of the whole map runs only
where a reading's phase grid factors, so that its images form A x B and
only the rank can have failed, and once more before the random search.

The reject path avoids full decompositions where a cheaper certificate
exists.  The rank check reads the map's values-only spectrum, cached on
the map.  A kernel vector on a simple null singular value comes from
inverse iteration, and only another rank-deficient map pays for a full
SVD.  The product-basis images of basis row 0 are decided by a values-only
stacked SVD; past it, one vectorised rank-1 fit certifies rank 1 (Weyl's
inequality turns its misfit into a bound on s_2), and only a row holding
an image the fit cannot certify takes a values-only stacked SVD.

For n != m a swapped map produces images that factor with respect to the
flipped layout (m, n); the verdict records the output shape it certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NoConvergence, ParamOutOfRange, ShapeMismatch
from .generators import random_schmidt_rank_state, split_rng
from .linalg import DEFAULT_RANK_TOL, as_matrix, singular_values, svd, tolerance
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

    Every entry must be finite.  Its largest entry modulus, its Frobenius
    norm and its singular values are computed only when first read and
    then cached on the instance, so the matrix must not be mutated after
    construction.  classify reads the singular values on the reject path
    alone: in the rank check, which runs only where a reading's images
    factor as A x B or before the random search, and for the 2-norm of an
    image too small for the vanishing test's Frobenius bound.  A full SVD
    of the matrix runs only on a rank-deficient map whose kernel is not one
    simple null direction (or whose inverse iteration fails its check).
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
    def _peak(self) -> float:
        """The largest entry modulus."""
        return float(np.abs(self.matrix).max())

    @cached_property
    def _frobenius(self) -> float:
        """||L||_F / peak, in [1, nm]: the Frobenius norm of |L| / peak, whose
        entries are at most 1, so it neither under- nor overflows; 0.0 for
        the zero map."""
        peak = self._peak
        return float(np.linalg.norm(np.abs(self.matrix) / peak)) if peak > 0.0 else 0.0

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
    """A classify result.  reconstruction_error and rank_ratio are the two
    margins an accepted reading cleared (at most tol, and above tol); both
    are None on NotPreserving, which carries the witness instead."""

    kind: str
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    reconstruction_error: float | None = None
    rank_ratio: float | None = None
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

    An image above tol * ||L||_F * ||state|| does not vanish, as
    ||L||_2 <= ||L||_F; on a map with s_min > tol ||L||_F, every image
    clears that bound, since ||L x|| >= s_min ||x||.  A zero image
    vanishes; only another image below the bound reads the spectrum for
    ||L||_2.  Both tests divide by a norm of L first (the peak, then
    ||L||_2), so no norm under- or overflows at any scale of the map.  The
    zero map annihilates all.
    """
    peak = bmap._peak
    if peak == 0.0:
        return True
    bound = tol * np.linalg.norm(state)
    scaled = np.linalg.norm(image / peak)
    if scaled > bound * bmap._frobenius:
        return False
    return bool(scaled == 0.0 or np.linalg.norm(image / bmap.singular_values[0]) <= bound)


def _evidence(bmap: BipartiteMap, state, image_shape, tol) -> SchmidtEvidence:
    """Schmidt data for a state and its image; a vanishing image has rank 0.

    The image is decomposed as an image of L / peak, whose norm is at most
    nm, so it cannot overflow; a non-vanishing image needs no spectrum.
    """
    state = np.asarray(state, dtype=complex)
    dec_in = schmidt_decompose(state, bmap.shape, tol=tol)
    img = bmap.apply(state)
    if _vanishing(bmap, img, state, tol):
        img_coeffs, img_rank = np.zeros(0), 0
    else:
        peak = bmap._peak
        dec_img = schmidt_decompose(img / peak, image_shape, tol=tol)
        img_coeffs, img_rank = dec_img.coefficients * peak, dec_img.rank
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


# The null singular value counts as simple when s[-2] > tol * s[0] and
# s[-1] <= _KERNEL_GAP * s[-2].  Each inverse-iteration solve then shrinks
# every other right singular component against the null one by at least
# that factor; on an exact kernel, where s[-1] is rounding, two solves
# reach the kernel vector to rounding.
_KERNEL_GAP = 1e-3
_KERNEL_SOLVES = 2


def _kernel_vector(bmap: BipartiteMap, tol: float) -> np.ndarray:
    """A unit right null vector of a rank-deficient map.

    On a simple null singular value it comes from inverse iteration: LU
    solves with L / ||L||_2, whose entries cannot overflow, from a fixed
    start, gauged with its largest-modulus entry real positive.  It is kept
    when it is finite and its image passes the vanishing test.  Otherwise (a
    kernel of dimension > 1, the zero map, an exactly singular LU, a failed
    check) it is the last right singular vector of the full SVD.
    """
    s = bmap.singular_values
    if s[-2] > tol * s[0] and s[-1] <= _KERNEL_GAP * s[-2]:
        x = _inverse_iteration(bmap.matrix / s[0])
        if x is not None and _vanishing(bmap, bmap.apply(x), x, tol):
            return x
    return svd(bmap.matrix).right_basis[-1, :].conj()


def _inverse_iteration(unit: np.ndarray) -> np.ndarray | None:
    """_KERNEL_SOLVES LU solves from a fixed start, each result rescaled to
    unit norm; None on an exactly singular LU or a non-finite solve."""
    x = np.exp(1j * np.arange(unit.shape[0]))
    for _ in range(_KERNEL_SOLVES):
        try:
            x = np.linalg.solve(unit, x)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(x).all():
            return None
        x /= np.abs(x).max()
        x /= np.linalg.norm(x)
    return _fix_phases(x)


def check_full_rank(bmap: BipartiteMap, tol: float = DEFAULT_RANK_TOL) -> Witness | None:
    """None when the map has full numerical rank; otherwise a verified witness.

    The rank rule is the spectrum's: full rank when s_min > tol * s_max,
    read off the cached values-only spectrum.  Only a rank-deficient map
    computes its kernel vector (_kernel_vector: inverse iteration on a
    simple null singular value, else the full SVD), whose witness is
    _kernel_witness's.
    """
    s = bmap.singular_values
    if s[0] > 0 and s[-1] > tol * s[0]:
        return None
    return _kernel_witness(bmap, _kernel_vector(bmap, tol), tol)


def _kernel_witness(bmap: BipartiteMap, kernel: np.ndarray, tol: float) -> Witness:
    """The witness for a unit vector the map annihilates.

    An entangled kernel vector is its own witness, being annihilated
    outright.  A product one, a1 x b1, is upgraded to the constructive
    violation: with a2, b2 unit and orthogonal to a1, b1, the
    Schmidt-rank-2 combination (a1 x b1 + a2 x b2) / sqrt(2) maps to
    L(a2 x b2) / sqrt(2); when that image has rank <= 1, the combination is
    the witness, and otherwise the partner product state a2 x b2 itself,
    which maps to an entangled vector.
    """
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
    They come from a rank-1 fit of each image (_rank_one_fits), not from
    its SVD: on an image of exact rank 1 they are its singular vectors to
    rounding.
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


def _stacked_spectra(stack: np.ndarray) -> np.ndarray:
    """Singular values of each matrix in a stack (last two axes), values only."""
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _schmidt_ranks(spectra: np.ndarray, tol: float) -> np.ndarray:
    """Per stacked spectrum, the coefficients above tol times the largest;
    an all-zero spectrum has rank 0."""
    return np.count_nonzero(spectra > tol * spectra[..., :1], axis=-1)


def _rank_one_fits(images: np.ndarray, tol: float):
    """Per image X (last two axes): unit vectors d, e and whether the fit
    X ~ a d e^T certifies Schmidt rank 1.

    Each image is first divided by its largest real or imaginary part, so
    no square under- or overflows.  e starts as X's largest row, then
    d = X e-bar / ||X e-bar||, e = X^T d-bar and a = ||e||.  The fit
    certifies rank 1 when a > 0 and ||X - d e^T||_F <= tol * a: by Weyl,
    s_2(X) <= ||X - d e^T||_2 <= tol * a <= tol * s_1(X), which is the
    rank test of _schmidt_ranks.  An image the fit does not certify may
    still have rank 1; only its SVD can tell.
    """
    x = images.copy()
    flat = x.view(np.float64)
    peaks = np.abs(flat).max(axis=(-2, -1))
    flat /= np.where(peaks > 0.0, peaks, 1.0)[..., None, None]
    top = np.argmax(np.einsum("...ab,...ab->...a", flat, flat), axis=-1)
    start = np.take_along_axis(x, top[..., None, None], axis=-2)
    d = (x @ start.conj().swapaxes(-2, -1))[..., 0]
    d_norm = np.linalg.norm(d, axis=-1, keepdims=True)
    d /= np.where(d_norm > 0.0, d_norm, 1.0)
    e = (d.conj()[..., None, :] @ x)[..., 0, :]
    a = np.linalg.norm(e, axis=-1)
    resid = x - d[..., :, None] * e[..., None, :]
    flat = resid.view(np.float64)
    misfit = np.sqrt(np.einsum("...ab,...ab->...", flat, flat))
    certified = (a > 0.0) & (misfit <= tol * a)
    return d, e / np.where(a > 0.0, a, 1.0)[..., None], certified


def _row_witness(bmap: BipartiteMap, images: np.ndarray, i: int, out, tol: float) -> Witness | None:
    """The first vanishing or entangled image of basis row i as a witness,
    from one values-only stacked SVD of the row; None when all have rank 1."""
    ranks = _schmidt_ranks(_stacked_spectra(images[i]), tol)
    bad = np.flatnonzero(ranks != 1)
    if not bad.size:
        return None
    j = int(bad[0])
    basis_state = _basis_ket(bmap.shape.dim, i * bmap.shape.m + j)
    ev = _evidence(bmap, basis_state, out, tol)
    kind = WITNESS_KERNEL if ev.image_rank == 0 else WITNESS_PRODUCT_TO_ENTANGLED
    return Witness(kind=kind, state=basis_state, evidence=ev)


def build_image_table(
    bmap: BipartiteMap,
    tol: float = DEFAULT_RANK_TOL,
    output_shape=None,
) -> ProductImageTable | Witness:
    """Schmidt-decompose every product-basis image.

    Runs on any map, full rank or not.  Returns a witness as soon as some
    basis image, in row-major order, is entangled with respect to the
    requested output layout or vanishes (a KernelVector); the basis state
    itself is the witness.  Basis row 0 is decided by one values-only
    stacked SVD, so a map that entangles |0,0> costs one row.  Past it, one
    vectorised rank-1 fit of every image (_rank_one_fits) certifies rank 1
    and gives the factor vectors; only a row holding an image the fit
    cannot certify is decided by a values-only stacked SVD, in row order.
    No full SVD runs.
    """
    shape = bmap.shape
    out = as_shape(output_shape) if output_shape is not None else shape
    if out.dim != shape.dim:
        raise ShapeMismatch(f"output shape {out.as_tuple()} has wrong total dim")
    n, m = shape.n, shape.m
    # images[i, j] is the column L|i,j> as an out.n x out.m coefficient matrix
    images = bmap.matrix.T.reshape(n, m, out.n, out.m)
    witness = _row_witness(bmap, images, 0, out, tol)
    if witness is not None:
        return witness
    d_vecs, e_vecs, certified = _rank_one_fits(images, tol)
    for i in np.flatnonzero(~certified[1:].all(axis=-1)) + 1:
        witness = _row_witness(bmap, images, int(i), out, tol)
        if witness is not None:
            return witness
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
    near-degenerate grids) of the grid scaled to max modulus 1, so the
    s2 <= tol * s1 gate never compares an overflowed SVD and products of
    entries stay finite; the scale goes back into mu.  mu[0] is gauged real
    positive with nu rescaled reciprocally.  On failure the witness is the
    product state over the worst 2x2 minor, whose image under the grid's
    diagonal map is verified to have Schmidt rank 2.
    """
    grid = as_matrix(grid)
    n, m = grid.shape
    peak = np.abs(grid).max()
    unit = grid / peak
    res = svd(unit)
    s = res.singular_values
    if len(s) < 2 or s[1] <= tol * s[0]:
        mu = s[0] * res.left_basis[:, 0]
        nu = res.right_basis[0, :].copy()
        anchor = mu[0] if abs(mu[0]) > 0 else mu[int(np.argmax(np.abs(mu)))]
        phase = anchor / abs(anchor)
        return mu * (peak / phase), nu * phase
    # locate the most non-degenerate 2x2 minor for the witness
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


def _fit_local(bmap: BipartiteMap, swap: bool, tol: float, peak: float):
    """Fit L = A x B (swap=False) or S L = A x B (swap=True); return (A, B, error).

    peak is the largest entry modulus of L, positive.  R, the realignment of
    L / peak to n^2 x m^2, is vec(A) vec(B)^T when the reading fits; its
    entries are at most 1 in modulus and one of them is 1, so no square
    under- or overflows.  vec(A) is read off the largest column of R, then
    vec(B) and vec(A) are fitted once each by least squares; the error is
    ||R - vec(A) vec(B)^T||_F / ||R||_F.  Its square equals the energy
    deficit 1 - ||vec(A)||^2 / ||R||_F^2, whose rounding is about 1e-15: a
    deficit above tol (>= tol^2) is read as the error without forming the
    residual.  A and B are None unless error <= tol; then they are at the
    map's scale with ||B||_F = 1 and the largest-modulus entry of A[:, 0]
    real positive.
    """
    n, m = bmap.shape.n, bmap.shape.m
    if swap:
        view = bmap.matrix.reshape(m, n, n, m).transpose(1, 2, 0, 3)
    else:
        view = bmap.matrix.reshape(n, m, n, m).transpose(0, 2, 1, 3)
    # realigned and divided in one pass over the real and imaginary parts
    x = np.empty((n * n, 2 * m * m))
    np.divide(view.view(np.float64), peak, out=x.reshape(n, n, m, 2 * m))
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
    return a * (peak / phase), b * phase, err


def _search_witness(bmap: BipartiteMap, tol: float) -> tuple[Witness | None, bool]:
    """A witness for a rejected map, and whether it proves the map rank
    deficient: a witness built from a kernel vector (_kernel_witness, which
    also serves check_full_rank).

    Per reading: the image table (a vanishing or entangled basis image in
    the map's own layout), then the phase grid of a matching parallelism
    pattern.  A grid that factors means the reading's images form A x B,
    so only the rank can have failed: check_full_rank runs there, and its
    witness comes first.  Otherwise the first witness of the readings
    stands; a vanishing basis image, a product kernel vector, gives its
    _kernel_witness at once.  Then the basis-pair parallelism scan of
    every table built; then check_full_rank once more, on the cached
    spectrum; last the random search."""
    shape = bmap.shape
    # the relabeled reading's output layout is (m, n), the same table when n == m
    tables: dict[tuple[int, int], ProductImageTable | Witness] = {}
    found = None
    for out_shape, case in ((shape, CASE_I), (shape.flipped(), CASE_II)):
        key = out_shape.as_tuple()
        if key not in tables:
            tables[key] = build_image_table(bmap, tol, out_shape)
        table = tables[key]
        if isinstance(table, Witness):
            if key == shape.as_tuple():
                if table.kind == WITNESS_KERNEL:
                    return _kernel_witness(bmap, table.state, tol), True
                found = table
            continue
        if not _pattern_holds(table, case, tol):
            continue
        factored = factor_phase_grid(extract_factors(table, case)[2], tol)
        if not isinstance(factored, Witness):
            deficient = check_full_rank(bmap, tol)
            if deficient is not None:
                return deficient, True
        elif found is None:
            ev = _evidence(bmap, factored.state, out_shape, tol)
            if ev.input_rank == 1 and ev.image_rank >= 2:
                found = Witness(WITNESS_NONFACTORIZABLE_PHASE, factored.state, ev)
    if found is not None:
        return found, False
    for table in tables.values():
        if not isinstance(table, Witness):
            witness = _parallelism_witness(bmap, table, tol)
            if witness is not None:
                return witness, False
    deficient = check_full_rank(bmap, tol)
    if deficient is not None:
        return deficient, True
    return _random_search_witness(bmap, tol), False


def classify(bmap: BipartiteMap, tol: float = DEFAULT_RANK_TOL) -> QualitativeVerdict:
    """The realignment certificate for Local and then for SwapLocal; a map
    that neither reading accepts gets its witness from the constructive
    stages, with the rank check only where a reading's images factor.

    A Local verdict certifies ||L - A x B|| <= tol * ||L|| (Frobenius);
    SwapLocal certifies ||S L - A x B|| <= tol * ||L|| with S the
    relabeling from the recorded output shape.  A fitted reading is
    accepted exactly when its rank_ratio, s_min / s_max of A x B from one
    values-only SVD of each factor, exceeds tol; as both factor ratios are
    at most 1, this implies the rank check of A and of B.  An accepted map
    never computes its own nm x nm spectrum.  Once both readings miss, the
    verdict is NotPreserving and only its witness remains to be found
    (_search_witness).  The rank check, which reads the spectrum, runs
    where a reading's phase grid factors, so that the basis images form
    A x B and only invertibility can have failed, and once more before the
    random search.  A map whose witness comes from an entangled basis
    image, the phase grid or the parallelism scan never computes its
    spectrum unless some witness image falls below the vanishing test's
    Frobenius bound.  A rank-deficient map takes its kernel vector by
    inverse iteration when the null singular value is simple, and from a
    full SVD otherwise; the image table certifies rank 1 by a rank-1 fit
    and runs no full SVD.  detail reads "map is rank deficient" exactly
    when the witness was built from a kernel vector: a KernelVector, or the
    partner product state of a product kernel vector.

    A map no reading accepts is NotPreserving with a re-verified witness;
    when no constructive stage finds one, a random search over a fixed
    stream does.  The whole verdict, witness included, depends on the map
    and tol alone; tol must lie in (0, 1) (ParamOutOfRange otherwise).

    The factor rank test can differ from the map's own only near tol: the fit
    residual, at most tol * ||L||_F, can move s_min(L) and s_max(L) that
    far (Weyl), so s_min / s_max of L and rank_ratio differ by at most
    about 2 * tol * ||L||_F / ||L||_2 <= 2 * tol * sqrt(nm).  A fitted map
    whose own ratio is below about (1 + 2 * sqrt(nm)) * tol can thus be
    accepted although its spectrum reads rank deficient, or the other way
    round.
    """
    tol = tolerance(tol)
    shape = bmap.shape
    if shape.n < 2 or shape.m < 2:
        raise ShapeMismatch("both factors need dim >= 2 for entanglement to exist")
    peak = bmap._peak
    # the zero map fits no reading; it goes straight to the witness search
    readings = ((KIND_LOCAL, False), (KIND_SWAP_LOCAL, True)) if peak > 0.0 else ()
    for kind, swap in readings:
        a, b, err = _fit_local(bmap, swap, tol, peak)
        if a is None:
            continue
        # s_min / s_max of A x B, whose singular values are the products
        # s_i(A) s_j(B); A is nonzero, as its fit passed
        sa, sb = singular_values(a), singular_values(b)
        ratio = float(sa[-1] / sa[0] * (sb[-1] / sb[0]))
        if ratio > tol:
            return QualitativeVerdict(
                kind,
                a,
                b,
                reconstruction_error=err,
                rank_ratio=ratio,
                output_shape=(shape.flipped() if swap else shape).as_tuple(),
                detail="factors certified by reconstruction",
            )
    witness, deficient = _search_witness(bmap, tol)
    detail = "map is rank deficient" if deficient else "no local or swap-local decomposition fits"
    return QualitativeVerdict(KIND_NOT_PRESERVING, witness=witness, detail=detail)
