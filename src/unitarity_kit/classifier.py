"""Qualitative classifier for linear bipartite maps.

Decides whether an invertible map on an n x m composite space is Local
(A x B), SwapLocal (a local map composed with the subsystem relabeling), or
NotPreserving, and in the last case produces a concrete witness state whose
Schmidt data demonstrably violates preservation.

The decision is one certificate per reading: L = A x B holds exactly when
the realignment of L has rank 1 (Van Loan & Pitsianis, 1993), so a
least-squares rank-1 fit of the realigned map and its relative residual
decide Local, and the same fit of the relabeled map decides SwapLocal; the
rank of A x B is read off the two small factors.  A map fails in one of two
ways: a reading fits but the rank of A x B fails, so only invertibility is
missing, or no reading fits.  The first takes its witness from the kernel
vector of A x B, the product of the factors' own; the rank check of the
whole map serves only where that vector's image does not vanish.  By the
paper's theorem an invertible map that sends every product state to a
product is Local or SwapLocal, so a witness makes one of two claims: the
map annihilates its state (KernelVector), or its state is a product whose
image is entangled (ProductToEntangled).  On a full-rank map that no
reading accepts almost every fixed product state is therefore a witness,
and the second way of failing takes its witness from the first of three
fixed product states that shows it: |0,0>, (|0,0> + |1,0>)/sqrt(2) and
the normalized ramp (1, ..., n) x (1, ..., m).
Then come the rank check, the basis state whose image is farthest from a
product, and last a deterministic search over product states.  One gate,
_gate, judges every candidate of every stage on its image, taken once: a
stage returns a witness only when that image makes the claim, and only
then is the witness's Schmidt evidence built, the Schmidt data of its
state and of its image (_schmidt_evidence).  witness_reverifies passes
the state through the same gate.  classify draws no random numbers.

The constructive stages of the paper's argument stay public, outside
classify: build_image_table gives the product images of the product
basis, extract_factors the local factors and the leftover phase/length
grid of a reading, and factor_phase_grid a rank-1 factorization of that
grid or a NonFactorizablePhase witness, a product state with an entangled
image like ProductToEntangled.  The relabeled reading (Case II) reads the
image factors with the roles of row and column swapped (_roles).

The reject path computes only what it reads.  Before either fit, four
entries of column 0 are read: the leading 2x2 block of the unit-scale image
of |0,0> in the layout (n, m), and for n != m in (m, n) too.  Where every
such block has |det| > beta ||block||_F, beta = 2 sqrt(2) tol nm, no
reading can fit (_first_image_entangled): a fitted reading leaves that
image within tol ||L||_F < sqrt(2) tol nm of a product, so its s_2 is at
most that (Weyl's inequality), while any 2x2 block bounds s_2 from below by
|det| / ||block||_F (Cauchy interlacing), and the factor 2 covers the fit's
rounding.  The map is then NotPreserving with the witness |0,0>, the
witness search's first candidate, bit for bit, and neither fit runs; its
evidence reads column 0 alone.  Where that image is a product, four
entries of row 0 are read next, L[0,0], L[0,1], L[0,m] and L[0,m+1]: the
leading 2x2 block of row 0 as an n x m matrix, and a 2x2 block of both
realignments, Local and SwapLocal, for n = m and for n != m
(_first_row_entangled).  A fitted reading has s_2 of its realignment at
most tol ||L||_F (Eckart-Young), and the same bound on |det| / ||block||_F
(interlacing) proves that neither fits: both fits are skipped, and the
witness search runs as it would after two failed fits.  This decides the
CNOT-like and controlled-phase rejects, whose basis images are products.
A map that factors but is singular pays for one full SVD of each n x n
and m x m factor, never one of the nm x nm map: the singular values of
A x B are the products s_i(A) s_j(B) and its singular vectors the products
of the factors'.  The rank check reads the map's values-only spectrum,
cached on the map, and only a rank-deficient map pays for one full SVD,
for its kernel vector.  Whether an image vanishes is decided by two
bounds on ||L||_2 that unit scale gives, 1/2 <= ||L||_2 < sqrt(2) nm,
and the spectrum is read only for an image between them.
Schmidt evidence holds coefficients and ranks from values-only spectra,
never Schmidt vectors.  A fixed candidate of the witness search that makes
no claim costs one matrix-vector product and one values-only spectrum of
its image per layout it reaches; the one that makes its claim costs the
spectrum of its state too.  A reject that one of them decides computes no
spectrum of the map unless that image falls between the two bounds; any
other reject reads the spectrum in the rank check.  The basis state after
it comes from one values-only stacked SVD of the basis images per layout.
build_image_table reads the Schmidt ranks and factor vectors of every
product-basis image off one stacked SVD.

For n != m a swapped map produces images that factor with respect to the
flipped layout (m, n); the verdict records the output shape it certifies.
As every SwapLocal map entangles some product states in the own layout
(n, m), a product-state witness of an n != m map must show an entangled
image in both layouts.

Every decision is made on the map at unit scale, L * 2^-k, with k the
binary exponent of its largest real or imaginary part, which the
constructor reads in the pass that also refuses non-finite entries.  The
realignment fit scales the map as it realigns it, so an accepted map never
makes the unit-scale copy that the reject path reads.  Scaling by a power of
two is exact, so the fits, spectra, kernel vectors and images that decide a
verdict are the same bits for L and for L * 2^j whenever that product is
exact, and no norm under- or overflows at any scale of the map.  Only the
outputs that carry the map's scale, A, the image Schmidt coefficients and
singular_values, are multiplied back by 2^k; where A times 2^k would
overflow, A and B take about half of k each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NoConvergence, ParamOutOfRange, ShapeMismatch, ZeroVector
from .linalg import (
    DEFAULT_RANK_TOL,
    as_matrix,
    as_vector,
    block_beyond,
    ldexp,
    part_exponent,
    singular_values,
    svd,
    tolerance,
)
from .schmidt import BipartiteShape, as_shape

KIND_LOCAL = "Local"
KIND_SWAP_LOCAL = "SwapLocal"
KIND_NOT_PRESERVING = "NotPreserving"

WITNESS_KERNEL = "KernelVector"
WITNESS_PRODUCT_TO_ENTANGLED = "ProductToEntangled"
WITNESS_NONFACTORIZABLE_PHASE = "NonFactorizablePhase"

DETAIL_NO_FIT = "no local or swap-local decomposition fits"

CASE_I = "I"
CASE_II = "II"

# sweeps of the product-state search per output layout
PRODUCT_SEARCH_SWEEPS = 4


@dataclass(frozen=True)
class BipartiteMap:
    """Square nm x nm matrix acting on the composite space.

    Every entry must be finite.  The constructor reads the largest and the
    smallest real or imaginary part, which are finite exactly when every
    entry is (a NaN or an inf shows up in one of them), and keeps the
    binary exponent k of the larger modulus.  The unit-scale copy
    L * 2^-k, whose parts are below 1 in modulus with the largest at
    least 1/2, so that 1/2 <= ||L * 2^-k||_2 < sqrt(2) nm, and its
    singular values are computed only when first read and then cached on
    the instance, so the matrix must not be mutated after construction.
    classify reads the copy and the spectrum on the reject path alone: the
    spectrum in the rank check, which runs where the factors' kernel vector
    of a fitted reading does not vanish and where none of the witness
    search's three fixed product states is a witness, and for the 2-norm of
    an image between the vanishing test's two bounds.  Each fixed product
    state that makes no claim costs one product with the copy and one
    values-only spectrum of its image per layout it reaches (_gate).  A
    full SVD of the map runs only in the rank check of a rank-deficient
    map, for its kernel vector.
    """

    matrix: np.ndarray
    shape: BipartiteShape

    def __post_init__(self):
        m = np.ascontiguousarray(as_matrix(self.matrix))
        shape = as_shape(self.shape)
        if m.shape != (shape.dim, shape.dim):
            raise ShapeMismatch(
                f"map is {m.shape}, shape {shape.as_tuple()} needs "
                f"{(shape.dim, shape.dim)}"
            )
        k = part_exponent(m)
        if k is None:
            raise ParamOutOfRange("map has non-finite entries")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_exponent", k)

    @cached_property
    def _unit(self) -> np.ndarray:
        """The matrix times 2^-k, exact but for parts that underflow."""
        return ldexp(self.matrix, -self._exponent)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Singular values at unit scale, values only, non-increasing."""
        return singular_values(self._unit)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the matrix, non-increasing; [0] is its 2-norm."""
        return ldexp(self._spectrum, self._exponent)

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
    """Whether the image, under the unit-scale map, is at most
    tol * ||L||_2 * ||state||, all at unit scale.

    Unit scale bounds the 2-norm without the spectrum: every real or
    imaginary part is below 1 and the largest is at least 1/2, so
    1/2 <= ||L||_2 <= ||L||_F < sqrt(2) nm (the zero map aside).  An image
    above tol * ||state|| * sqrt(2) nm does not vanish, and one at most
    tol * ||state|| / 2 does, the zero image included.  Only an image
    between the two reads the spectrum for ||L||_2.
    """
    bound = tol * np.linalg.norm(state)
    norm = np.linalg.norm(image)
    if norm > bound * np.sqrt(2.0) * bmap.shape.dim:
        return False
    if norm <= bound / 2:
        return True
    return bool(norm <= bound * bmap._spectrum[0])


def _schmidt_evidence(state, shape, image_spectrum, image_shape, k: int, tol: float) -> SchmidtEvidence:
    """Schmidt data of a state in the layout shape and of its image in
    image_shape: the coefficients above tol times the largest, and their
    count.  The state's come from its values-only spectrum; the image's
    from image_spectrum, its values-only spectrum at scale 2^-k (empty for
    a vanishing image, which has rank 0), scaled back by 2^k.  No Schmidt
    vectors are formed."""
    s = singular_values(state.reshape(shape))
    in_rank, img_rank = int(_schmidt_ranks(s, tol)), int(_schmidt_ranks(image_spectrum, tol))
    img_coeffs = ldexp(image_spectrum[:img_rank], k)
    return SchmidtEvidence(s[:in_rank], in_rank, shape, img_coeffs, img_rank, image_shape)


def _gate(bmap: BipartiteMap, kind: str | None, state, image_shape, tol: float) -> Witness | None:
    """The state as a witness of the kind, with its Schmidt evidence in the
    layout image_shape, when its image makes the kind's claim; else None.
    Every witness of this module leaves through here but two whose claim is
    proved before: classify's column-block witness and factor_phase_grid's
    NonFactorizablePhase one.  witness_reverifies judges one by this rule.

    A KernelVector claims that the map annihilates its state (_vanishing),
    whatever the state's Schmidt rank.  A ProductToEntangled or
    NonFactorizablePhase witness claims a product state with an entangled
    image: an image that does not vanish and has Schmidt rank >= 2 in
    image_shape, for n != m in the flipped layout too, as every SwapLocal
    map entangles product states in its own layout, and a state of rank 1.
    kind None takes the kind the image shows: KernelVector where it
    vanishes, else ProductToEntangled.

    The image is taken once, under the unit-scale map, and each layout's
    rank read off its values-only spectrum, the first layout that fails
    ending the test: a state that makes no claim costs one product and one
    spectrum per layout it reaches.  Only a state whose image makes the
    claim takes the spectrum of the state itself, and its evidence reuses
    the image's spectrum in image_shape.
    """
    state = np.asarray(state, dtype=complex)
    image = bmap._unit @ state
    vanishing = _vanishing(bmap, image, state, tol)
    if kind is None:
        kind = WITNESS_KERNEL if vanishing else WITNESS_PRODUCT_TO_ENTANGLED
    out = as_shape(image_shape)
    spectrum = np.zeros(0)
    if kind == WITNESS_KERNEL:
        if not vanishing:
            return None
    elif kind in (WITNESS_PRODUCT_TO_ENTANGLED, WITNESS_NONFACTORIZABLE_PHASE) and not vanishing:
        spectrum = singular_values(image.reshape(out.n, out.m))
        if _schmidt_ranks(spectrum, tol) < 2:
            return None
        flipped = image.reshape(out.m, out.n)
        if bmap.shape.n != bmap.shape.m and _schmidt_ranks(singular_values(flipped), tol) < 2:
            return None
    else:
        return None
    ev = _schmidt_evidence(state, bmap.shape.as_tuple(), spectrum, out.as_tuple(), bmap._exponent, tol)
    if kind != WITNESS_KERNEL and ev.input_rank != 1:
        return None
    return Witness(kind, state, ev)


def witness_reverifies(bmap: BipartiteMap, witness: Witness, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Whether a witness's claim holds on the map, from its state alone.

    The Schmidt evidence is recomputed in the witness's image layout and
    judged by the rule every classify witness passed (_gate), so for
    n != m a product-state witness must show an entangled image in both
    layouts.  A kind other than KernelVector, ProductToEntangled or
    NonFactorizablePhase, None included, claims nothing.  Images are taken
    under the unit-scale map, so no norm under- or overflows at any scale
    of the map.  The state must be a nonzero vector of the map's dimension
    (ShapeMismatch, ZeroVector), and the image layout must have that
    dimension too (ShapeMismatch).
    """
    tol = tolerance(tol)
    state = as_vector(witness.state)
    if state.shape[0] != bmap.shape.dim:
        raise ShapeMismatch(f"witness state has dim {state.shape[0]}, the map {bmap.shape.dim}")
    out = as_shape(witness.evidence.image_shape)
    if out.dim != bmap.shape.dim:
        raise ShapeMismatch(f"witness image layout has dim {out.dim}, the map {bmap.shape.dim}")
    if not state.any():
        raise ZeroVector("a witness state must be nonzero")
    return witness.kind is not None and _gate(bmap, witness.kind, state, out, tol) is not None


def check_full_rank(bmap: BipartiteMap, tol: float = DEFAULT_RANK_TOL) -> Witness | None:
    """None when the map has full numerical rank; otherwise its kernel
    vector as a KernelVector witness, or None when that vector's image does
    not vanish after all.

    The rank rule is the spectrum's: full rank when s_min > tol * s_max,
    read off the cached values-only spectrum.  Only a rank-deficient map
    takes a full SVD of its unit-scale copy; the last right singular
    vector is the kernel vector, a product state or an entangled one.
    classify asks this only where the kernel vector of a fitted reading's
    factors (_factor_kernel) does not vanish, or no reading fitted.
    """
    s = bmap._spectrum
    if s[0] > 0 and s[-1] > tol * s[0]:
        return None
    kernel = svd(bmap._unit).right_basis[-1, :].conj()
    return _gate(bmap, WITNESS_KERNEL, kernel, bmap.shape, tol)


def _factor_kernel(bmap: BipartiteMap, a: np.ndarray, b: np.ndarray, tol: float) -> Witness | None:
    """kron(v_min(A), v_min(B)) as a KernelVector witness when the map
    annihilates it (_gate), else None.

    A and B are a fitted reading's factors, L = A x B or S L = A x B with
    A acting on the first factor of the input layout (n, m).  The singular
    values of A x B are the products s_i(A) s_j(B) and its singular vectors
    the Kronecker products of the factors' (Van Loan, 2000), so the right
    singular vector of its smallest singular value is the product of A's
    and B's, each the last right singular vector of one full SVD of an
    n x n or m x m factor.  No SVD of the nm x nm map runs.  A vanishing
    image proves s_min <= tol * s_max of the map, the rank check's rule.
    """
    kernel = np.kron(svd(a).right_basis[-1, :].conj(), svd(b).right_basis[-1, :].conj())
    return _gate(bmap, WITNESS_KERNEL, kernel, bmap.shape, tol)


@dataclass(frozen=True)
class ProductImageTable:
    """Per basis pair (i, j): L|i,j> = amps[i,j] * d_vecs[i,j] (x) e_vecs[i,j].

    The factor vectors are unit length with their largest-magnitude entry
    made real positive; the complex amplitude carries everything else.
    They are the dominant singular pair of each unit-scale image X, whose
    SVD rescales an image far below the map internally, so its vectors
    stay unit length.  The amplitude is s_1(X) times the two phases the
    gauge divides out (_fix_phases), the projection of the image onto the
    gauged factor vectors, scaled back to the map's scale.
    d_vecs[i,j] lives in the first factor of shape_out, e_vecs[i,j] in the
    second.
    """

    shape_in: BipartiteShape
    shape_out: BipartiteShape
    amps: np.ndarray
    d_vecs: np.ndarray
    e_vecs: np.ndarray


def _fix_phases(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each vector (last axis) by the phase of its largest-magnitude
    entry; return the vectors and the phases divided out."""
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    phases = top / np.abs(top)
    return v / phases, phases[..., 0]


def _schmidt_ranks(spectra: np.ndarray, tol: float) -> np.ndarray:
    """Per stacked spectrum, the coefficients above tol times the largest;
    an all-zero spectrum has rank 0."""
    return np.count_nonzero(spectra > tol * spectra[..., :1], axis=-1)


def build_image_table(
    bmap: BipartiteMap,
    tol: float = DEFAULT_RANK_TOL,
    output_shape=None,
) -> ProductImageTable | Witness | None:
    """Schmidt-decompose every product-basis image.

    Runs on any map, full rank or not.  One stacked SVD of the unit-scale
    images gives their Schmidt ranks (_schmidt_ranks) and, where every rank
    is 1, the dominant singular pair of each as its factor vectors; the
    amplitude is s_1 times the two phases the gauge divides out
    (_fix_phases).  Otherwise the first basis image in row-major order that
    is not rank 1 in the requested output layout decides, through the gate
    every witness passes (_gate): its basis state is a KernelVector witness
    where the image vanishes and a ProductToEntangled one where it is
    entangled, for n != m in the flipped layout too, and the result is None
    where it makes no claim, an image of an n != m map entangled in one
    layout only, as a SwapLocal map's images are in its own layout.
    classify builds no table: its witness search reads single images
    (_search_witness).
    """
    shape = bmap.shape
    out = as_shape(output_shape) if output_shape is not None else shape
    if out.dim != shape.dim:
        raise ShapeMismatch(f"output shape {out.as_tuple()} has wrong total dim")
    n, m = shape.n, shape.m
    # images[i, j] is the unit-scale column L|i,j> as an out.n x out.m
    # coefficient matrix; amps go back to the map's scale
    images = bmap._unit.T.reshape(n, m, out.n, out.m)
    try:
        u, s, vh = np.linalg.svd(images, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    bad = np.flatnonzero(_schmidt_ranks(s, tol) != 1)
    if bad.size:
        return _gate(bmap, None, _basis_ket(n * m, int(bad[0])), out, tol)
    (d_vecs, d_phases), (e_vecs, e_phases) = _fix_phases(u[..., 0]), _fix_phases(vh[..., 0, :])
    amps = ldexp(s[..., 0] * d_phases * e_phases, bmap._exponent)
    return ProductImageTable(shape, out, amps, d_vecs, e_vecs)


def _roles(pair, case: str):
    """A (d, e) pair in (row, column) order, the factor that follows the row
    index first: as given in Case I, swapped in Case II; its own inverse."""
    return pair if case == CASE_I else pair[::-1]


def extract_factors(table: ProductImageTable, case: str):
    """Local factors and the residual phase/length grid.

    Case I: A's columns are the row representatives d[i, 0], B's columns
    the column representatives e[0, j], and L|i,j> = grid[i,j] A e_i (x) B e_j.
    Case II: A's columns are e[i, 0], B's are d[0, j], and the same identity
    holds after relabeling the output (swap first).
    """
    rows, cols = _roles((table.d_vecs, table.e_vecs), case)
    a, b = rows[:, 0].T.copy(), cols[0].T.copy()
    # each image's row and column factor against its representative, put
    # back in (d, e) order for the product
    d_part, e_part = _roles(
        (np.einsum("ai,ija->ij", a.conj(), rows), np.einsum("bj,ijb->ij", b.conj(), cols)), case
    )
    return a, b, table.amps * d_part * e_part


def factor_phase_grid(grid, tol: float = DEFAULT_RANK_TOL):
    """Split a fully nonzero grid into grid[i,j] = mu[i] * nu[j], or witness.

    The rank-1 gate s2 <= tol * s1 reads the values-only spectrum of the
    grid times 2^-k, k the binary exponent of its largest real or imaginary
    part, so it never compares an overflowed SVD and products of entries
    stay finite; a non-finite entry raises ParamOutOfRange.  Only a grid
    that passes takes a full SVD: the factorization uses its dominant
    singular triple (robust on near-degenerate grids), and 2^k goes back
    into mu.  mu[0] is gauged real positive with nu rescaled reciprocally.
    On failure the witness is the product state over the worst 2x2 minor,
    whose image under the grid's diagonal map is verified to have Schmidt
    rank 2; its evidence holds Schmidt coefficients from values-only
    spectra.  tol must lie in (0, 1) (ParamOutOfRange otherwise).
    classify does not call this, so NonFactorizablePhase witnesses come
    from here alone.
    """
    tol = tolerance(tol)
    grid = np.ascontiguousarray(as_matrix(grid))
    n, m = grid.shape
    k = part_exponent(grid)
    if k is None:
        raise ParamOutOfRange("grid has non-finite entries")
    unit = ldexp(grid, -k)
    s = singular_values(unit)
    if len(s) < 2 or s[1] <= tol * s[0]:
        res = svd(unit)
        mu = res.singular_values[0] * res.left_basis[:, 0]
        nu = res.right_basis[0, :].copy()
        anchor = mu[0] if abs(mu[0]) > 0 else mu[int(np.argmax(np.abs(mu)))]
        phase = anchor / abs(anchor)
        return ldexp(mu / phase, k), nu * phase
    # locate the most non-degenerate 2x2 minor for the witness
    # rel[p, q] for row pair p = (i, k), i < k, and column pair q = (j, l),
    # j < l; argmax takes the first maximum in (i, k, j, l) order
    rows, cols = _pairs(n), _pairs(m)
    upper, lower = unit[rows[0]], unit[rows[1]]
    diag = upper[:, cols[0]] * lower[:, cols[1]]
    anti = upper[:, cols[1]] * lower[:, cols[0]]
    rel = np.abs(diag - anti) / np.maximum(np.abs(diag) + np.abs(anti), 1e-300)
    p, q = divmod(int(np.argmax(rel)), rel.shape[1])
    i, i2, j, j2 = rows[0][p], rows[1][p], cols[0][q], cols[1][q]
    ea = (_basis_ket(n, i) + _basis_ket(n, i2)) / np.sqrt(2)
    fb = (_basis_ket(m, j) + _basis_ket(m, j2)) / np.sqrt(2)
    state = np.outer(ea, fb).ravel()
    image = (unit.reshape(-1) * state).reshape(n, m)
    ev = _schmidt_evidence(state, (n, m), singular_values(image), (n, m), k, tol)
    return Witness(WITNESS_NONFACTORIZABLE_PHASE, state, ev)


def _layouts(shape: BipartiteShape) -> list[BipartiteShape]:
    """The output layouts a product-state witness must be entangled in:
    (n, m), and (m, n) too for n != m."""
    return [shape] if shape.n == shape.m else [shape, shape.flipped()]


def _ramp(shape: BipartiteShape) -> list[np.ndarray]:
    """The two factors of the ramp product state, (1, ..., n) and
    (1, ..., m), each divided by its norm: the witness search's last fixed
    candidate and the product-state search's start."""
    return [f / np.linalg.norm(f) for f in (np.arange(1.0, d + 1, dtype=complex) for d in (shape.n, shape.m))]


def _image_ratios(images: np.ndarray, layouts) -> np.ndarray:
    """Per image (last axis), the smallest s_2 / s_1 over the given output
    layouts, from one values-only stacked SVD per layout; 0.0 for a zero
    image."""
    ratios = []
    for out in layouts:
        s = singular_values(images.reshape(*images.shape[:-1], out.n, out.m))
        ratios.append(np.divide(s[..., 1], s[..., 0], out=np.zeros(s.shape[:-1]), where=s[..., 0] > 0.0))
    return np.minimum.reduce(ratios)


def _product_search_witness(bmap: BipartiteMap, tol: float) -> Witness | None:
    """Backstop: a product state a x b whose image is entangled in every
    output layout, by a fixed alternating ascent; None when none is found.

    From a ~ (1, ..., n), b ~ (1, ..., m), each half-step fixes one factor
    and sets the other to the maximiser of ||P X Q||_F / ||X||_F, with X the
    image as a matrix in the layout being refined and P, Q the projectors
    off the current image's top singular pair.  With W = QR the stacked
    images of that factor's basis kets, the maximiser is R^+ c, c the top
    right singular vector of (P W Q) R^+; the pseudo-inverse keeps a
    singular R, and a factor that would vanish stays as it was.
    PRODUCT_SEARCH_SWEEPS sweeps run in the layout (n, m), and as many in
    (m, n) when n != m.  The witness is the visited state whose smallest
    s_2 / s_1 over every layout is largest, once that exceeds tol and its
    image makes the claim (_gate).
    """
    shape = bmap.shape
    n, m = shape.n, shape.m
    layouts = _layouts(shape)
    # columns[i, j] is the unit-scale image of |i, j>
    columns = bmap._unit.T.reshape(n, m, shape.dim)
    start = _ramp(shape)
    best = np.kron(*start)
    best_ratio = float(_image_ratios(bmap._unit @ best, layouts))
    for out in layouts:
        factors = list(start)
        for step in range(2 * PRODUCT_SEARCH_SWEEPS):
            side = step % 2
            # rows[k]: the image of the refined factor's k-th basis ket
            # times the fixed factor
            rows = np.tensordot(factors[1 - side], columns, axes=(0, 1 - side))
            res = svd((factors[side] @ rows).reshape(out.n, out.m))
            u1, v1h = res.left_basis[:, 0], res.right_basis[0, :]
            p = np.eye(out.n) - np.outer(u1, u1.conj())
            q = np.eye(out.m) - np.outer(v1h.conj(), v1h)
            off_top = (p @ rows.reshape(-1, out.n, out.m) @ q).reshape(len(rows), -1)
            r_plus = np.linalg.pinv(np.linalg.qr(rows.T, mode="r"))
            f = r_plus @ svd(off_top.T @ r_plus).right_basis[0, :].conj()
            norm = np.linalg.norm(f)
            if norm > 0.0:
                factors[side] = f / norm
            ratio = float(_image_ratios(factors[side] @ rows, layouts))
            if ratio > best_ratio:
                best, best_ratio = np.kron(*factors), ratio
    return _gate(bmap, WITNESS_PRODUCT_TO_ENTANGLED, best, shape, tol) if best_ratio > tol else None


def _fit_local(bmap: BipartiteMap, swap: bool, tol: float):
    """Fit L = A x B (swap=False) or S L = A x B (swap=True); return (A, B, error).

    R, the realignment of the unit-scale map to n^2 x m^2, is
    vec(A) vec(B)^T when the reading fits.  R is read from the matrix and
    scaled by 2^-k in the same pass, the bits of the unit-scale copy, which
    this fit never builds.  vec(A) is read off the largest column of R,
    then vec(B) and vec(A) are fitted once each by least squares; the
    error is ||R - vec(A) vec(B)^T||_F / ||R||_F.  Its square
    equals the energy deficit 1 - ||vec(A)||^2 / ||R||_F^2, whose rounding
    is about 1e-15: a deficit above tol (>= tol^2) is read as the error
    without forming the residual.  A and B are None unless error <= tol;
    then A is at unit scale, ||B||_F = 1 and the largest-modulus entry of
    A[:, 0] is real positive.  The zero map fits no reading.
    """
    n, m = bmap.shape.n, bmap.shape.m
    if swap:
        view = bmap.matrix.reshape(m, n, n, m).transpose(1, 2, 0, 3)
    else:
        view = bmap.matrix.reshape(n, m, n, m).transpose(0, 2, 1, 3)
    # realigned and scaled by 2^-k in one pass over the real and imaginary parts
    x = np.empty((n * n, 2 * m * m))
    np.ldexp(view.view(np.float64), -bmap._exponent, out=x.reshape(n, n, m, 2 * m))
    r = x.view(complex)
    energies = np.einsum("ij,ij->j", x, x).reshape(-1, 2).sum(axis=1)
    total = energies.sum()
    if not total > 0.0:
        return None, None, np.inf
    vb = r[:, np.argmax(energies)].conj() @ r
    vb /= np.linalg.norm(vb)
    va = r @ vb.conj()
    deficit = 1.0 - np.vdot(va, va).real / total
    if deficit > tol:
        return None, None, float(np.sqrt(deficit))
    # the residual R - vec(A) vec(B)^T goes into R itself, in blocks of at
    # least n rows and about 4096 entries, so no second n^2 x m^2 array is made
    block = max(n, 4096 // (m * m))
    for rows in range(0, n * n, block):
        r[rows : rows + block] -= np.outer(va[rows : rows + block], vb)
    err = float(np.sqrt(np.vdot(r, r).real / total))
    if not err <= tol:
        return None, None, err
    a, b = va.reshape(n, n), vb.reshape(m, m)
    top = a[np.argmax(np.abs(a[:, 0])), 0]
    phase = top / abs(top) if top else 1.0
    return a / phase, b * phase, err


def _block_beta(bmap: BipartiteMap, tol: float) -> float:
    """beta = 2 sqrt(2) tol nm of the block tests (block_beyond): a 2x2
    block of unit-scale entries with |det| > beta ||block||_F puts s_2 of
    any matrix holding it above twice tol times ||L||_F < sqrt(2) nm (see
    classify)."""
    return 2.0 * math.sqrt(2.0) * tol * bmap.shape.n * bmap.shape.m


def _first_image_entangled(bmap: BipartiteMap, tol: float) -> bool:
    """Whether the leading 2x2 block of the unit-scale image of |0,0>, read
    off column 0, is beyond a fit (block_beyond at _block_beta) in the
    layout (n, m) and for n != m in (m, n) too: proof that no reading fits
    and that |0,0> is the witness search's first witness (see classify)."""
    n, m = bmap.shape.n, bmap.shape.m
    column = bmap.matrix[: max(n, m) + 2, 0].tolist()
    k, beta = -bmap._exponent, _block_beta(bmap, tol)
    for stride in {m, n}:  # the row strides of the layouts (n, m) and (m, n)
        if not block_beyond(column[0], column[1], column[stride], column[stride + 1], k, beta):
            return False
    return True


def _first_row_entangled(bmap: BipartiteMap, tol: float) -> bool:
    """Whether the leading 2x2 block of row 0 of the map, as an n x m matrix
    in the input layout (entries L[0,0], L[0,1], L[0,m], L[0,m+1]), is
    beyond a fit (block_beyond at _block_beta): proof that neither reading
    fits.
    Rows (0,0), (0,1) and columns (0,0), (0,1) of the Local realignment
    R[(i,k),(j,l)] = L[i m + j, k m + l] and of the SwapLocal one hold
    those same four entries, for n = m and for n != m (see classify)."""
    m = bmap.shape.m
    row = bmap.matrix[0, : m + 2].tolist()
    return block_beyond(row[0], row[1], row[m], row[m + 1], -bmap._exponent, _block_beta(bmap, tol))


def _search_witness(bmap: BipartiteMap, tol: float) -> Witness | None:
    """The first witness found for a map that no reading accepts.

    Three fixed product states come first, in this order: |0,0>,
    (|0,0> + |1,0>)/sqrt(2) and the ramp (1, ..., n) x (1, ..., m),
    normalized (_ramp).  By the paper's theorem an invertible map that
    sends every product state to a product is Local or SwapLocal, so on a
    full-rank map that no reading accepts almost every fixed product state
    is a witness.  Then check_full_rank, on the
    cached spectrum; then the basis state whose image has the largest
    s_2 / s_1, the smallest over the layouts, from one values-only stacked
    SVD of the basis images per layout; last the product-state search.
    Each candidate takes the kind its image shows and is returned only when
    that image makes its claim (_gate): for n != m it must be entangled in
    both layouts, as a SwapLocal map entangles product states in the own
    layout too.  A candidate that makes no claim costs one matrix-vector
    product and one values-only spectrum of its image per layout it
    reaches, and builds no evidence.  |0,0> first is what makes the column
    block test of classify return this search's first witness.
    """
    shape = bmap.shape
    dim, m = shape.dim, shape.m
    first = _basis_ket(dim, 0)
    candidates = (
        first,
        (first + _basis_ket(dim, m)) / np.sqrt(2),
        np.kron(*_ramp(shape)),
    )
    found = (_gate(bmap, None, state, shape, tol) for state in candidates)
    witness = next(filter(None, found), None) or check_full_rank(bmap, tol)
    if witness is not None:
        return witness
    # the basis image farthest from a product in every layout
    basis = _basis_ket(dim, int(np.argmax(_image_ratios(bmap._unit.T, _layouts(shape)))))
    return _gate(bmap, None, basis, shape, tol) or _product_search_witness(bmap, tol)


def classify(bmap: BipartiteMap, tol: float = DEFAULT_RANK_TOL) -> QualitativeVerdict:
    """The realignment certificate for Local and then for SwapLocal; a map
    that neither reading accepts gets its witness from the fitted factors'
    kernel vector or the rank check when some reading fitted, and from the
    witness search otherwise.

    A Local verdict certifies ||L - A x B|| <= tol * ||L|| (Frobenius);
    SwapLocal certifies ||S L - A x B|| <= tol * ||L|| with S the
    relabeling from the recorded output shape.  A fitted reading is
    accepted exactly when its rank_ratio, s_min / s_max of A x B from one
    values-only SVD of each factor, exceeds tol; as both factor ratios are
    at most 1, this implies the rank check of A and of B.  A carries the
    map's scale and ||B||_F = 1, unless A times that scale would overflow:
    then A and B each take about half of it.  An accepted map never
    computes its own nm x nm spectrum, nor its unit-scale copy.

    Before either reading, the leading 2x2 block of the unit-scale image
    of |0,0>, four entries of column 0 scaled by 2^-k, is tested in the
    layout (n, m) and for n != m in (m, n) too (_first_image_entangled).
    Where every block has |det| > 2 sqrt(2) tol nm ||block||_F, no reading
    can fit: one that fits leaves the image within tol ||L||_F of a
    product, below sqrt(2) tol nm at unit scale, which bounds its s_2 (Weyl),
    and s_2 >= |det| / ||block||_F (Cauchy interlacing); the factor 2
    covers the fit's rounding.  The verdict is then NotPreserving with
    |0,0> as a ProductToEntangled witness, the one the witness search would
    return first, bit for bit, and the detail below; the fits and every
    later stage are skipped.  Its evidence reads column 0 times 2^-k, the
    bits of the search's image of |0,0>, and the vanishing test is skipped:
    the bound puts s_2 of that image above 2 tol ||L||_F.

    Otherwise the leading 2x2 block of row 0, as an n x m matrix in the
    input layout (L[0,0], L[0,1], L[0,m], L[0,m+1], scaled by 2^-k), is
    tested against the same bound (_first_row_entangled).  It is a 2x2
    block of both realignments: rows (0,0), (0,1) and columns (0,0), (0,1)
    of R[(i,k),(j,l)] = L[i m + j, k m + l] and of the SwapLocal
    realignment hold those four entries, for n = m and for n != m.  A
    reading that fits has s_2(R) <= tol ||R||_F < sqrt(2) tol nm
    (Eckart-Young), and s_2(R) >= |det| / ||block||_F (interlacing), so
    where the test fires each fit would return None: neither runs, and the
    witness search below runs as after two failed fits.  Elsewhere nothing
    changes.

    Once both readings miss, the verdict is NotPreserving and only its
    witness remains to be found.  A reading that fitted but failed its rank
    ratio shows that the map is A x B (or S (A x B)) and only invertibility
    failed, so the witness is kron(v_min(A), v_min(B)), the kernel vector
    of A x B from one full SVD of each factor (_factor_kernel), once its
    image vanishes; a vanishing image proves s_min <= tol * s_max of the
    map, so the verdict is the one the rank check would give.  Where it
    does not vanish, the rank check, which reads the spectrum, gives the
    map's own kernel vector, the last right singular vector of one full
    SVD.  Otherwise, and where the rank check finds full rank after all
    (near tol, below), the witness search finds it (_search_witness): three
    fixed product states, |0,0>, (|0,0> + |1,0>)/sqrt(2) and the
    normalized ramp, each a KernelVector where its image vanishes and
    ProductToEntangled otherwise; then the
    rank check once more; then the basis state whose image is farthest from
    a product; last the product-state search.  A fixed state that makes no
    claim costs one matrix-vector product and one values-only spectrum of
    its image per layout it reaches; only the witness takes the spectrum of
    its state too (_gate).  A map whose witness is the
    factors' kernel vector or one of the three fixed states never computes
    its spectrum unless that witness image falls between the vanishing
    test's two bounds, tol ||x|| / 2 and sqrt(2) nm tol ||x|| at unit
    scale; any other reject reads it in the rank check.  Before the rank
    check no SVD with vectors runs: every witness's Schmidt evidence reads
    values-only spectra.  No image table is built
    and no phase grid factored, so classify returns no NonFactorizablePhase
    witness.  detail reads "map is rank deficient" exactly when the witness
    is a KernelVector.

    A map no reading accepts is NotPreserving with a witness whose Schmidt
    evidence shows the violation (see the module docstring): a kernel
    state, or a product state with an entangled image.  When no earlier
    stage finds one, the product-state search does; when that fails too
    the witness is None and detail ends in "; no witness found".
    No random number is drawn: the whole verdict, witness included, depends
    on the map and tol alone; tol must lie in (0, 1) (ParamOutOfRange
    otherwise).

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
    if _first_image_entangled(bmap, tol):
        # that image, column 0 times 2^-k, has s_2 > 2 tol ||L||_F by the
        # block bound, so it does not vanish and _vanishing need not run
        state, k, out = _basis_ket(shape.dim, 0), bmap._exponent, shape.as_tuple()
        image = ldexp(bmap.matrix[:, 0], -k).reshape(out)
        ev = _schmidt_evidence(state, out, singular_values(image), out, k, tol)
        witness = Witness(WITNESS_PRODUCT_TO_ENTANGLED, state, ev)
        return QualitativeVerdict(KIND_NOT_PRESERVING, witness=witness, detail=DETAIL_NO_FIT)
    fitted = []
    readings = ((KIND_LOCAL, False), (KIND_SWAP_LOCAL, True))
    # where one block of row 0 proves that neither realignment fits, both
    # fits would return None: fitted stays empty
    for kind, swap in () if _first_row_entangled(bmap, tol) else readings:
        a, b, err = _fit_local(bmap, swap, tol)
        if a is None:
            continue
        # s_min / s_max of A x B, whose singular values are the products
        # s_i(A) s_j(B); A is nonzero, as its fit passed
        sa, sb = singular_values(a), singular_values(b)
        ratio = float(sa[-1] / sa[0] * (sb[-1] / sb[0]))
        if ratio > tol:
            k = k_a = bmap._exponent
            if k + part_exponent(a) > 1024:  # a part of A * 2^k would overflow
                k_a = k - k // 2
                b = ldexp(b, k // 2)
            return QualitativeVerdict(
                kind,
                ldexp(a, k_a),
                b,
                reconstruction_error=err,
                rank_ratio=ratio,
                output_shape=(shape.flipped() if swap else shape).as_tuple(),
                detail="factors certified by reconstruction",
            )
        fitted.append((a, b))
    # a map that factors failed only its rank: its factors' kernel vector,
    # else the map's own
    witness = next(filter(None, (_factor_kernel(bmap, a, b, tol) for a, b in fitted)), None)
    if witness is None and fitted:
        witness = check_full_rank(bmap, tol)
    if witness is None:
        witness = _search_witness(bmap, tol)
    if witness is None:
        detail = DETAIL_NO_FIT + "; no witness found"
    elif witness.kind == WITNESS_KERNEL:
        detail = "map is rank deficient"
    else:
        detail = DETAIL_NO_FIT
    return QualitativeVerdict(KIND_NOT_PRESERVING, witness=witness, detail=detail)
