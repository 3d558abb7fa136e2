import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from unitarity_kit import classifier, witness_reverifies
from unitarity_kit.classifier import (
    CASE_I,
    CASE_II,
    KIND_LOCAL,
    KIND_NOT_PRESERVING,
    KIND_SWAP_LOCAL,
    WITNESS_KERNEL,
    WITNESS_NONFACTORIZABLE_PHASE,
    WITNESS_PRODUCT_TO_ENTANGLED,
    BipartiteMap,
    Witness,
    build_image_table,
    check_full_rank,
    classify,
    extract_factors,
    factor_phase_grid,
)
from unitarity_kit.errors import ParamOutOfRange, ShapeMismatch, ZeroVector
from unitarity_kit.generators import (
    cnot_map,
    haar_unitary,
    perturb,
    random_invertible,
    random_local_map,
    random_schmidt_rank_state,
    split_rng,
)
from unitarity_kit.linalg import kron, ldexp, singular_values
from unitarity_kit.quantitative import check_E1, check_E2
from unitarity_kit.schmidt import (
    BipartiteShape,
    schmidt_decompose,
    schmidt_rank,
    swap_operator,
)


def local_map(n, m, seed, swap=False) -> BipartiteMap:
    return random_local_map((n, m), swap=swap, seed=seed, cond_cap=50)


def witness_checks_out(bmap: BipartiteMap, w: Witness) -> bool:
    # the image is taken under L / ||L||_2, so no norm under- or overflows;
    # it vanishes at most tol ||L||_2 ||x|| (tol = 1e-8), the library's rule.
    # A kernel witness is a state the map annihilates, whatever its rank,
    # and a product-state witness has an image entangled in every layout
    in_rank = schmidt_rank(w.state, w.evidence.input_shape)
    norm2 = bmap.singular_values[0]
    unit = bmap.matrix / norm2 if norm2 > 0.0 else bmap.matrix
    img = unit @ w.state
    if np.linalg.norm(img) <= 1e-8 * np.linalg.norm(w.state):
        return w.kind == WITNESS_KERNEL
    n, m = bmap.shape.n, bmap.shape.m
    img_rank = min(schmidt_rank(img, out) for out in {(n, m), (m, n)})
    return w.kind != WITNESS_KERNEL and in_rank == 1 and img_rank >= 2


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def same_witness(w: Witness | None, ref: Witness | None) -> bool:
    """Kind, state and Schmidt evidence equal bit for bit."""
    if w is None or ref is None:
        return w is ref
    ev, ref_ev = w.evidence, ref.evidence
    return (
        w.kind == ref.kind
        and same_bits(w.state, ref.state)
        and (ev.input_rank, ev.input_shape, ev.image_rank, ev.image_shape)
        == (ref_ev.input_rank, ref_ev.input_shape, ref_ev.image_rank, ref_ev.image_shape)
        and same_bits(ev.input_coefficients, ref_ev.input_coefficients)
        and same_bits(ev.image_coefficients, ref_ev.image_coefficients)
    )


def same_verdict(v, ref) -> bool:
    return (
        (v.kind, v.detail, v.output_shape, v.reconstruction_error, v.rank_ratio)
        == (ref.kind, ref.detail, ref.output_shape, ref.reconstruction_error, ref.rank_ratio)
        and same_bits(v.a, ref.a)
        and same_bits(v.b, ref.b)
        and same_witness(v.witness, ref.witness)
    )


# ---------------------------------------------------------------------------
# full rank

def test_full_rank_accepts_identity():
    bmap = BipartiteMap(np.eye(4, dtype=complex), BipartiteShape(2, 2))
    assert check_full_rank(bmap) is None


def test_rank_deficient_projector_yields_kernel_witness():
    # the projector kills |1,1>, which is the witness up to a phase
    bmap = BipartiteMap(np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex), BipartiteShape(2, 2))
    w = check_full_rank(bmap)
    assert w is not None and w.kind == WITNESS_KERNEL
    np.testing.assert_allclose(np.abs(w.state), [0, 0, 0, 1])
    assert witness_checks_out(bmap, w)


def test_product_kernel_vector_is_its_own_witness():
    # L kills the product state |0,0>: the claim is that the map annihilates
    # it, so the kernel vector itself is the witness, with image rank 0
    bmap = BipartiteMap(np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex), BipartiteShape(2, 2))
    w = check_full_rank(bmap)
    assert w is not None and w.kind == WITNESS_KERNEL
    np.testing.assert_allclose(np.abs(w.state), [1, 0, 0, 0])
    assert (w.evidence.input_rank, w.evidence.image_rank) == (1, 0)
    assert w.evidence.image_coefficients.size == 0
    assert witness_checks_out(bmap, w)
    assert witness_reverifies(bmap, w)


def test_spectrum_is_cached_on_the_map():
    bmap = local_map(2, 3, seed=4)
    s = bmap.singular_values
    assert bmap.singular_values is s
    np.testing.assert_allclose(s, np.linalg.svd(bmap.matrix, compute_uv=False))


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, -np.inf)])
def test_bipartite_map_refuses_non_finite_entries(bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ParamOutOfRange):
        BipartiteMap(m, BipartiteShape(2, 2))


def test_zero_map_is_rejected_with_witness():
    bmap = BipartiteMap(np.zeros((4, 4), dtype=complex), BipartiteShape(2, 2))
    w = check_full_rank(bmap)
    assert w is not None and w.kind == WITNESS_KERNEL
    assert w.evidence.image_rank == 0
    assert witness_checks_out(bmap, w)


def kernel_entangled_map(n, m, seed, scale=1.0) -> BipartiteMap:
    """A local map after the projector that kills one entangled state."""
    k = random_schmidt_rank_state((n, m), min(n, m), seed=seed)
    local = kron(
        random_invertible(n, seed=seed + 1, cond_cap=30),
        random_invertible(m, seed=seed + 2, cond_cap=30),
    )
    matrix = local @ (np.eye(n * m) - np.outer(k, k.conj()))
    return BipartiteMap(scale * matrix, BipartiteShape(n, m))


def evidence(bmap: BipartiteMap, state: np.ndarray, image_shape, tol: float = 1e-8):
    """The Schmidt evidence of a state and of its image in the layout
    image_shape under the unit-scale map, whether or not it makes a claim."""
    image = (bmap._unit @ state).reshape(image_shape)
    shape, k = bmap.shape.as_tuple(), bmap._exponent
    return classifier._schmidt_evidence(state, shape, singular_values(image), tuple(image_shape), k, tol)


def svd_calls(monkeypatch) -> list:
    """Record (shape, compute_uv) of every np.linalg.svd call from here on."""
    calls = []
    real_svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("n,m", [(4, 4), (6, 6), (16, 16)])
def test_simple_kernel_vector_matches_svd_up_to_phase(n, m, scale):
    bmap = kernel_entangled_map(n, m, seed=40 + n * m, scale=scale)
    reference = np.linalg.svd(bmap.matrix)[2][-1].conj()
    w = check_full_rank(bmap)
    assert w.kind == WITNESS_KERNEL and w.evidence.input_rank >= 2
    overlap = np.vdot(reference, w.state)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(w.state, overlap / abs(overlap) * reference, rtol=0, atol=1e-12)
    assert witness_checks_out(bmap, w)
    assert witness_reverifies(bmap, w)


def kernel_product_map() -> BipartiteMap:
    a = random_invertible(3, seed=50, cond_cap=30)
    u, s, vh = np.linalg.svd(a)
    s[-1] = 0.0
    b = random_invertible(2, seed=51, cond_cap=30)
    return BipartiteMap(kron((u * s) @ vh, b), BipartiteShape(3, 2))


@pytest.mark.parametrize(
    "make",
    [
        kernel_product_map,
        lambda: zero_column_map(),
        lambda: BipartiteMap(np.diag([2.0, 1.0, 0.0, 3.0]).astype(complex), BipartiteShape(2, 2)),
    ],
    ids=["kernel-product", "zero-column", "diagonal-zero"],
)
def test_kernel_vector_comes_from_the_full_svd(monkeypatch, make):
    # whatever the kernel's dimension, the witness is the last right
    # singular vector of one full SVD of the unit-scale map, product or
    # entangled, with a vanishing image
    bmap = make()
    kernel = np.linalg.svd(bmap._unit, full_matrices=False)[2][-1].conj()
    calls = svd_calls(monkeypatch)
    w = check_full_rank(BipartiteMap(bmap.matrix, bmap.shape))
    assert ((bmap.shape.dim, bmap.shape.dim), True) in calls
    assert w.kind == WITNESS_KERNEL
    np.testing.assert_array_equal(w.state, kernel)
    assert w.evidence.image_rank == 0 and w.evidence.image_coefficients.size == 0
    assert w.evidence.input_rank == schmidt_rank(kernel, bmap.shape)
    assert witness_checks_out(bmap, w)
    assert witness_reverifies(bmap, w)


def test_kernel_entangled_map_makes_no_full_svd_of_the_map(monkeypatch):
    # an entangled basis image of row 0 is the witness, before any rank check
    bmap = kernel_entangled_map(6, 6, seed=60)
    calls = svd_calls(monkeypatch)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
    assert ((36, 36), True) not in calls
    assert witness_checks_out(bmap, v.witness)


def near_singular_local_maps():
    """A x B maps, A with s_min / s_max in {0, 1e-12, 1e-9, 1e-7} and
    complex Gaussian directions, shapes from (2, 2) to (4, 4)."""
    rng = np.random.default_rng(99)
    for k in range(200):
        n, m = (int(x) for x in rng.integers(2, 5, size=2))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        u, s, vh = np.linalg.svd(a)
        s = s / s[0]
        s[-1] = (0.0, 1e-12, 1e-9, 1e-7)[k % 4]
        yield BipartiteMap(kron((u * s) @ vh, b), BipartiteShape(n, m))


def test_rank_deficient_local_map_witness_reverifies():
    # the kernel vector is a product, and the map annihilates it
    rejects = 0
    for bmap in near_singular_local_maps():
        v = classify(bmap)
        if v.kind != KIND_NOT_PRESERVING:
            continue
        rejects += 1
        assert v.witness is not None and v.detail == "map is rank deficient"
        assert v.witness.kind == WITNESS_KERNEL and v.witness.evidence.image_rank == 0
        assert witness_reverifies(bmap, v.witness)
    assert rejects > 100


def kernel_entangled_maps():
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3)):
        for seed in range(4):
            yield kernel_entangled_map(n, m, seed=10 * seed + n * m)


def test_every_classify_witness_reverifies_in_both_layouts():
    # near-singular local maps, kernel-entangled maps and maps whose basis
    # images are products: every witness makes its claim, for n != m in
    # both layouts
    shapes, kinds = set(), set()
    for bmap in (*near_singular_local_maps(), *kernel_entangled_maps(), *product_image_maps()):
        v = classify(bmap)
        if v.kind != KIND_NOT_PRESERVING:
            continue
        assert v.witness is not None, bmap.shape
        assert witness_reverifies(bmap, v.witness)
        assert witness_checks_out(bmap, v.witness)
        shapes.add(bmap.shape.as_tuple())
        kinds.add(v.witness.kind)
    assert {(2, 3), (3, 2)} <= shapes
    assert {WITNESS_KERNEL, WITNESS_PRODUCT_TO_ENTANGLED} <= kinds


@pytest.mark.parametrize("image_shape", [(2, 3), (3, 2)])
def test_witness_reverifies_refuses_an_image_entangled_in_one_layout(image_shape):
    # a SwapLocal 2x3 map sends every product state to a product in (3, 2),
    # while in its own layout (2, 3) it entangles a generic one
    bmap = local_map(2, 3, seed=9, swap=True)
    state = np.kron([1.0, 2.0], [1.0, 2.0, 3.0]).astype(complex)
    state /= np.linalg.norm(state)
    image = bmap.matrix @ state
    assert schmidt_rank(image, (2, 3)) == 2 and schmidt_rank(image, (3, 2)) == 1
    ev = evidence(bmap, state, image_shape)
    assert (ev.input_rank, ev.image_rank) == (1, 2 if image_shape == (2, 3) else 1)
    for kind in (WITNESS_PRODUCT_TO_ENTANGLED, WITNESS_NONFACTORIZABLE_PHASE, WITNESS_KERNEL):
        assert not witness_reverifies(bmap, Witness(kind, state, ev))


def test_witness_reverifies_takes_any_state_the_map_annihilates():
    # a kernel witness claims a vanishing image, whatever the state's rank
    bmap = BipartiteMap(np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex), BipartiteShape(2, 2))
    for state in ([1, 0, 0, 0], np.array([1, 0, 0, 1]) / np.sqrt(2)):
        state = np.asarray(state, dtype=complex)
        w = Witness(WITNESS_KERNEL, state, evidence(bmap, state, (2, 2)))
        assert witness_reverifies(bmap, w)
        assert not witness_reverifies(bmap, Witness(WITNESS_PRODUCT_TO_ENTANGLED, state, w.evidence))
    # |0,1> keeps a nonzero product image: no claim of either kind
    state = np.array([0, 1, 0, 0], dtype=complex)
    ev = evidence(bmap, state, (2, 2))
    for kind in (WITNESS_KERNEL, WITNESS_PRODUCT_TO_ENTANGLED):
        assert not witness_reverifies(bmap, Witness(kind, state, ev))


@pytest.mark.parametrize(
    "state,error",
    [(np.zeros(4), ZeroVector), (np.ones(6), ShapeMismatch), (np.ones((2, 2)), ShapeMismatch)],
    ids=["zero", "wrong-dim", "matrix"],
)
def test_witness_reverifies_refuses_a_state_that_is_no_witness(state, error):
    # the zero state is annihilated by every map, so it claims nothing
    bmap = BipartiteMap(np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex), BipartiteShape(2, 2))
    ev = evidence(bmap, np.eye(4, dtype=complex)[0], (2, 2))
    with pytest.raises(error):
        witness_reverifies(bmap, Witness(WITNESS_KERNEL, state, ev))


def test_witness_reverifies_refuses_an_image_layout_of_the_wrong_dimension():
    bmap = cnot_map()
    w = classify(bmap).witness
    assert witness_reverifies(bmap, w)
    wrong = dataclasses.replace(w.evidence, image_shape=(3, 3))
    for kind in (WITNESS_PRODUCT_TO_ENTANGLED, WITNESS_KERNEL):
        with pytest.raises(ShapeMismatch):
            witness_reverifies(bmap, Witness(kind, w.state, wrong))


@pytest.mark.parametrize("kind", [None, "Bogus"])
def test_witness_reverifies_infers_no_kind(kind):
    # the kind is the claim: none is read off the image, not even where a
    # ProductToEntangled or KernelVector claim would hold
    bmap = cnot_map()
    w = classify(bmap).witness
    assert not witness_reverifies(bmap, Witness(kind, w.state, w.evidence))
    kernel = BipartiteMap(np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex), BipartiteShape(2, 2))
    state = np.eye(4, dtype=complex)[0]
    assert not witness_reverifies(kernel, Witness(kind, state, evidence(kernel, state, (2, 2))))


# ---------------------------------------------------------------------------
# image table and case detection

def test_image_table_for_local_map():
    bmap = local_map(2, 3, seed=1)
    table = build_image_table(bmap)
    assert not isinstance(table, Witness)
    # d vectors constant along rows, up to phase
    for i in range(2):
        for j in range(3):
            assert abs(np.vdot(table.d_vecs[i, j], table.d_vecs[i, 0])) >= 1 - 1e-10


def test_image_table_flags_entangling_column():
    m = np.eye(4, dtype=complex)
    m[:, 0] = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    bmap = BipartiteMap(m, BipartiteShape(2, 2))
    w = build_image_table(bmap)
    assert isinstance(w, Witness)
    assert w.kind == WITNESS_PRODUCT_TO_ENTANGLED
    np.testing.assert_allclose(w.state, [1, 0, 0, 0])
    assert witness_checks_out(bmap, w)


def reference_image_table(bmap: BipartiteMap, out: BipartiteShape):
    """Per-column Schmidt decompositions in row-major basis order: the first
    zero or entangled column as ((i, j), kind), else the decompositions."""
    n, m = bmap.shape.n, bmap.shape.m
    decs = {}
    for i in range(n):
        for j in range(m):
            col = bmap.matrix[:, i * m + j]
            if np.linalg.norm(col) == 0.0:
                return (i, j), WITNESS_KERNEL
            dec = schmidt_decompose(col, out)
            if dec.rank >= 2:
                return (i, j), WITNESS_PRODUCT_TO_ENTANGLED
            decs[i, j] = dec
    return decs


def generalized_cnot(n: int) -> BipartiteMap:
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[i * n + (j + i) % n, i * n + j] = 1.0
    return BipartiteMap(m, BipartiteShape(n, n))


def zero_column_map() -> BipartiteMap:
    m = local_map(2, 3, seed=13).matrix.copy()
    m[:, 1 * 3 + 2] = 0.0
    return BipartiteMap(m, BipartiteShape(2, 3))


def near_tol_column_map() -> BipartiteMap:
    """A 3x3 local map whose basis image (1, 1) has s2 = s3 = 0.8 tol: rank 1
    by its spectrum, though its Frobenius distance to the nearest product,
    about sqrt(2) * 0.8 tol, is above tol."""
    base = local_map(3, 3, seed=70).matrix.copy()
    image = haar_unitary(3, seed=71) @ np.diag([1.0, 0.8e-8, 0.8e-8]) @ haar_unitary(3, seed=72)
    base[:, 1 * 3 + 1] = image.reshape(-1) * np.linalg.norm(base[:, 4])
    return BipartiteMap(base, BipartiteShape(3, 3))


@pytest.mark.parametrize(
    "bmap,out",
    [
        (local_map(2, 3, seed=14), (2, 3)),
        (local_map(2, 3, seed=15, swap=True), (3, 2)),
        (local_map(2, 3, seed=15, swap=True), (2, 3)),
        (generalized_cnot(3), (3, 3)),
        (BipartiteMap(haar_unitary(9, seed=16), BipartiteShape(3, 3)), (3, 3)),
        (zero_column_map(), (2, 3)),
        (near_tol_column_map(), (3, 3)),
        # SwapLocal: |0,0> has an image entangled in (2, 3) alone
        (random_local_map((2, 3), swap=True, seed=1), (2, 3)),
    ],
)
def test_stacked_image_table_matches_per_column_reference(monkeypatch, bmap, out):
    out = BipartiteShape(*out)
    n, m = bmap.shape.n, bmap.shape.m
    ref = reference_image_table(bmap, out)
    calls = svd_calls(monkeypatch)
    table = build_image_table(bmap, output_shape=out)
    # one stacked SVD with vectors; only the first image that is not rank 1
    # takes more, to judge its claim
    assert calls[0] == ((n, m, out.n, out.m), True)
    if not isinstance(ref, dict):
        (i, j), kind = ref
        col = bmap.matrix[:, i * m + j]
        if table is None:
            # an image entangled in out alone, for n != m, claims nothing
            assert kind == WITNESS_PRODUCT_TO_ENTANGLED and n != m
            assert schmidt_rank(col, out.flipped()) == 1
            return
        assert table.kind == kind
        np.testing.assert_array_equal(table.state, np.eye(n * m)[i * m + j])
        image_rank = 0 if kind == WITNESS_KERNEL else schmidt_rank(col, out)
        assert (table.evidence.input_rank, table.evidence.image_rank) == (1, image_rank)
        assert witness_reverifies(bmap, table)
        return
    assert len(calls) == 1
    for (i, j), dec in ref.items():
        d, e = table.d_vecs[i, j], table.e_vecs[i, j]
        assert abs(np.vdot(dec.left_vectors[:, 0], d)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(dec.right_vectors[:, 0], e)) == pytest.approx(1.0, abs=1e-12)
        col = bmap.matrix[:, i * m + j]
        assert table.amps[i, j] == pytest.approx(np.vdot(np.kron(d, e), col), abs=1e-12)
        np.testing.assert_allclose(table.amps[i, j] * np.kron(d, e), col, atol=1e-12)


def test_controlled_phase_table_makes_one_stacked_svd(monkeypatch):
    # every basis image of a controlled-phase map is a product: the table
    # builds from the one stacked SVD with vectors and runs no other
    phases = np.exp(2j * np.pi * np.linspace(0.1, 0.9, 16) ** 2)
    bmap = BipartiteMap(local_map(4, 4, seed=80).matrix * phases, BipartiteShape(4, 4))
    calls = svd_calls(monkeypatch)
    table = build_image_table(bmap)
    assert not isinstance(table, Witness)
    assert calls == [((4, 4, 4, 4), True)]
    assert table.amps.shape == table.d_vecs.shape[:2] == table.e_vecs.shape[:2] == (4, 4)
    for i in range(4):
        for j in range(4):
            image = table.amps[i, j] * np.kron(table.d_vecs[i, j], table.e_vecs[i, j])
            np.testing.assert_allclose(image, bmap.matrix[:, i * 4 + j], atol=1e-12)


def test_cnot_table_builds_but_cases_fail():
    # every basis image of CNOT is a product, but neither reading's factors
    # and grid rebuild the map: L|i,j> = grid[i,j] A e_i (x) B e_j in Case I,
    # and with the output factors swapped in Case II
    def rebuilt(table, case):
        a, b, grid = extract_factors(table, case)
        n, m = grid.shape
        cells = [(i, j) for i in range(n) for j in range(m)]
        pairs = [(a[:, i], b[:, j]) if case == CASE_I else (b[:, j], a[:, i]) for i, j in cells]
        return np.stack([kron(*pair) for pair in pairs], axis=1) * grid.ravel()

    bmap = cnot_map()
    table = build_image_table(bmap)
    assert not isinstance(table, Witness)
    for case in (CASE_I, CASE_II):
        assert not np.allclose(rebuilt(table, case), bmap.matrix, atol=1e-6)
    local = local_map(2, 2, seed=2)
    np.testing.assert_allclose(rebuilt(build_image_table(local), CASE_I), local.matrix, atol=1e-10)


def test_extract_factors_round_trip_unit_gauge():
    # unitary columns already unit length; gauge each to compare directly
    rng = split_rng(5, 0)
    a0 = haar_unitary(2, rng)
    b0 = haar_unitary(3, rng)
    for mat, d in ((a0, 2), (b0, 3)):
        for k in range(d):
            col = mat[:, k]
            top = col[np.argmax(np.abs(col))]
            mat[:, k] = col / (top / abs(top))
    bmap = BipartiteMap(kron(a0, b0), BipartiteShape(2, 3))
    table = build_image_table(bmap)
    a, b, grid = extract_factors(table, CASE_I)
    np.testing.assert_allclose(grid, np.ones((2, 3)), atol=1e-10)
    np.testing.assert_allclose(a, a0, atol=1e-10)
    np.testing.assert_allclose(b, b0, atol=1e-10)


def test_extract_factors_round_trip_swapped_unit_gauge():
    # L = (B0 x A0) S: the images factor in the layout (3, 2), A0 follows
    # the row index through e and B0 the column index through d (Case II)
    rng = split_rng(7, 0)
    a0, b0 = haar_unitary(2, rng), haar_unitary(3, rng)
    for mat in (a0, b0):
        mat /= mat[np.argmax(np.abs(mat), axis=0), np.arange(len(mat))] / np.abs(mat).max(axis=0)
    bmap = BipartiteMap(kron(b0, a0) @ swap_operator((2, 3)), BipartiteShape(2, 3))
    table = build_image_table(bmap, output_shape=(3, 2))
    assert not isinstance(table, Witness)
    a, b, grid = extract_factors(table, CASE_II)
    np.testing.assert_allclose(grid, np.ones((2, 3)), atol=1e-10)
    np.testing.assert_allclose(a, a0, atol=1e-10)
    np.testing.assert_allclose(b, b0, atol=1e-10)


def test_extract_factors_diagonal_phases_land_in_grid():
    # a phase map diagonal in the input product basis, then a local unitary
    rng = split_rng(6, 0)
    a0, b0 = haar_unitary(2, rng), haar_unitary(2, rng)
    phases = np.exp(2j * np.pi * rng.uniform(size=4))
    bmap = BipartiteMap(kron(a0, b0) @ np.diag(phases), BipartiteShape(2, 2))
    table = build_image_table(bmap)
    assert not isinstance(table, Witness)
    _, _, grid = extract_factors(table, CASE_I)
    np.testing.assert_allclose(np.abs(grid), np.ones((2, 2)), atol=1e-10)


def test_extract_factors_identity_map():
    bmap = BipartiteMap(np.eye(6, dtype=complex), BipartiteShape(2, 3))
    a, b, grid = extract_factors(build_image_table(bmap), CASE_I)
    np.testing.assert_allclose(a, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(b, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(grid, np.ones((2, 3)), atol=1e-12)


# ---------------------------------------------------------------------------
# phase grid

def test_phase_grid_rank_one_factors():
    mu, nu = factor_phase_grid(np.array([[1.0, 2.0], [3.0, 6.0]], dtype=complex))
    np.testing.assert_allclose(np.outer(mu, nu), [[1, 2], [3, 6]], atol=1e-12)
    assert mu[0].imag == pytest.approx(0.0, abs=1e-12)
    assert mu[0].real > 0


def test_phase_grid_all_ones():
    mu, nu = factor_phase_grid(np.ones((3, 3), dtype=complex))
    np.testing.assert_allclose(np.outer(mu, nu), np.ones((3, 3)), atol=1e-12)


def test_phase_grid_rejects_with_rank_two_witness():
    w = factor_phase_grid(np.array([[1.0, 2.0], [3.0, 5.0]], dtype=complex))
    assert isinstance(w, Witness)
    expected = np.kron([1, 1], [1, 1]) / 2.0
    np.testing.assert_allclose(w.state, expected)
    assert w.evidence.image_rank == 2


@pytest.mark.parametrize("scale", [1.0, 1e5, 1e-200])
def test_phase_grid_witness_carries_the_grid_image_coefficients(scale):
    # the image coefficients come back at the grid's own scale
    grid = scale * np.array([[1.0, 2.0, 1.0], [3.0, 5.0, 1.0], [1.0, 1.0, 7.0]], dtype=complex)
    w = factor_phase_grid(grid)
    assert isinstance(w, Witness)
    expected = np.linalg.svd((grid.reshape(-1) * w.state).reshape(3, 3), compute_uv=False)
    np.testing.assert_allclose(w.evidence.image_coefficients, expected[: w.evidence.image_rank], rtol=1e-12)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_phase_grid_refuses_non_finite_entries(bad):
    with pytest.raises(ParamOutOfRange):
        factor_phase_grid(np.array([[1.0, 2.0], [3.0, bad]], dtype=complex))


# ---------------------------------------------------------------------------
# classify

def test_classify_local_unitaries():
    rng = split_rng(7, 0)
    bmap = BipartiteMap(kron(haar_unitary(3, rng), haar_unitary(3, rng)), BipartiteShape(3, 3))
    v = classify(bmap)
    assert v.kind == KIND_LOCAL
    assert v.reconstruction_error <= 1e-9
    np.testing.assert_allclose(kron(v.a, v.b), bmap.matrix, atol=1e-9)


def test_classify_swap_local():
    bmap = local_map(2, 2, seed=8, swap=True)
    v = classify(bmap)
    assert v.kind == KIND_SWAP_LOCAL
    assert v.output_shape == (2, 2)
    np.testing.assert_allclose(
        kron(v.a, v.b), swap_operator((2, 2)) @ bmap.matrix, atol=1e-8
    )


def test_classify_rectangular_swap_local_records_output_shape():
    bmap = local_map(2, 3, seed=9, swap=True)
    v = classify(bmap)
    assert v.kind == KIND_SWAP_LOCAL
    assert v.output_shape == (3, 2)
    assert v.a.shape == (2, 2) and v.b.shape == (3, 3)
    np.testing.assert_allclose(
        kron(v.a, v.b), swap_operator((3, 2)) @ bmap.matrix, atol=1e-8
    )


def test_classify_cnot_yields_spec_witness():
    v = classify(cnot_map())
    assert v.kind == KIND_NOT_PRESERVING
    w = v.witness
    assert w.kind == WITNESS_PRODUCT_TO_ENTANGLED
    # (|0> + |1>) (x) |0>, whose image is the maximally entangled state
    np.testing.assert_allclose(np.abs(w.state), [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0], atol=1e-12)
    np.testing.assert_allclose(w.evidence.image_coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert witness_checks_out(cnot_map(), w)


def test_classify_swap_operator_itself():
    bmap = BipartiteMap(swap_operator((3, 3)), BipartiteShape(3, 3))
    v = classify(bmap)
    assert v.kind == KIND_SWAP_LOCAL
    # factors are the identity up to the phase/scale gauge
    for factor in (v.a, v.b):
        scaled = factor / factor[0, 0]
        np.testing.assert_allclose(scaled, np.eye(3), atol=1e-9)


def test_classify_is_gauge_invariant():
    bmap = local_map(3, 2, seed=10)
    v1 = classify(bmap)
    rescaled = BipartiteMap(0.7 * np.exp(1.3j) * bmap.matrix, bmap.shape)
    v2 = classify(rescaled)
    assert v1.kind == v2.kind == KIND_LOCAL
    np.testing.assert_allclose(
        kron(v2.a, v2.b), rescaled.matrix, atol=1e-8 * np.linalg.norm(rescaled.matrix)
    )


def test_classify_perturbed_local_map_with_verified_witness():
    rng = split_rng(11, 0)
    for _ in range(10):
        base = local_map(3, 3, seed=rng)
        noisy = perturb(base, 1e-2, seed=rng)
        v = classify(noisy)
        assert v.kind == KIND_NOT_PRESERVING
        assert v.witness is not None
        assert witness_checks_out(noisy, v.witness)


def test_classify_not_preserving_witnesses_reverify():
    maps = [
        cnot_map(),
        BipartiteMap(cnot_map().matrix @ swap_operator((2, 2)), BipartiteShape(2, 2)),
        BipartiteMap(haar_unitary(6, seed=3), BipartiteShape(2, 3)),
    ]
    for bmap in maps:
        v = classify(bmap)
        assert v.kind == KIND_NOT_PRESERVING
        assert v.witness is not None
        assert witness_checks_out(bmap, v.witness)


def test_verdict_near_tolerance_does_not_depend_on_seed():
    # reconstruction error about 4.4e-9, just under tol: the certificate
    # alone decides, where seeded spot checks used to flip the verdict
    bmap = perturb(random_local_map((2, 3), seed=33), 5e-9, seed=1033)
    v = classify(bmap)
    assert v.kind == KIND_LOCAL
    assert v.reconstruction_error <= 1e-8


def test_classify_reject_is_deterministic(monkeypatch):
    # just above tol neither a fixed candidate nor a basis state is a
    # witness, so the product-state search finds one; it draws no random
    # numbers and gives the same witness on every call
    bmap = perturb(random_local_map((2, 2), seed=1007, cond_cap=1e3), 1.5e-8, seed=32)
    found = []
    search = classifier._product_search_witness

    def recorded_search(*args):
        found.append(search(*args))
        return found[-1]

    def no_rng(*args, **kwargs):
        raise AssertionError("classify drew random numbers")

    monkeypatch.setattr(classifier, "_product_search_witness", recorded_search)
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    v1, v2 = classify(bmap), classify(bmap)
    assert len(found) == 2 and found[0] is v1.witness
    assert v1.kind == v2.kind == KIND_NOT_PRESERVING
    assert v1.witness.kind == v2.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
    np.testing.assert_array_equal(v1.witness.state, v2.witness.state)
    np.testing.assert_array_equal(
        v1.witness.evidence.image_coefficients, v2.witness.evidence.image_coefficients
    )
    assert witness_checks_out(bmap, v1.witness)


def test_classify_has_no_seed():
    with pytest.raises(TypeError):
        classify(cnot_map(), seed=1)


def entangled_in_every_layout(bmap: BipartiteMap, state: np.ndarray) -> bool:
    image = bmap.matrix @ state
    n, m = bmap.shape.n, bmap.shape.m
    return all(schmidt_rank(image, out) >= 2 for out in {(n, m), (m, n)})


def controlled_shift(n: int, m: int) -> np.ndarray:
    """|i, j> -> |i, j + i mod m>: the generalized CNOT on n x m."""
    c = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(m):
            c[i * m + (i + j) % m, i * m + j] = 1.0
    return c


def search_maps():
    """Maps every product-state search must refute: generalized CNOTs and
    their transposes, controlled-phase diagonals and Haar unitaries."""
    for n in range(2, 5):
        for m in range(2, 9):
            shape = BipartiteShape(n, m)
            cnot = controlled_shift(n, m)
            phases = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(m)).ravel() / (n * m))
            yield pytest.param(BipartiteMap(cnot, shape), id=f"cnot-{n}x{m}")
            yield pytest.param(BipartiteMap(cnot.T, shape), id=f"cnot-transposed-{n}x{m}")
            yield pytest.param(BipartiteMap(np.diag(phases), shape), id=f"cphase-{n}x{m}")
            yield pytest.param(BipartiteMap(haar_unitary(n * m, seed=10 * n + m), shape), id=f"haar-{n}x{m}")


@pytest.mark.parametrize("bmap", search_maps())
def test_product_search_finds_a_witness_entangled_in_every_layout(bmap):
    w = classifier._product_search_witness(bmap, 1e-8)
    assert w is not None and w.kind == WITNESS_PRODUCT_TO_ENTANGLED
    assert w.evidence.input_rank == 1 and w.evidence.image_rank >= 2
    assert witness_reverifies(bmap, w)
    assert entangled_in_every_layout(bmap, w.state)


@pytest.mark.parametrize("ratio", [0.0, 1e-12, 1e-3])
@pytest.mark.parametrize("seed", range(4))
def test_product_search_on_a_singular_product_map_finds_nothing(ratio, seed):
    # A (x) B sends every product state to a product, so no witness exists;
    # with A singular the search's triangular factors are singular too
    u, s, vh = np.linalg.svd(random_invertible(2, seed=seed))
    s[-1] = ratio * s[0]
    bmap = BipartiteMap(kron((u * s) @ vh, random_invertible(3, seed=seed + 7)), BipartiteShape(2, 3))
    w = classifier._product_search_witness(bmap, 1e-8)
    assert w is None or witness_reverifies(bmap, w) and entangled_in_every_layout(bmap, w.state)


def test_product_search_on_the_zero_map_finds_nothing():
    zero = BipartiteMap(np.zeros((6, 6), dtype=complex), BipartiteShape(2, 3))
    assert classifier._product_search_witness(zero, 1e-8) is None


def test_classify_without_a_witness_says_so(monkeypatch):
    bmap = perturb(random_local_map((2, 2), seed=1007, cond_cap=1e3), 1.5e-8, seed=32)
    monkeypatch.setattr(classifier, "_product_search_witness", lambda *args: None)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.witness is None
    assert v.detail == "no local or swap-local decomposition fits; no witness found"


@pytest.mark.parametrize("shape", [(3, 2), (4, 3)])
@pytest.mark.parametrize("eps", [1.5e-8, 2e-8])
def test_uneven_witnesses_refute_both_layouts(shape, eps):
    # every SwapLocal map entangles product states in its own layout, so a
    # witness of an n != m map must be entangled in (m, n) as well
    for s in range(15):
        bmap = perturb(random_local_map(shape, swap=True, seed=s), eps, seed=s + 1000)
        v = classify(bmap)
        if v.kind != KIND_NOT_PRESERVING:
            continue
        assert witness_reverifies(bmap, v.witness)
        if v.witness.kind != WITNESS_KERNEL:
            assert entangled_in_every_layout(bmap, v.witness.state)


@pytest.mark.parametrize("scale", [1e-300, 1e-180, 1e200, 1e300])
@pytest.mark.parametrize("n,m,swap", [(3, 3, False), (3, 3, True), (2, 3, False), (2, 3, True)])
def test_classify_local_map_at_extreme_scale(scale, n, m, swap):
    # squared entries underflow from 1e-180 and overflow from 1e200
    base = local_map(n, m, seed=18, swap=swap)
    v = classify(BipartiteMap(scale * base.matrix, base.shape))
    assert v.kind == (KIND_SWAP_LOCAL if swap else KIND_LOCAL)
    assert v.reconstruction_error <= 1e-10
    reference = swap_operator(v.output_shape) @ base.matrix if swap else base.matrix
    np.testing.assert_allclose(kron(v.a, v.b) / scale, reference, atol=1e-8)


def test_classify_splits_the_scale_where_a_would_overflow():
    # largest part 9.4e307: A at unit scale times 2^1024 would overflow, so A
    # and B take 2^512 each, and the checks the CLI runs on them return
    base = random_local_map((3, 3), seed=0).matrix
    bmap = BipartiteMap(base * 1.7e308, BipartiteShape(3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = classify(bmap)
    assert v.kind == KIND_LOCAL
    assert np.isfinite(v.a).all() and np.isfinite(v.b).all()
    assert np.linalg.norm(v.b) == pytest.approx(2.0**512, rel=1e-12)
    np.testing.assert_allclose(kron(v.a, v.b) / 1.7e308, base, atol=1e-10)
    for check in (check_E1, check_E2):
        assert not check(v.a, v.b).preserved
    # two binades lower A takes the whole scale, as wherever it stays finite
    lower = classify(BipartiteMap(ldexp(bmap.matrix, -2), bmap.shape))
    np.testing.assert_array_equal(lower.b, classify(BipartiteMap(ldexp(bmap.matrix, -600), bmap.shape)).b)
    assert np.linalg.norm(lower.b) == pytest.approx(1.0, abs=1e-12)


def table_phase_witness(bmap: BipartiteMap):
    """The phase grid of the map's Case I reading, from its image table,
    factored or refuted by factor_phase_grid."""
    return factor_phase_grid(extract_factors(build_image_table(bmap), CASE_I)[2])


@pytest.mark.parametrize("scale", [1e-180, 1e200])
def test_classify_phase_witness_at_extreme_scale(scale):
    grid = np.array([[1.0, 2.0], [3.0, 5.0]])
    bmap = BipartiteMap(np.diag(grid.reshape(-1)).astype(complex), BipartiteShape(2, 2))
    scaled = BipartiteMap(scale * bmap.matrix, bmap.shape)
    v = classify(scaled)
    assert v.kind == KIND_NOT_PRESERVING
    assert v.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
    assert witness_reverifies(scaled, v.witness) and witness_checks_out(scaled, v.witness)
    # the phase grid refutes the map at the same scale
    w = table_phase_witness(scaled)
    assert w.kind == WITNESS_NONFACTORIZABLE_PHASE
    assert witness_reverifies(scaled, w)


def test_classify_requires_entanglement_capable_shape():
    with pytest.raises(ShapeMismatch):
        classify(BipartiteMap(np.eye(2, dtype=complex), BipartiteShape(1, 2)))


def test_bipartite_map_shape_validation():
    with pytest.raises(ShapeMismatch):
        BipartiteMap(np.eye(5, dtype=complex), BipartiteShape(2, 2))


def test_classify_random_invertible_nonlocal_is_rejected():
    # generic invertible maps are almost surely not (swap-)local
    bmap = BipartiteMap(random_invertible(4, seed=21, cond_cap=10), BipartiteShape(2, 2))
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING
    assert v.witness is not None
    assert witness_checks_out(bmap, v.witness)


def test_classify_factorizable_diagonal_map_is_local():
    # a product-basis diagonal map with grid mu_i * nu_j is A x B in disguise
    rng = split_rng(51, 0)
    mu = rng.uniform(0.5, 2.0, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
    nu = rng.uniform(0.5, 2.0, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
    diag = np.outer(mu, nu).reshape(-1)
    bmap = BipartiteMap(np.diag(diag), BipartiteShape(3, 2))
    v = classify(bmap)
    assert v.kind == KIND_LOCAL
    np.testing.assert_allclose(kron(v.a, v.b), bmap.matrix, atol=1e-10)


def test_classify_nonfactorizable_diagonal_map_yields_phase_witness():
    # diagonal entries that do not split as mu_i * nu_j break separability:
    # classify's fixed product states show it, and the phase grid too
    grid = np.array([[1.0, 2.0], [3.0, 5.0]])
    bmap = BipartiteMap(np.diag(grid.reshape(-1)).astype(complex), BipartiteShape(2, 2))
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING
    assert v.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
    assert witness_reverifies(bmap, v.witness) and witness_checks_out(bmap, v.witness)
    assert table_phase_witness(bmap).kind == WITNESS_NONFACTORIZABLE_PHASE


def test_classify_swap_composed_on_either_side():
    # S . (A x B) is also swap-local, with the factor roles exchanged
    rng = split_rng(53, 0)
    a = random_invertible(3, seed=rng, cond_cap=20)
    b = random_invertible(3, seed=rng, cond_cap=20)
    s = swap_operator((3, 3))
    for matrix in (kron(a, b) @ s, s @ kron(a, b)):
        v = classify(BipartiteMap(matrix, BipartiteShape(3, 3)))
        assert v.kind == KIND_SWAP_LOCAL
        np.testing.assert_allclose(kron(v.a, v.b), s @ matrix, atol=1e-8)


def test_classify_qutrit_adder_is_rejected():
    # |i, j> -> |i, j + i mod 3>: product basis images are product, but a
    # fixed superposition of two of them is entangled, as for the qubit version
    m = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            m[i * 3 + (j + i) % 3, i * 3 + j] = 1.0
    bmap = BipartiteMap(m, BipartiteShape(3, 3))
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING
    assert witness_checks_out(bmap, v.witness)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_classify_round_trip_property(n, m):
    rng = split_rng(59, n * 10 + m)
    for swap in (False, True):
        for _ in range(5):
            bmap = random_local_map((n, m), swap=swap, seed=rng)
            rng.integers(2**32)  # spent draw, once a witness seed: keeps later inputs fixed
            v = classify(bmap)
            assert v.kind == (KIND_SWAP_LOCAL if swap else KIND_LOCAL)
            assert v.reconstruction_error <= 1e-10


# ---------------------------------------------------------------------------
# realignment certificate

def realignment_tail(matrix, n, m, swap):
    """sqrt(sum_{k>=2} s_k^2) / ||s|| over the full SVD of the realigned map."""
    if swap:
        r = matrix.reshape(m, n, n, m).transpose(1, 2, 0, 3).reshape(n * n, m * m)
    else:
        r = matrix.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
    s = np.linalg.svd(r, compute_uv=False)
    return np.linalg.norm(s[1:]) / np.linalg.norm(s)


@pytest.mark.parametrize("swap", [False, True])
def test_accepted_reading_forms_its_residual_in_the_realigned_copy(swap):
    # one map-sized realigned copy, with no second n^2 x m^2 array beside it
    bmap = random_local_map((16, 16), swap=swap, seed=3)
    bmap._unit  # the cached unit-scale copy is the map's, not the fit's
    tracemalloc.start()
    try:
        a, _, err = classifier._fit_local(bmap, swap, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a is not None and err <= 1e-8
    assert peak < 1.5 * bmap.matrix.nbytes


def test_classify_accepts_map_the_cascade_left_without_witness():
    # the parallelism, phase-grid and factor thresholds rejected this map
    # with no witness at all; its certificate error is 8.3e-9
    bmap = perturb(random_local_map((3, 3), seed=85), 1e-8, seed=1085)
    v = classify(bmap)
    assert v.kind == KIND_LOCAL
    assert v.reconstruction_error <= 1e-8


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_classify_accepts_exactly_when_realignment_tail_is_within_tol(n, m):
    tol, seen = 1e-8, []
    for swap in (False, True):
        for eps in (5e-9, 8e-9, 1.2e-8, 2e-8):
            for k in range(3):
                base = random_local_map((n, m), swap=swap, seed=100 * k + n * 10 + m)
                bmap = perturb(base, eps, seed=100 * k + 7)
                tails = [realignment_tail(bmap.matrix, n, m, flag) for flag in (False, True)]
                if any(0.9 * tol <= t <= 1.1 * tol for t in tails):
                    continue
                want = KIND_NOT_PRESERVING
                if tails[0] <= tol:
                    want = KIND_LOCAL
                elif tails[1] <= tol:
                    want = KIND_SWAP_LOCAL
                v = classify(bmap)
                assert v.kind == want
                if want == KIND_NOT_PRESERVING:
                    assert v.witness is not None and witness_checks_out(bmap, v.witness)
                seen.append(want)
    assert len(seen) >= 16
    assert {KIND_LOCAL, KIND_SWAP_LOCAL, KIND_NOT_PRESERVING} <= set(seen)


@pytest.mark.parametrize("swap", [False, True])
def test_classify_rank_gate_is_the_factor_product_ratio(swap):
    # each factor passes its own rank check (ratio 10^-4.5 > tol), but the
    # product, s_min / s_max of A x B, is 1e-9 < tol; at 10^-3.9 it is 1.6e-8
    accepted = KIND_SWAP_LOCAL if swap else KIND_LOCAL
    for exponent, want in ((-4.5, KIND_NOT_PRESERVING), (-3.9, accepted)):
        a = haar_unitary(2, seed=3) @ np.diag([1.0, 10**exponent])
        b = haar_unitary(3, seed=4) @ np.diag([1.0, 1.0, 10**exponent])
        product = kron(a, b)
        bmap = BipartiteMap(swap_operator((3, 2)).T @ product if swap else product, (2, 3))
        v = classify(bmap)
        assert v.kind == want
        if want == KIND_NOT_PRESERVING:
            assert v.rank_ratio is None and v.detail == "map is rank deficient"
            # the swapped reading's kernel vector is its own witness too
            assert v.witness.kind == WITNESS_KERNEL
            assert witness_checks_out(bmap, v.witness)
            assert witness_reverifies(bmap, v.witness)
        else:
            assert v.rank_ratio == pytest.approx(10 ** (2 * exponent), rel=1e-6)
            np.testing.assert_allclose(kron(v.a, v.b), product, atol=1e-10)


def singular_local_map(n, m, seed, swap) -> BipartiteMap:
    """A x B (or (A x B) S) with A singular and B invertible."""
    p, q = (m, n) if swap else (n, m)
    u, s, vh = np.linalg.svd(random_invertible(p, seed=seed, cond_cap=30))
    s[-1] = 0.0
    product = kron((u * s) @ vh, random_invertible(q, seed=seed + 1, cond_cap=30))
    return BipartiteMap(product @ swap_operator((n, m)) if swap else product, BipartiteShape(n, m))


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
def test_fitted_reading_with_a_singular_factor_decides_by_the_rank_check(monkeypatch, n, m, swap):
    # the reading fits and only its rank ratio fails: no image table is built
    bmap = singular_local_map(n, m, seed=80 + n * m, swap=swap)

    def refuse(*args, **kwargs):
        raise AssertionError("build_image_table called")

    monkeypatch.setattr(classifier, "build_image_table", refuse)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.rank_ratio is None
    assert v.detail == "map is rank deficient"
    # the kernel vector ker(A) x b is a product; the map annihilates it
    assert v.witness.kind == WITNESS_KERNEL
    assert (v.witness.evidence.input_rank, v.witness.evidence.image_rank) == (1, 0)
    assert witness_checks_out(bmap, v.witness)
    assert witness_reverifies(bmap, v.witness)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BipartiteMap(haar_unitary(12, seed=31), BipartiteShape(3, 4)),
        lambda: perturb(random_local_map((2, 3), seed=32), 1e-3, seed=33),
    ],
    ids=["haar/3x4", "perturbed/2x3"],
)
def test_entangled_first_image_of_an_uneven_map_decides_before_any_fit(monkeypatch, make):
    # the leading 2x2 block of L|0,0> decides in both layouts: no reading
    # is fitted and no image table is built, and the witness is the one the
    # own layout's table returns first, bit for bit
    bmap = make()
    expected = build_image_table(bmap, 1e-8, bmap.shape)
    assert isinstance(expected, Witness)

    def refuse(*args, **kwargs):
        raise AssertionError("called after the first image decided")

    monkeypatch.setattr(classifier, "build_image_table", refuse)
    monkeypatch.setattr(classifier, "_fit_local", refuse)
    bmap = BipartiteMap(bmap.matrix, bmap.shape)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.detail == "no local or swap-local decomposition fits"
    assert v.witness.kind == expected.kind == WITNESS_PRODUCT_TO_ENTANGLED
    assert same_witness(v.witness, expected)
    assert witness_reverifies(bmap, v.witness)
    assert witness_checks_out(bmap, v.witness)


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("swap", [False, True])
def test_accepted_map_never_computes_its_spectrum(scale, swap):
    base = local_map(3, 3, seed=19, swap=swap)
    bmap = BipartiteMap(scale * base.matrix, base.shape)
    v = classify(bmap)
    assert v.kind == (KIND_SWAP_LOCAL if swap else KIND_LOCAL)
    assert 1e-8 < v.rank_ratio <= 1.0
    assert "_spectrum" not in bmap.__dict__
    # nor its unit-scale copy: the fit scales the map as it realigns it
    assert "_unit" not in bmap.__dict__


def singular_factor_case(n, m, swap, seed):
    """(map, A, B) for L = A x B, or L = S (A x B) with S the relabeling
    of the layout (n, m); A is singular when n <= m, else B."""
    factors = []
    for k, d in enumerate((n, m)):
        f = random_invertible(d, seed=seed + k, cond_cap=30)
        if (k == 0) == (n <= m):
            u, s, vh = np.linalg.svd(f)
            s[-1] = 0.0
            f = (u * s) @ vh
        factors.append(f)
    product = kron(*factors)
    matrix = swap_operator((n, m)) @ product if swap else product
    return BipartiteMap(matrix, BipartiteShape(n, m)), *factors


@pytest.mark.parametrize("n,m,swap", [(16, 16, False), (3, 4, True), (4, 3, True)])
def test_singular_factor_gives_its_kernel_vector_without_a_map_svd(monkeypatch, n, m, swap):
    # the kernel vector is kron(v_min(A), v_min(B)), from one SVD of each
    # small factor; no SVD of the nm x nm map runs and its spectrum is unread
    bmap, a, b = singular_factor_case(n, m, swap, seed=90 + n * m)
    expected = np.kron(*(np.linalg.svd(f)[2][-1].conj() for f in (a, b)))
    calls = svd_calls(monkeypatch)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.detail == "map is rank deficient"
    assert calls and ((n * m, n * m), True) not in calls and ((n * m, n * m), False) not in calls
    assert "_spectrum" not in bmap.__dict__
    w = v.witness
    assert w.kind == WITNESS_KERNEL and w.evidence.image_rank == 0
    overlap = np.vdot(expected, w.state)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(w.state, overlap * expected, rtol=0, atol=1e-9)
    assert witness_checks_out(bmap, w)
    assert witness_reverifies(bmap, w)


def test_near_singular_local_maps_keep_verdict_and_detail(monkeypatch):
    # the factors' kernel vector decides exactly where the rank check of
    # the whole map, which it now precedes, decided
    new = [classify(bmap) for bmap in near_singular_local_maps()]
    monkeypatch.setattr(classifier, "_factor_kernel", lambda *args: None)
    old = [classify(bmap) for bmap in near_singular_local_maps()]
    assert sum(v.kind == KIND_NOT_PRESERVING for v in new) > 100
    for v, ref in zip(new, old, strict=True):
        assert (v.kind, v.detail) == (ref.kind, ref.detail)
        assert (v.witness is None) == (ref.witness is None)
        if v.witness is not None:
            assert v.witness.kind == ref.witness.kind


@pytest.mark.parametrize(
    "matrix",
    [np.diag([0.0, 1.0, 1.0, 1.0]), np.zeros((4, 4))],
    ids=["rank-deficient", "zero"],
)
def test_vanishing_basis_image_decides_without_the_spectrum(matrix):
    # the basis state |0,0> that the map kills is the witness itself
    bmap = BipartiteMap(matrix, BipartiteShape(2, 2))
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.rank_ratio is None
    assert v.witness.kind == WITNESS_KERNEL and v.detail == "map is rank deficient"
    np.testing.assert_array_equal(v.witness.state, [1, 0, 0, 0])
    assert "_spectrum" not in bmap.__dict__
    assert witness_checks_out(bmap, v.witness)
    assert witness_reverifies(bmap, v.witness)


def cnot_left_map(n, m, seed) -> BipartiteMap:
    """A random local map after the generalized CNOT |i, j> -> |i, i + j mod m>."""
    local = random_local_map((n, m), seed=seed).matrix
    return BipartiteMap(local @ controlled_shift(n, m), BipartiteShape(n, m))


def cphase_map(n, m, seed, cond_cap=1e3, swap=False) -> BipartiteMap:
    """A random local (or swap-local) map after a diagonal of random phases."""
    phases = np.exp(2j * np.pi * split_rng(seed, 1).uniform(size=n * m))
    local = random_local_map((n, m), swap=swap, seed=seed, cond_cap=cond_cap)
    return BipartiteMap(local.matrix * phases, BipartiteShape(n, m))


@pytest.mark.parametrize(
    "make,state,count",
    [
        (cnot_left_map, np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0), 3),
        (cphase_map, np.kron([1.0, 2.0], [1.0, 2.0]) / 5.0, 4),
    ],
    ids=["cnot-left", "cphase"],
)
def test_fixed_candidate_that_makes_no_claim_costs_one_spectrum(monkeypatch, make, state, count):
    # every basis image is a product, so the row-0 block skips both fits;
    # each fixed candidate before the witness costs the values-only
    # spectrum of its image alone, and the witness those of its image and
    # of its state: 3 SVDs for local CNOT, whose witness is the second
    # candidate, and 4 for local controlled phase, whose witness is the ramp
    bmap = make(2, 2, seed=3)
    calls = svd_calls(monkeypatch)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
    np.testing.assert_allclose(v.witness.state, state, rtol=0, atol=1e-15)
    assert calls == [((2, 2), False)] * count
    assert witness_reverifies(bmap, v.witness)


def vanishing_entangled_image_map() -> BipartiteMap:
    """The identity with L|0,0> an entangled vector of norm 1e-20: the image
    has Schmidt rank 2 by its own spectrum, yet vanishes against ||L||_2."""
    matrix = np.eye(4, dtype=complex)
    matrix[:, 0] = 1e-20 * np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return BipartiteMap(matrix, BipartiteShape(2, 2))


def band_image_map() -> BipartiteMap:
    """0.9 times the identity with L|0,0> an entangled vector of norm 0.95
    tol ||L||_2.  At unit scale ||L||_2 is 0.90, 0.60 and 0.67 for the
    scales 1, 1e-300 and 1e300, so the image, 0.86, 0.57 and 0.64 tol, lies
    between the vanishing bounds tol / 2 and sqrt(2) nm tol, and only
    ||L||_2 itself shows that it vanishes; the map's s_min / s_max is about
    0.67 tol."""
    matrix = 0.9 * np.eye(4, dtype=complex)
    matrix[:, 0] = 0.95e-8 * 0.9 * np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return BipartiteMap(matrix, BipartiteShape(2, 2))


REJECT_FAMILIES = {
    "cnot-left": cnot_left_map,
    "cphase": cphase_map,
    "perturbed": lambda n, m, seed: perturb(random_local_map((n, m), seed=seed), 1e-3, seed=seed + 1),
    "kernel-entangled": kernel_entangled_map,
}
# (make, deficient, reads): whether the witness is a kernel vector, and
# whether classify reads the map's spectrum
REJECT_CASES = [
    pytest.param(cnot_map, False, False, id="cnot"),
    pytest.param(lambda: BipartiteMap(haar_unitary(4, seed=23), BipartiteShape(2, 2)), False, False, id="haar"),
    *(
        pytest.param(lambda make=make, n=n, m=m: make(n, m, seed=70 + n * m), False, False, id=f"{family}/{n}x{m}")
        for family, make in REJECT_FAMILIES.items()
        for n, m in ((2, 2), (2, 3), (3, 3))
    ),
    pytest.param(kernel_product_map, True, False, id="kernel-product"),
    pytest.param(vanishing_entangled_image_map, True, False, id="vanishing-entangled-image"),
    pytest.param(band_image_map, True, True, id="band-image"),
]


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("make,deficient,reads", REJECT_CASES)
def test_reject_reads_its_spectrum_only_to_prove_rank_deficiency(make, deficient, reads, scale):
    # the witness comes from a fixed product state or the kernel vector of
    # the fitted factors (kernel-product); the spectrum is read only by the
    # vanishing test of an image between tol / 2 and sqrt(2) nm tol times
    # its state's norm at unit scale, and there a vanishing image agrees
    # with the spectrum's rank rule
    base = make()
    bmap = BipartiteMap(scale * base.matrix, base.shape)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.witness is not None
    assert ("_spectrum" in bmap.__dict__) == reads
    if deficient:
        assert v.witness.kind == WITNESS_KERNEL and v.detail == "map is rank deficient"
        assert v.witness.evidence.image_rank == 0
        assert not full_rank_by_spectrum(base.matrix)
    else:
        assert v.detail == "no local or swap-local decomposition fits"
    assert witness_checks_out(bmap, v.witness)
    assert witness_reverifies(bmap, v.witness)


@pytest.mark.parametrize("family", ["cphase", "kernel-product"])
def test_phase_grid_gate_is_scale_safe(family):
    # a 16x16 map of unitary factors scaled to peak 1e307: its phase grid's
    # 2-norm exceeds the float maximum, so the grid is scaled before its SVD
    n = 16
    if family == "cphase":
        matrix = cphase_map(n, n, seed=0, cond_cap=1.0).matrix
    else:
        u, s, vh = np.linalg.svd(haar_unitary(n, seed=1))
        s[-1] = 0.0
        matrix = kron((u * s) @ vh, haar_unitary(n, seed=2))
    bmap = BipartiteMap(matrix * (1e307 / np.abs(matrix).max()), BipartiteShape(n, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = classify(bmap)
        grid_witness = table_phase_witness(bmap) if family == "cphase" else None
    assert v.kind == KIND_NOT_PRESERVING
    if family == "cphase":
        assert v.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
        assert witness_checks_out(bmap, v.witness)
        assert grid_witness.kind == WITNESS_NONFACTORIZABLE_PHASE
        assert witness_reverifies(bmap, grid_witness)
    else:
        assert v.witness.kind == WITNESS_KERNEL and v.detail == "map is rank deficient"
    assert witness_reverifies(bmap, v.witness)


# ---------------------------------------------------------------------------
# the rank check against the spectrum's rank rule

TOL = 1e-8


def spectrum_family(n, m, seed):
    """U diag(s) V maps, s geometric from 1 to s_min, with s_min / s_max
    log-spaced from tol / 10 to 10 nm tol, then three well-conditioned ones."""
    d = n * m
    ratios = list(np.geomspace(TOL / 10, 10 * d * TOL, 9)) + [1e-5, 1e-3, 1e-1]
    u, v = haar_unitary(d, seed=seed), haar_unitary(d, seed=seed + 1)
    return [(u * np.geomspace(1.0, r, d)) @ v for r in ratios]


def full_rank_by_spectrum(matrix):
    s = np.linalg.svd(matrix, compute_uv=False)
    return bool(s[0] > 0 and s[-1] > TOL * s[0])


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (4, 4)])
def test_check_full_rank_follows_the_spectrum_rule(n, m, scale):
    for k, base in enumerate(spectrum_family(n, m, seed=10 * n * m)):
        matrix = scale * base
        bmap = BipartiteMap(matrix, BipartiteShape(n, m))
        assert (check_full_rank(bmap, TOL) is None) == full_rank_by_spectrum(matrix), k


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (4, 4)])
def test_vanishing_agrees_with_the_spectrum_rule(n, m, scale):
    rng = np.random.default_rng(n * m)
    for base in spectrum_family(n, m, seed=20 * n * m):
        bmap = BipartiteMap(scale * base, BipartiteShape(n, m))
        # _vanishing judges images under the unit-scale map, against its norms
        norm2 = np.linalg.svd(bmap._unit, compute_uv=False)[0]
        state = rng.normal(size=n * m) + 1j * rng.normal(size=n * m)
        direction = rng.normal(size=n * m) + 1j * rng.normal(size=n * m)
        direction /= np.linalg.norm(direction)
        for factor in (0.5, 1.0, 2.0):
            image = (factor * TOL * np.linalg.norm(state)) * norm2 * direction
            expected = bool(np.linalg.norm(image) <= TOL * np.linalg.norm(state) * norm2)
            assert classifier._vanishing(bmap, image, state, TOL) == expected
            assert expected == (factor < 1.0) or factor == 1.0
        # images from 0.1 tol to 1e3 tol times the state's norm, across both
        # bounds of unit scale, tol / 2 and sqrt(2) nm tol, and ||L||_2 between
        for size in np.geomspace(0.1, 1e3, 41):
            image = (size * TOL * np.linalg.norm(state)) * direction
            expected = bool(np.linalg.norm(image) <= TOL * np.linalg.norm(state) * norm2)
            assert classifier._vanishing(bmap, image, state, TOL) == expected, size


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 4)])
@pytest.mark.parametrize("swap", [False, True])
def test_classify_factors_follow_the_gauge(n, m, swap):
    bmap = random_local_map((n, m), swap=swap, seed=n * 10 + m)
    scaled = BipartiteMap(3.7e5 * np.exp(0.4j) * bmap.matrix, bmap.shape)
    for target in (bmap, scaled):
        v = classify(target)
        assert v.a.shape == (n, n) and v.b.shape == (m, m)
        assert np.linalg.norm(v.b) == pytest.approx(1.0, abs=1e-12)
        top = v.a[np.argmax(np.abs(v.a[:, 0])), 0]
        assert top.real > 0 and abs(top.imag) <= 1e-12 * abs(top)
        reference = swap_operator((m, n)) @ target.matrix if swap else target.matrix
        np.testing.assert_allclose(
            kron(v.a, v.b), reference, atol=1e-10 * np.linalg.norm(target.matrix)
        )


# ---------------------------------------------------------------------------
# vectorised witness scans against the plain loops they replace

def minor_rel(unit, i, k, j, l):
    det = unit[i, j] * unit[k, l] - unit[i, l] * unit[k, j]
    scale = abs(unit[i, j] * unit[k, l]) + abs(unit[i, l] * unit[k, j])
    return abs(det) / max(scale, 1e-300)


def reference_minor(grid):
    """(i, k, j, l) and rel of the first most non-degenerate 2x2 minor, in
    loop order, and the grid scaled to max modulus 1."""
    unit = grid / np.abs(grid).max()
    n, m = unit.shape
    best, best_idx = -1.0, None
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(m):
                for l in range(j + 1, m):
                    rel = minor_rel(unit, i, k, j, l)
                    if rel > best:
                        best, best_idx = rel, (i, k, j, l)
    return best_idx, best, unit


def minor_of(state, n, m):
    """(i, k, j, l) of a state (|i> + |k>)(|j> + |l>) / 2."""
    rows, cols = np.nonzero(np.abs(state.reshape(n, m)))
    (i, k), (j, l) = sorted(set(rows)), sorted(set(cols))
    return i, k, j, l


def test_phase_grid_minor_matches_loop_reference():
    rng = np.random.default_rng(71)
    for n in range(2, 6):
        for m in range(2, 6):
            # generic grids, and real integer grids whose many tied minors
            # are computed exactly, so the first maximum must be the loop's
            grids = [rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)) for _ in range(3)]
            grids += [rng.choice([1.0, -1.0, 2.0, 3.0], size=(n, m)) for _ in range(3)]
            for grid in grids:
                w = factor_phase_grid(grid)
                if not isinstance(w, Witness):
                    continue
                i, k, j, l = reference_minor(grid)[0]
                ea = (np.eye(n)[i] + np.eye(n)[k]) / np.sqrt(2)
                fb = (np.eye(m)[j] + np.eye(m)[l]) / np.sqrt(2)
                np.testing.assert_array_equal(w.state, np.kron(ea, fb))
            # complex entries from a small set tie many minors up to the
            # last bit, so the pick may differ from the loop's, but it
            # attains the maximum
            for grid in (rng.choice([1.0, -1.0, 2.0, 1j], size=(n, m)),
                         np.exp(2j * np.pi * rng.integers(0, 4, size=(n, m)) / 4)):
                w = factor_phase_grid(grid)
                if not isinstance(w, Witness):
                    continue
                _, best, unit = reference_minor(grid)
                assert minor_rel(unit, *minor_of(w.state, n, m)) == pytest.approx(best, rel=1e-15)


def product_image_maps():
    """Maps sending every product basis state to a product state, with the
    image factors drawn from small pools so many of them are parallel."""
    rng = np.random.default_rng(72)
    for n, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(12):
            pool_a = [haar_unitary(n, rng)[:, 0] for _ in range(2)] + list(np.eye(n))
            pool_b = [haar_unitary(m, rng)[:, 0] for _ in range(2)] + list(np.eye(m))
            cols = [
                rng.uniform(0.5, 2.0)
                * np.kron(pool_a[rng.integers(len(pool_a))], pool_b[rng.integers(len(pool_b))])
                for _ in range(n * m)
            ]
            yield BipartiteMap(np.array(cols).T, BipartiteShape(n, m))
    # one factor the same for every image: no basis pair witnesses (only an
    # entangled state with a product image, which the rank check covers)
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        pool_b = [haar_unitary(m, rng)[:, 0] for _ in range(2)]
        cols = [np.kron(np.eye(n)[0], pool_b[(i + j) % 2]) for i in range(n) for j in range(m)]
        yield BipartiteMap(np.array(cols).T, BipartiteShape(n, m))
    # pairs (0, 1)-(1, 0) share the first factor, (0, 0)-(1, 1) share none
    x, y = haar_unitary(2, rng)
    u, v = haar_unitary(2, rng)
    cols = [np.kron(x, u), np.kron(x, v), np.kron(x, v), np.kron(y, v)]
    yield BipartiteMap(np.array(cols).T, BipartiteShape(2, 2))
    yield cnot_map()
    yield generalized_cnot(3)


def reference_search_witness(bmap: BipartiteMap, tol: float = 1e-8):
    """classify's witness for a map that no reading accepts, as (kind,
    state), by plain loops with one numpy SVD per image and layout and no
    library helper, or None when every stage before the product-state
    search finds none.

    In stage order: the fixed product states |0,0>, (|0,0> + |1,0>)/sqrt(2)
    and the normalized ramp (1..n) x (1..m); then
    the map's kernel vector, where s_min <= tol s_max; then the basis state
    whose image has the largest s_2 / s_1, the smallest over the layouts.
    A state is taken when its image vanishes (a KernelVector) or has
    Schmidt rank >= 2 in every layout (ProductToEntangled).
    """
    n, m = bmap.shape.n, bmap.shape.m
    d = n * m
    layouts = list(dict.fromkeys([(n, m), (m, n)]))
    spectrum = np.linalg.svd(bmap.matrix, compute_uv=False)

    def rank(v, out):
        s = np.linalg.svd(v.reshape(out), compute_uv=False)
        return int(np.count_nonzero(s > tol * s[0]))

    def witness(state):
        image = bmap.matrix @ state
        if np.linalg.norm(image) <= tol * spectrum[0] * np.linalg.norm(state):
            return WITNESS_KERNEL, state
        if all(rank(image, out) >= 2 for out in layouts):
            return WITNESS_PRODUCT_TO_ENTANGLED, state
        return None

    def ket(*indices):
        return np.eye(d)[list(indices)].sum(axis=0) / np.sqrt(len(indices))

    ramp_a, ramp_b = np.arange(1.0, n + 1), np.arange(1.0, m + 1)
    ramp = np.kron(ramp_a / np.linalg.norm(ramp_a), ramp_b / np.linalg.norm(ramp_b))
    for state in (ket(0), ket(0, m), ramp):
        found = witness(state)
        if found is not None:
            return found
    if not spectrum[-1] > tol * spectrum[0]:
        kernel = np.linalg.svd(bmap.matrix)[2][-1].conj()
        if np.linalg.norm(bmap.matrix @ kernel) <= tol * spectrum[0]:
            return WITNESS_KERNEL, kernel
    ratios = []
    for k in range(d):
        worst = 1.0
        for out in layouts:
            s = np.linalg.svd(bmap.matrix[:, k].reshape(out), compute_uv=False)
            worst = min(worst, s[1] / s[0] if s[0] > 0.0 else 0.0)
        ratios.append(worst)
    return witness(ket(ratios.index(max(ratios))))


def entangled_column_map(n, m, i, j, seed) -> BipartiteMap:
    """A random local map whose basis image (i, j) alone is replaced by an
    entangled vector of the same norm."""
    matrix = local_map(n, m, seed=seed).matrix.copy()
    k = random_schmidt_rank_state((n, m), 2, seed=seed + 1)
    matrix[:, i * m + j] = np.linalg.norm(matrix[:, i * m + j]) * k
    return BipartiteMap(matrix, BipartiteShape(n, m))


WITNESS_FAMILIES = {
    "haar": lambda n, m, seed: BipartiteMap(haar_unitary(n * m, seed=seed), BipartiteShape(n, m)),
    "perturbed": lambda n, m, seed: perturb(random_local_map((n, m), seed=seed), 1e-3, seed=seed + 1),
    "kernel-entangled": kernel_entangled_map,
    "cnot-left": cnot_left_map,
    "cphase": cphase_map,
    # a controlled phase before a swap-local map
    "swap-cphase": lambda n, m, seed: cphase_map(n, m, seed, swap=True),
    "cnot": lambda n, m, seed: BipartiteMap(controlled_shift(n, m), BipartiteShape(n, m)),
}
WITNESS_CASES = [
    # a CNOT on the factors (2, 3) sends each fixed candidate and each basis
    # state to an image that is a product in some layout: its witness comes
    # from the product-state search
    *(
        pytest.param(
            lambda make=make, n=n, m=m: make(n, m, 90 + 7 * n + m),
            family == "cnot" and (n, m) == (2, 3),
            id=f"{family}/{n}x{m}",
        )
        for family, make in WITNESS_FAMILIES.items()
        for n, m in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4))
    ),
    # image (0, 0) is a product and (0, 2) is entangled; in the second map
    # only (2, 1) is
    pytest.param(lambda: entangled_column_map(2, 3, 0, 2, seed=95), False, id="row-0-after-the-fit/2x3"),
    pytest.param(lambda: entangled_column_map(3, 3, 2, 1, seed=96), False, id="row-2-only/3x3"),
    # local maps perturbed just above tol: no fixed state's image clears
    # s_2 > tol s_1, and the basis scan finds |1,1> and |0,1>
    pytest.param(
        lambda: perturb(random_local_map((2, 2), seed=24), 1.2e-8, seed=5024), False, id="basis-scan/2x2"
    ),
    pytest.param(
        lambda: perturb(random_local_map((2, 3), seed=18), 1.2e-8, seed=5018), False, id="basis-scan/2x3"
    ),
    # the same for a swap-local base: every basis image is far from a product
    # in the layout (2, 3), so the scan must rank them in (3, 2) too
    pytest.param(
        lambda: perturb(random_local_map((2, 3), swap=True, seed=3), 1.2e-8, seed=5003),
        False,
        id="basis-scan/2x3-swap",
    ),
]


@pytest.mark.parametrize("make,searched", WITNESS_CASES)
def test_classify_witness_matches_plain_loop_reference(make, searched):
    bmap = make()
    expected = reference_search_witness(bmap)
    assert (expected is None) == searched
    if searched:
        expected = WITNESS_PRODUCT_TO_ENTANGLED, classifier._product_search_witness(bmap, 1e-8).state
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING
    assert v.witness.kind == expected[0]
    np.testing.assert_array_equal(v.witness.state, expected[1])
    assert witness_reverifies(bmap, v.witness) and witness_checks_out(bmap, v.witness)


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("family", ["cnot", "cnot-left", "cphase", "swap-cphase", "haar", "perturbed"])
def test_classify_builds_no_image_table_factors_or_phase_grid(monkeypatch, family, scale):
    # the fixed product states, the rank check, the basis scan and the
    # product-state search decide every reject without the constructive
    # stages, and every witness re-verifies
    shapes = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4))
    bases = [WITNESS_FAMILIES[family](n, m, 180 + 7 * n + m) for n, m in shapes]
    if family == "cnot":
        bases.append(cnot_map())
    maps = [BipartiteMap(scale * b.matrix, b.shape) for b in bases]

    def refuse(*args, **kwargs):
        raise AssertionError("classify built an image table, factors or a phase grid")

    for name in ("build_image_table", "extract_factors", "factor_phase_grid"):
        monkeypatch.setattr(classifier, name, refuse)
    for bmap in maps:
        v = classify(bmap)
        assert v.kind == KIND_NOT_PRESERVING and v.witness is not None
        assert v.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
        assert witness_reverifies(bmap, v.witness) and witness_checks_out(bmap, v.witness)


# ---------------------------------------------------------------------------
# the first-image block test


def aimed_at_the_leading_block(bmap: BipartiteMap, swap: bool, size: float) -> np.ndarray:
    """The matrix with column 0 moved by size (Frobenius) along the second
    singular pair of the leading 2x2 block of L|0,0>, in the layout where
    that image is a product: (m, n) for a swapped map, else (n, m)."""
    n, m = bmap.shape.n, bmap.shape.m
    rows, cols = (m, n) if swap else (n, m)
    u, _, vh = np.linalg.svd(bmap.matrix[:, 0].reshape(rows, cols)[:2, :2])
    delta = np.zeros((rows, cols), dtype=complex)
    delta[:2, :2] = size * np.outer(u[:, 1], vh[1])
    matrix = bmap.matrix.copy()
    matrix[:, 0] += delta.ravel()
    return matrix


@pytest.mark.parametrize("j", [0, -1000, 1000])
@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 3), (3, 2), (4, 4)])
def test_first_image_block_never_decides_a_map_that_a_reading_accepts(n, m, swap, j):
    # a fitted reading leaves s_2 of the image at most tol ||L||_F, which
    # stays below the block's threshold 2 sqrt(2) tol nm at unit scale
    base = local_map(n, m, seed=110 + n * m, swap=swap)
    norm = np.linalg.norm(base.matrix)
    bmap = BipartiteMap(ldexp(aimed_at_the_leading_block(base, swap, 0.99e-8 * norm), j), base.shape)
    assert not classifier._first_image_entangled(bmap, 1e-8)
    v = classify(bmap)
    assert v.kind == (KIND_SWAP_LOCAL if swap else KIND_LOCAL)
    assert v.reconstruction_error <= 1e-8
    # the same aim at 1e-5 ||L||_F entangles the image in every layout
    loud = BipartiteMap(ldexp(aimed_at_the_leading_block(base, swap, 1e-5 * norm), j), base.shape)
    assert classifier._first_image_entangled(loud, 1e-8)
    v = classify(loud)
    assert v.kind == KIND_NOT_PRESERVING and v.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
    np.testing.assert_array_equal(v.witness.state, np.eye(n * m)[0])
    # the witness's evidence read column 0 alone
    assert "_unit" not in loud.__dict__
    assert witness_reverifies(loud, v.witness)


@pytest.mark.parametrize("family", list(WITNESS_FAMILIES))
def test_first_image_block_changes_no_verdict(monkeypatch, family):
    # each verdict is the one classify gives without the block test, bit
    # for bit: kind, detail, margins, factors and witness
    shapes = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4))
    bases = [WITNESS_FAMILIES[family](n, m, 120 + 7 * n + m) for n, m in shapes]
    maps = [BipartiteMap(scale * b.matrix, b.shape) for b in bases for scale in (1.0, 1e-300, 1e300)]
    verdicts = [classify(bmap) for bmap in maps]
    decided = [classifier._first_image_entangled(bmap, 1e-8) for bmap in maps]
    monkeypatch.setattr(classifier, "_first_image_entangled", lambda *args: False)
    for bmap, v in zip(maps, verdicts, strict=True):
        assert same_verdict(v, classify(BipartiteMap(bmap.matrix, bmap.shape)))
    # the first image of a haar, perturbed or kernel-entangled map is
    # entangled far above tol; that of the others is a product
    assert all(decided) == (family in ("haar", "perturbed", "kernel-entangled"))
    assert any(decided) == all(decided)


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
def test_first_image_block_leaves_a_product_first_image_alone(scale):
    maps = [cnot_map(), generalized_cnot(3), generalized_cnot(4)]
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4)):
        seed = 130 + n * m
        maps += [
            cnot_left_map(n, m, seed),
            cphase_map(n, m, seed),
            local_map(n, m, seed),
            # entangled in its own layout (n, m) for n != m, a product in (m, n)
            local_map(n, m, seed, swap=True),
        ]
    for bmap in maps:
        assert not classifier._first_image_entangled(BipartiteMap(scale * bmap.matrix, bmap.shape), 1e-8)


# ---------------------------------------------------------------------------
# the row-0 block test


def aimed_at_the_row_block(bmap: BipartiteMap, size: float) -> np.ndarray:
    """The matrix with L[0,0], L[0,1], L[0,m], L[0,m+1] moved by size
    (Frobenius) along the second singular pair of the 2x2 block they form,
    a block of both realignments."""
    m = bmap.shape.m
    cols = np.array([[0, 1], [m, m + 1]])
    u, _, vh = np.linalg.svd(bmap.matrix[0, cols])
    matrix = bmap.matrix.copy()
    matrix[0, cols] += size * np.outer(u[:, 1], vh[1])
    return matrix


@pytest.mark.parametrize("j", [0, -1000, 1000])
@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 3), (3, 2), (4, 4)])
def test_row_block_never_decides_a_map_that_a_reading_accepts(n, m, swap, j):
    # a fitted reading has s_2 of its realignment at most tol ||L||_F, which
    # stays below the block's threshold 2 sqrt(2) tol nm at unit scale
    base = local_map(n, m, seed=140 + n * m, swap=swap)
    norm = np.linalg.norm(base.matrix)
    bmap = BipartiteMap(ldexp(aimed_at_the_row_block(base, 0.99e-8 * norm), j), base.shape)
    assert not classifier._first_row_entangled(bmap, 1e-8)
    v = classify(bmap)
    assert v.kind == (KIND_SWAP_LOCAL if swap else KIND_LOCAL)
    assert v.reconstruction_error <= 1e-8
    # the same aim at 1e-5 ||L||_F takes both readings out of reach
    loud = BipartiteMap(ldexp(aimed_at_the_row_block(base, 1e-5 * norm), j), base.shape)
    assert classifier._first_row_entangled(loud, 1e-8)
    assert all(classifier._fit_local(loud, s, 1e-8)[0] is None for s in (False, True))
    v = classify(loud)
    assert v.kind == KIND_NOT_PRESERVING and witness_reverifies(loud, v.witness)


@pytest.mark.parametrize("family", ["cnot-left", "cphase"])
def test_row_block_skips_both_fits_and_changes_no_verdict(monkeypatch, family):
    shapes = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4))
    bases = [WITNESS_FAMILIES[family](n, m, 150 + 7 * n + m) for n, m in shapes]
    maps = [BipartiteMap(scale * b.matrix, b.shape) for b in bases for scale in (1.0, 1e-300, 1e300)]
    real_fit = classifier._fit_local

    def no_fit(*args):
        raise AssertionError("a realignment fit ran")

    monkeypatch.setattr(classifier, "_fit_local", no_fit)
    verdicts = [classify(bmap) for bmap in maps]
    # the verdict each map gets when both fits run, bit for bit
    monkeypatch.setattr(classifier, "_fit_local", real_fit)
    monkeypatch.setattr(classifier, "_first_row_entangled", lambda *args: False)
    for bmap, v in zip(maps, verdicts, strict=True):
        assert v.kind == KIND_NOT_PRESERVING
        assert same_verdict(v, classify(BipartiteMap(bmap.matrix, bmap.shape)))


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
def test_row_block_leaves_products_alone(scale):
    maps = [cnot_map(), generalized_cnot(3), generalized_cnot(4)]
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4)):
        shape = BipartiteShape(n, m)
        seed = 160 + n * m
        maps += [
            BipartiteMap(controlled_shift(n, m), shape),
            BipartiteMap(controlled_shift(n, m).T, shape),
            local_map(n, m, seed),
            local_map(n, m, seed, swap=True),
        ]
    for bmap in maps:
        assert not classifier._first_row_entangled(BipartiteMap(scale * bmap.matrix, bmap.shape), 1e-8)


def amplitude_maps():
    yield from product_image_maps()
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4)):
        yield cnot_left_map(n, m, 170 + n * m)
        yield cphase_map(n, m, 170 + n * m)


def test_image_table_amplitudes_are_the_projections_of_the_images():
    # amps come from s_1 and the two gauge phases: the same as projecting
    # each image onto its gauged factor vectors
    for bmap in amplitude_maps():
        table = build_image_table(bmap)
        assert not isinstance(table, Witness)
        n, m = bmap.shape.n, bmap.shape.m
        images = bmap._unit.T.reshape(n, m, n, m)
        projected = np.einsum("ija,ijb,ijab->ij", table.d_vecs.conj(), table.e_vecs.conj(), images)
        np.testing.assert_allclose(table.amps, ldexp(projected, bmap._exponent), rtol=1e-13, atol=0.0)


def column_scaled_local_map(factor: float) -> BipartiteMap:
    """A 2x2 local map with basis image (1, 1) multiplied by factor."""
    matrix = random_local_map((2, 2), seed=3).matrix.copy()
    matrix[:, 3] *= factor
    return BipartiteMap(matrix, BipartiteShape(2, 2))


@pytest.mark.parametrize("factor", [1e-50, 1e-80, 1e-100, 1e-150, 1e-170, 1e-200, 1e-250, 1e-300])
def test_basis_image_far_below_the_map_keeps_its_factors_and_witness(factor):
    # from about 1e-77 down, the squares of that image underflow at the
    # map's unit scale; the SVD rescales it internally, so its factors
    # stay unit vectors, its amplitude scales with it, and the witness is
    # the one the map has at 1e-9
    ref, near = build_image_table(column_scaled_local_map(1.0)), classify(column_scaled_local_map(1e-9))
    bmap = column_scaled_local_map(factor)
    table = build_image_table(bmap)
    assert not isinstance(table, Witness)
    for vecs in (table.d_vecs, table.e_vecs):
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=-1), 1.0, rtol=1e-14)
    assert np.all(np.isfinite(table.amps))
    np.testing.assert_allclose(table.d_vecs, ref.d_vecs, atol=1e-14)
    np.testing.assert_allclose(table.e_vecs, ref.e_vecs, atol=1e-14)
    assert table.amps[1, 1] == pytest.approx(factor * ref.amps[1, 1], rel=1e-14)
    v = classify(bmap)
    assert v.kind == near.kind == KIND_NOT_PRESERVING
    assert v.witness.kind == near.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
    np.testing.assert_array_equal(v.witness.state, near.witness.state)
    assert witness_reverifies(bmap, v.witness) and witness_checks_out(bmap, v.witness)
    # the phase grid refutes the map too
    w = table_phase_witness(bmap)
    assert w.kind == WITNESS_NONFACTORIZABLE_PHASE
    assert witness_reverifies(bmap, w)


def test_oracle_and_library_agree_on_an_image_between_the_vanishing_bounds():
    # the identity with L|0,0> = 1.2e-8 (|00> + |11>) / sqrt(2): above
    # tol ||L||_2 ||x|| = 1e-8, so the image does not vanish, though it is
    # below sqrt(2) nm tol ||x|| = 5.7e-8
    matrix = np.eye(4, dtype=complex)
    matrix[:, 0] = 1.2e-8 * np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    bmap = BipartiteMap(matrix, BipartiteShape(2, 2))
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
    np.testing.assert_array_equal(v.witness.state, [1, 0, 0, 0])
    assert witness_reverifies(bmap, v.witness)
    assert witness_checks_out(bmap, v.witness)
