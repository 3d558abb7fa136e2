import tracemalloc
import warnings

import numpy as np
import pytest

from unitarity_kit import classifier
from unitarity_kit.acceptance import witness_reverifies
from unitarity_kit.classifier import (
    CASE_I,
    CASE_II,
    KIND_LOCAL,
    KIND_NOT_PRESERVING,
    KIND_SWAP_LOCAL,
    WITNESS_KERNEL,
    WITNESS_PRODUCT_TO_ENTANGLED,
    BipartiteMap,
    Witness,
    _evidence,
    _parallelism_witness,
    _pattern_holds,
    build_image_table,
    check_full_rank,
    classify,
    extract_factors,
    factor_phase_grid,
)
from unitarity_kit.errors import ParamOutOfRange, ShapeMismatch
from unitarity_kit.generators import (
    cnot_map,
    haar_unitary,
    perturb,
    random_invertible,
    random_local_map,
    random_schmidt_rank_state,
    split_rng,
)
from unitarity_kit.linalg import kron
from unitarity_kit.schmidt import (
    BipartiteShape,
    schmidt_decompose,
    schmidt_rank,
    swap_operator,
)


def local_map(n, m, seed, swap=False) -> BipartiteMap:
    return random_local_map((n, m), swap=swap, seed=seed, cond_cap=50)


def witness_checks_out(bmap: BipartiteMap, w: Witness) -> bool:
    # the image is taken under L / ||L||_2, so no norm under- or overflows
    in_rank = schmidt_rank(w.state, w.evidence.input_shape)
    norm2 = bmap.singular_values[0]
    unit = bmap.matrix / norm2 if norm2 > 0.0 else bmap.matrix
    img = unit @ w.state
    if np.linalg.norm(img) <= 1e-8 * np.linalg.norm(unit):
        img_rank = 0
    else:
        img_rank = schmidt_rank(img, w.evidence.image_shape)
    if w.kind == WITNESS_KERNEL:
        return in_rank >= 2 and img_rank <= 1
    if w.kind == "EntangledToProduct":
        return in_rank >= 2 and img_rank <= 1
    return in_rank == 1 and img_rank >= 2


# ---------------------------------------------------------------------------
# full rank

def test_full_rank_accepts_identity():
    bmap = BipartiteMap(np.eye(4, dtype=complex), BipartiteShape(2, 2))
    assert check_full_rank(bmap) is None


def test_rank_deficient_projector_yields_kernel_witness():
    bmap = BipartiteMap(np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex), BipartiteShape(2, 2))
    w = check_full_rank(bmap)
    assert w is not None and w.kind == WITNESS_KERNEL
    assert witness_checks_out(bmap, w)


def test_product_kernel_vector_gives_rank_two_combination():
    # L kills |0,0> but keeps |1,1>: the combination has rank 2, its image rank <= 1
    bmap = BipartiteMap(np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex), BipartiteShape(2, 2))
    w = check_full_rank(bmap)
    assert w is not None and w.kind == WITNESS_KERNEL
    assert w.evidence.input_rank == 2
    assert w.evidence.image_rank <= 1
    assert witness_checks_out(bmap, w)


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
    assert w is not None
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
    # whatever the kernel's dimension, the kernel vector is the last right
    # singular vector of one full SVD of the unit-scale map
    bmap = make()
    kernel = np.linalg.svd(bmap._unit, full_matrices=False)[2][-1].conj()
    expected = classifier._kernel_witness(bmap, kernel, 1e-8)
    calls = svd_calls(monkeypatch)
    w = check_full_rank(BipartiteMap(bmap.matrix, bmap.shape))
    assert ((bmap.shape.dim, bmap.shape.dim), True) in calls
    assert w.kind == expected.kind
    np.testing.assert_array_equal(w.state, expected.state)
    np.testing.assert_array_equal(w.evidence.image_coefficients, expected.evidence.image_coefficients)
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


@pytest.mark.parametrize(
    "bmap,out",
    [
        (local_map(2, 3, seed=14), (2, 3)),
        (local_map(2, 3, seed=15, swap=True), (3, 2)),
        (local_map(2, 3, seed=15, swap=True), (2, 3)),
        (generalized_cnot(3), (3, 3)),
        (BipartiteMap(haar_unitary(9, seed=16), BipartiteShape(3, 3)), (3, 3)),
        (zero_column_map(), (2, 3)),
    ],
)
def test_stacked_image_table_matches_per_column_reference(bmap, out):
    out = BipartiteShape(*out)
    n, m = bmap.shape.n, bmap.shape.m
    ref = reference_image_table(bmap, out)
    table = build_image_table(bmap, output_shape=out)
    if isinstance(table, Witness):
        (i, j), kind = ref
        assert table.kind == kind
        np.testing.assert_array_equal(table.state, np.eye(n * m)[i * m + j])
        ev = _evidence(bmap, table.state, out, 1e-8)
        assert (table.evidence.input_rank, table.evidence.image_rank) == (
            ev.input_rank,
            ev.image_rank,
        )
        return
    assert isinstance(ref, dict)
    for (i, j), dec in ref.items():
        d, e = table.d_vecs[i, j], table.e_vecs[i, j]
        assert abs(np.vdot(dec.left_vectors[:, 0], d)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(dec.right_vectors[:, 0], e)) == pytest.approx(1.0, abs=1e-12)
        col = bmap.matrix[:, i * m + j]
        assert table.amps[i, j] == pytest.approx(np.vdot(np.kron(d, e), col), abs=1e-12)
        np.testing.assert_allclose(table.amps[i, j] * np.kron(d, e), col, atol=1e-12)


def test_image_the_fit_cannot_certify_still_matches_reference():
    # column (1, 1) has s2 = s3 = 0.8 tol: rank 1 for the SVD, but the rank-1
    # fit's misfit, about sqrt(2) * 0.8 tol, is above tol
    base = local_map(3, 3, seed=70).matrix.copy()
    u = haar_unitary(3, seed=71)
    v = haar_unitary(3, seed=72)
    image = u @ np.diag([1.0, 0.8e-8, 0.8e-8]) @ v
    base[:, 1 * 3 + 1] = image.reshape(-1) * np.linalg.norm(base[:, 4])
    bmap = BipartiteMap(base, BipartiteShape(3, 3))
    images = bmap.matrix.T.reshape(3, 3, 3, 3)
    certified = classifier._rank_one_fits(images, 1e-8)[2]
    assert not certified[1, 1] and certified.sum() == 8
    assert schmidt_rank(bmap.matrix[:, 4], (3, 3)) == 1
    test_stacked_image_table_matches_per_column_reference(bmap, (3, 3))


def test_controlled_phase_table_makes_no_full_stacked_svd(monkeypatch):
    phases = np.exp(2j * np.pi * np.linspace(0.1, 0.9, 16) ** 2)
    bmap = BipartiteMap(local_map(4, 4, seed=80).matrix * phases, BipartiteShape(4, 4))
    calls = svd_calls(monkeypatch)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING
    assert witness_checks_out(bmap, v.witness)
    stacked = [uv for shape, uv in calls if len(shape) == 3]
    assert stacked and not any(stacked)


def test_cnot_table_builds_but_cases_fail():
    table = build_image_table(cnot_map())
    assert not isinstance(table, Witness)
    assert not _pattern_holds(table, CASE_I, 1e-8)
    assert not _pattern_holds(table, CASE_II, 1e-8)


def test_pattern_holds_direct_and_swapped():
    direct = build_image_table(local_map(3, 3, seed=2))
    assert _pattern_holds(direct, CASE_I, 1e-8)
    assert not _pattern_holds(direct, CASE_II, 1e-8)
    swapped = build_image_table(local_map(3, 3, seed=3, swap=True))
    assert _pattern_holds(swapped, CASE_II, 1e-8)
    assert not _pattern_holds(swapped, CASE_I, 1e-8)


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
    # just above tol no constructive stage finds a witness, so the random
    # search does; it draws from a fixed stream, the same on every call
    bmap = perturb(random_local_map((2, 2), seed=1007, cond_cap=1e3), 1.5e-8, seed=32)
    found = []
    search = classifier._random_search_witness

    def recorded_search(*args):
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(classifier, "_random_search_witness", recorded_search)
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


@pytest.mark.parametrize("scale", [1e-180, 1e200])
def test_classify_phase_witness_at_extreme_scale(scale):
    grid = np.array([[1.0, 2.0], [3.0, 5.0]])
    bmap = BipartiteMap(np.diag(grid.reshape(-1)).astype(complex), BipartiteShape(2, 2))
    scaled = BipartiteMap(scale * bmap.matrix, bmap.shape)
    v = classify(scaled)
    assert v.kind == KIND_NOT_PRESERVING
    assert v.witness.kind == "NonFactorizablePhase"
    assert witness_checks_out(scaled, v.witness)


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
    # diagonal entries that do not split as mu_i * nu_j break separability
    grid = np.array([[1.0, 2.0], [3.0, 5.0]])
    bmap = BipartiteMap(np.diag(grid.reshape(-1)).astype(complex), BipartiteShape(2, 2))
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING
    assert v.witness.kind == "NonFactorizablePhase"
    assert witness_checks_out(bmap, v.witness)


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
    # |i, j> -> |i, j + i mod 3>: product basis images are product, but the
    # parallelism cascade fails just like for the qubit version
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


@pytest.mark.parametrize(
    "swap,witness_kind", [(False, WITNESS_KERNEL), (True, WITNESS_PRODUCT_TO_ENTANGLED)]
)
def test_classify_rank_gate_is_the_factor_product_ratio(swap, witness_kind):
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
            assert v.witness.kind == witness_kind
            assert witness_checks_out(bmap, v.witness)
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
def test_entangled_basis_image_of_an_uneven_map_builds_one_table(monkeypatch, make):
    # the own-layout table's witness is returned at once; the relabeled
    # layout's table is never built
    bmap = make()
    layouts = []
    real = classifier.build_image_table

    def recorded(bmap, tol, output_shape):
        layouts.append(output_shape.as_tuple())
        return real(bmap, tol, output_shape)

    monkeypatch.setattr(classifier, "build_image_table", recorded)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING
    assert v.witness.kind == WITNESS_PRODUCT_TO_ENTANGLED
    assert layouts == [bmap.shape.as_tuple()]
    assert witness_reverifies(bmap, v.witness)


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("swap", [False, True])
def test_accepted_map_never_computes_its_spectrum(scale, swap):
    base = local_map(3, 3, seed=19, swap=swap)
    bmap = BipartiteMap(scale * base.matrix, base.shape)
    v = classify(bmap)
    assert v.kind == (KIND_SWAP_LOCAL if swap else KIND_LOCAL)
    assert 1e-8 < v.rank_ratio <= 1.0
    assert "_spectrum" not in bmap.__dict__


@pytest.mark.parametrize(
    "matrix",
    [np.diag([0.0, 1.0, 1.0, 1.0]), np.zeros((4, 4))],
    ids=["rank-deficient", "zero"],
)
def test_vanishing_basis_image_decides_without_the_spectrum(matrix):
    bmap = BipartiteMap(matrix, BipartiteShape(2, 2))
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.rank_ratio is None
    assert v.witness.kind == WITNESS_KERNEL and v.detail == "map is rank deficient"
    assert "_spectrum" not in bmap.__dict__
    assert witness_checks_out(bmap, v.witness)
    assert witness_reverifies(bmap, v.witness)


def cnot_left_map(n, m, seed) -> BipartiteMap:
    """A random local map after the generalized CNOT |i, j> -> |i, i + j mod m>."""
    cnot = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(m):
            cnot[i * m + (i + j) % m, i * m + j] = 1.0
    return BipartiteMap(random_local_map((n, m), seed=seed).matrix @ cnot, BipartiteShape(n, m))


def cphase_map(n, m, seed, cond_cap=1e3) -> BipartiteMap:
    """A random local map after a diagonal of random phases."""
    phases = np.exp(2j * np.pi * split_rng(seed, 1).uniform(size=n * m))
    local = random_local_map((n, m), seed=seed, cond_cap=cond_cap)
    return BipartiteMap(local.matrix * phases, BipartiteShape(n, m))


def vanishing_entangled_image_map() -> BipartiteMap:
    """The identity with L|0,0> an entangled vector of norm 1e-20: the image
    has Schmidt rank 2 by its own spectrum, yet vanishes against ||L||_2."""
    matrix = np.eye(4, dtype=complex)
    matrix[:, 0] = 1e-20 * np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return BipartiteMap(matrix, BipartiteShape(2, 2))


REJECT_FAMILIES = {
    "cnot-left": cnot_left_map,
    "cphase": cphase_map,
    "perturbed": lambda n, m, seed: perturb(random_local_map((n, m), seed=seed), 1e-3, seed=seed + 1),
    "kernel-entangled": kernel_entangled_map,
}
REJECT_CASES = [
    pytest.param(cnot_map, False, id="cnot"),
    pytest.param(lambda: BipartiteMap(haar_unitary(4, seed=23), BipartiteShape(2, 2)), False, id="haar"),
    *(
        pytest.param(lambda make=make, n=n, m=m: make(n, m, seed=70 + n * m), False, id=f"{family}/{n}x{m}")
        for family, make in REJECT_FAMILIES.items()
        for n, m in ((2, 2), (2, 3), (3, 3))
    ),
    pytest.param(kernel_product_map, True, id="kernel-product"),
    pytest.param(vanishing_entangled_image_map, True, id="vanishing-entangled-image"),
]


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("make,deficient", REJECT_CASES)
def test_reject_reads_its_spectrum_only_to_prove_rank_deficiency(make, deficient, scale):
    # the witness comes from the image table, the phase grid or the
    # parallelism scan; the spectrum is read only by the rank check of a
    # map whose images factor as A x B (kernel-product) and by the
    # vanishing test of an image below tol * ||L||_F
    base = make()
    bmap = BipartiteMap(scale * base.matrix, base.shape)
    v = classify(bmap)
    assert v.kind == KIND_NOT_PRESERVING and v.witness is not None
    assert ("_spectrum" in bmap.__dict__) == deficient
    if deficient:
        assert v.witness.kind == WITNESS_KERNEL and v.detail == "map is rank deficient"
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
    assert v.kind == KIND_NOT_PRESERVING
    if family == "cphase":
        assert v.witness.kind == "NonFactorizablePhase"
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


def reference_parallelism_witness(bmap, table, tol):
    """The basis-pair scan as plain loops over pairs of image factors."""
    n, m = table.shape_in.n, table.shape_in.m
    d, e, out = table.d_vecs, table.e_vecs, table.shape_out

    def parallel(u, v):
        return abs(np.vdot(u, v)) >= 1.0 - tol

    def ket(p, q):
        v = np.zeros(n * m, dtype=complex)
        v[p] += 1.0
        v[q] += 1.0
        return v / np.sqrt(2)

    for i in range(n):
        for j in range(m):
            for l in range(j + 1, m):
                if not parallel(d[i, j], d[i, l]) and not parallel(e[i, j], e[i, l]):
                    state = ket(i * m + j, i * m + l)
                    ev = _evidence(bmap, state, out, tol)
                    if ev.input_rank == 1 and ev.image_rank >= 2:
                        return WITNESS_PRODUCT_TO_ENTANGLED, state
    for j in range(m):
        for i in range(n):
            for k in range(i + 1, n):
                if not parallel(d[i, j], d[k, j]) and not parallel(e[i, j], e[k, j]):
                    state = ket(i * m + j, k * m + j)
                    ev = _evidence(bmap, state, out, tol)
                    if ev.input_rank == 1 and ev.image_rank >= 2:
                        return WITNESS_PRODUCT_TO_ENTANGLED, state
    for i in range(n):
        for k in range(n):
            for j in range(m):
                for l in range(m):
                    if k == i or l == j:
                        continue
                    if parallel(d[i, j], d[k, l]) or parallel(e[i, j], e[k, l]):
                        state = ket(i * m + j, k * m + l)
                        ev = _evidence(bmap, state, out, tol)
                        if ev.input_rank >= 2 and ev.image_rank <= 1:
                            return "EntangledToProduct", state
    return None


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
    # one factor the same for every image: only a both-indices-differ pair
    # can witness, by mapping an entangled state to a product
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


def test_parallelism_scan_matches_loop_reference():
    kinds = set()
    for bmap in product_image_maps():
        for out in {bmap.shape.as_tuple(), bmap.shape.flipped().as_tuple()}:
            table = build_image_table(bmap, output_shape=out)
            if isinstance(table, Witness):
                continue
            ref = reference_parallelism_witness(bmap, table, 1e-8)
            w = _parallelism_witness(bmap, table, 1e-8)
            if ref is None:
                assert w is None
                continue
            assert w.kind == ref[0]
            np.testing.assert_array_equal(w.state, ref[1])
            kinds.add(w.kind)
    assert kinds == {WITNESS_PRODUCT_TO_ENTANGLED, "EntangledToProduct"}
