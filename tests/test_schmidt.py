import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitarity_kit.errors import ParamOutOfRange, ZeroVector
from unitarity_kit.generators import (
    haar_unitary,
    random_invertible,
    random_pure_state,
    random_schmidt_rank_state,
    split_rng,
)
from unitarity_kit.linalg import kron, numerical_rank
from unitarity_kit.schmidt import (
    BipartiteShape,
    entanglement_E,
    measure_E1,
    measure_E2,
    schmidt_decompose,
    schmidt_rank,
    swap_operator,
)
from unitarity_kit.states import pure_projector, von_neumann_entropy

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def two_term_state(c: float, shape=(2, 2)) -> np.ndarray:
    n, m = shape
    v = np.zeros(n * m, dtype=complex)
    v[0] = c
    v[-1] = np.sqrt(1.0 - c * c)
    return v


def test_product_state_has_rank_one():
    v = kron([1.0, 0.0], [0.0, 1.0])
    dec = schmidt_decompose(v, (2, 2))
    np.testing.assert_allclose(dec.coefficients, [1.0])
    assert dec.rank == 1


def test_bell_state_decomposition():
    dec = schmidt_decompose(BELL, (2, 2))
    np.testing.assert_allclose(dec.coefficients, [0.7071067811865476] * 2, atol=1e-12)
    assert dec.rank == 2


def test_two_term_state_coefficients_descend():
    dec = schmidt_decompose(two_term_state(0.6), (2, 2))
    np.testing.assert_allclose(dec.coefficients, [0.8, 0.6], atol=1e-12)
    assert dec.rank == 2


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        schmidt_decompose(np.zeros(4), (2, 2))


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 60))
@settings(max_examples=30, deadline=None)
def test_decomposition_reconstructs(n, m, seed):
    v = random_pure_state(n * m, seed=split_rng(seed, 0))
    dec = schmidt_decompose(v, (n, m))
    np.testing.assert_allclose(dec.reconstruct(), v, atol=1e-10)
    assert abs((dec.coefficients**2).sum() - 1.0) <= 1e-10
    # local bases orthonormal
    np.testing.assert_allclose(
        dec.left_vectors.conj().T @ dec.left_vectors, np.eye(dec.rank), atol=1e-12
    )
    np.testing.assert_allclose(
        dec.right_vectors.conj().T @ dec.right_vectors, np.eye(dec.rank), atol=1e-12
    )


def test_rank_matches_reshaped_numerical_rank():
    # oracle equivalence: Schmidt rank == matrix rank of the n x m reshape
    rng = split_rng(17, 0)
    for n, m in [(2, 2), (3, 4), (4, 3)]:
        for rank in range(1, min(n, m) + 1):
            v = random_schmidt_rank_state((n, m), rank, seed=rng)
            assert schmidt_rank(v, (n, m)) == rank
            assert numerical_rank(v.reshape(n, m)) == rank


def test_entanglement_of_product_state_is_zero():
    assert entanglement_E(kron([0, 1], [1, 0]), (2, 2)) == 0.0


def test_entanglement_of_balanced_two_term_state():
    assert entanglement_E(two_term_state(1 / np.sqrt(2)), (2, 2)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_entanglement_of_two_term_state():
    # binary entropy of 0.36: -(0.36 log2 0.36 + 0.64 log2 0.64)
    assert entanglement_E(two_term_state(0.6), (2, 2)) == pytest.approx(
        0.9426831892554922, abs=1e-12
    )


def test_entanglement_matches_reduced_entropy_both_sides():
    rng = split_rng(23, 0)
    for _ in range(20):
        v = random_pure_state(12, seed=rng)
        rho = pure_projector(v)
        e = entanglement_E(v, (3, 4))
        t = rho.reshape(3, 4, 3, 4)
        # the reduced states on A and on B
        for reduced in (np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)):
            assert e == pytest.approx(von_neumann_entropy(reduced), abs=1e-9)


def test_measure_E1_ignores_scale():
    assert measure_E1(3.0 * kron([1, 0], [0, 1]), (2, 2)) == 0.0
    assert measure_E1(0.2 * BELL, (2, 2)) == pytest.approx(1.0, abs=1e-12)
    assert measure_E1(5.0 * two_term_state(0.6), (2, 2)) == pytest.approx(
        0.9426831892554922, abs=1e-12
    )


def test_measure_E2_weights_by_squared_norm():
    assert measure_E2(BELL, (2, 2)) == pytest.approx(1.0, abs=1e-12)
    assert measure_E2(BELL / np.sqrt(2.0), (2, 2)) == pytest.approx(0.5, abs=1e-12)
    assert measure_E2(2.0 * two_term_state(0.6), (2, 2)) == pytest.approx(
        3.770732757021969, abs=1e-12
    )


def test_measures_reject_zero_vector():
    for fn in (measure_E1, measure_E2):
        with pytest.raises(ZeroVector):
            fn(np.zeros(4), (2, 2))


SCALES = [1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200]


@pytest.mark.parametrize("scale", SCALES)
def test_schmidt_helpers_hold_at_every_scale(scale):
    # squared entries underflow below about 1e-154 and overflow above 1e154
    dec = schmidt_decompose(scale * BELL, (2, 2))
    assert dec.rank == 2
    np.testing.assert_allclose(dec.coefficients / scale, [2**-0.5] * 2, rtol=1e-12)
    assert measure_E1(scale * BELL, (2, 2)) == pytest.approx(1.0, abs=1e-12)
    product = scale * kron([1, 0], [0, 1])
    assert measure_E1(product, (2, 2)) == 0.0
    assert measure_E2(product, (2, 2)) == 0.0
    # E2 of the Bell state is scale**2 ebits; it underflows to 0 or
    # overflows to inf exactly where scale**2 does
    with np.errstate(over="ignore", under="ignore"):
        expected = float(np.float64(scale) ** 2)
    assert measure_E2(scale * BELL, (2, 2)) == pytest.approx(expected, rel=1e-12)


def test_swap_operator_on_two_qubits():
    s = swap_operator((2, 2))
    ket01 = kron([1, 0], [0, 1])
    ket10 = kron([0, 1], [1, 0])
    ket00 = kron([1, 0], [1, 0])
    np.testing.assert_allclose(s @ ket01, ket10)
    np.testing.assert_allclose(s @ ket00, ket00)
    np.testing.assert_allclose(s @ s, np.eye(4))


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_swap_exchanges_factors(n, m, seed):
    rng = split_rng(seed, 4)
    a = random_pure_state(n, seed=rng)
    b = random_pure_state(m, seed=rng)
    s = swap_operator((n, m))
    np.testing.assert_allclose(s @ kron(a, b), kron(b, a), atol=1e-12)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(n * m), atol=1e-12)


def test_swap_preserves_entanglement():
    rng = split_rng(29, 0)
    s = swap_operator((3, 3))
    for _ in range(10):
        v = random_pure_state(9, seed=rng)
        assert entanglement_E(s @ v, (3, 3)) == pytest.approx(
            entanglement_E(v, (3, 3)), abs=1e-10
        )


def test_swap_unique_up_to_local_unitaries():
    # the swap built over rotated bases equals (local unitary) @ swap
    rng = split_rng(31, 0)
    n, m = 2, 3
    p, q = haar_unitary(n, rng), haar_unitary(m, rng)
    r, t = haar_unitary(m, rng), haar_unitary(n, rng)
    general = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(m):
            general += np.outer(np.kron(r[:, j], t[:, i]), np.kron(p[:, i], q[:, j]).conj())
    s = swap_operator((n, m))
    np.testing.assert_allclose(general, kron(r @ q.conj().T, t @ p.conj().T) @ s, atol=1e-12)


def test_rank_invariant_under_invertible_local_maps():
    # brute force over shapes and ranks
    rng = split_rng(37, 0)
    for n, m in [(2, 2), (3, 3), (4, 4), (3, 4)]:
        a = random_invertible(n, seed=rng, cond_cap=50)
        b = random_invertible(m, seed=rng, cond_cap=50)
        local = kron(a, b)
        for rank in range(1, min(n, m) + 1):
            for _ in range(10):
                v = random_schmidt_rank_state((n, m), rank, seed=rng)
                assert schmidt_rank(local @ v, (n, m)) == rank


def test_shape_validation():
    with pytest.raises(Exception):
        BipartiteShape(0, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imaginary-inf"])
@pytest.mark.parametrize(
    "decide", [schmidt_decompose, schmidt_rank, measure_E1, measure_E2], ids=["decompose", "rank", "E1", "E2"]
)
def test_a_non_finite_entry_is_refused_before_any_decomposition(decide, bad):
    # schmidt_decompose read [inf, 0, 0, 1] as rank 0, and measure_E1 warned
    with pytest.raises(ParamOutOfRange, match="non-finite"):
        decide(np.array([bad, 0.0, 0.0, 1.0], dtype=complex), (2, 2))
