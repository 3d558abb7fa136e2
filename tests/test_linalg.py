import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitarity_kit.classifier import classify
from unitarity_kit.entropy_dynamics import analyze, superop_from_conjugation
from unitarity_kit.errors import NotHermitian, ParamOutOfRange, ShapeMismatch
from unitarity_kit.generators import cnot_map, haar_unitary, random_density, split_rng
from unitarity_kit.linalg import (
    hermitian_eigenvalues,
    kron,
    numerical_rank,
    partial_trace,
    svd,
)


def test_hermitian_eigenvalues_diagonal():
    np.testing.assert_allclose(hermitian_eigenvalues(np.diag([1.0, 0.0])), [1.0, 0.0])


def test_hermitian_eigenvalues_rank_one_projector():
    m = np.full((2, 2), 0.5)
    np.testing.assert_allclose(hermitian_eigenvalues(m), [1.0, 0.0], atol=1e-14)


def test_hermitian_eigenvalues_two_state_mixture():
    # p=1/2 equal mixture of |0> and (|0>+|1>)/sqrt2, written in the
    # {|0>, orthogonal} basis; closed form (1 +- sqrt(1/2))/2.
    m = np.array([[0.75, 0.25], [0.25, 0.25]])
    w = hermitian_eigenvalues(m)
    np.testing.assert_allclose(w, [0.8535533905932737, 0.1464466094067262], atol=1e-12)


def test_hermitian_eigenvalues_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigenvalues_requires_square():
    with pytest.raises(ShapeMismatch):
        hermitian_eigenvalues(np.zeros((2, 3)))


@given(st.integers(2, 12), st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_hermitian_eigendecomposition_reconstructs(d, seed):
    rng = split_rng(seed, 0)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (g + g.conj().T) / 2
    w, v = hermitian_eigenvalues(m, with_vectors=True)
    rebuilt = (v * w) @ v.conj().T
    assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)
    assert abs(w.sum() - np.trace(m).real) <= 1e-10 * max(1.0, abs(np.trace(m)))
    assert all(x >= y for x, y in zip(w, w[1:]))


def test_svd_identity():
    np.testing.assert_allclose(svd(np.eye(3)).singular_values, [1.0, 1.0, 1.0])


def test_svd_diagonal_positive():
    np.testing.assert_allclose(svd(np.diag([2.0, 0.5])).singular_values, [2.0, 0.5])


def test_svd_rectangular_hand_oracle():
    # M^T M = diag(1, 1), so both singular values are 1.
    m = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(svd(m).singular_values, [1.0, 1.0], atol=1e-14)


def test_svd_reconstruction_random():
    rng = split_rng(7, 0)
    for rows, cols in [(3, 3), (5, 2), (2, 7), (16, 16)]:
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        res = svd(m)
        assert np.linalg.norm(res.reconstruct() - m) <= 1e-10 * np.linalg.norm(m)
        k = len(res.singular_values)
        np.testing.assert_allclose(res.left_basis.conj().T @ res.left_basis, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(res.right_basis @ res.right_basis.conj().T, np.eye(k), atol=1e-12)


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((2, 2))) == 0


def test_numerical_rank_outer_product():
    m = np.outer([1.0, 2.0], [3.0, -1.0])
    assert numerical_rank(m) == 1


def test_numerical_rank_near_singular():
    # determinant is 1e-3, nonzero, so the matrix has full rank at 1e-6.
    m = np.array([[1.0, 2.0], [3.0, 6.0 + 1e-3]])
    assert numerical_rank(m, rel_tol=1e-6) == 2


def test_numerical_rank_validates_tolerance():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), rel_tol=1.5)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, 1.0, 5.0])
def test_deciders_refuse_tolerance_outside_unit_interval(tol):
    # the admissible range is numerical_rank's; NaN fails every comparison
    with pytest.raises(ParamOutOfRange):
        classify(cnot_map(), tol=tol)
    with pytest.raises(ParamOutOfRange):
        analyze(superop_from_conjugation(haar_unitary(2, seed=0)), tol=tol)


def test_kron_identities():
    np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    np.testing.assert_allclose(
        kron(np.diag([3.0, 5.0]), np.eye(2)), np.diag([3.0, 3.0, 5.0, 5.0])
    )


def test_kron_elementwise_definition():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    got = kron(x, z)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert got[i * 2 + j, k * 2 + l] == x[i, k] * z[j, l]


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 30))
@settings(max_examples=20, deadline=None)
def test_kron_associative(da, db, dc, seed):
    rng = split_rng(seed, 1)
    a, b, c = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (da, db, dc))
    np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


def test_partial_trace_product_state():
    rho_a = random_density(2, 2, seed=1)
    rho_b = random_density(3, 3, seed=2)
    full = kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(full, (2, 3), "B"), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(full, (2, 3), "A"), rho_b, atol=1e-12)


def test_partial_trace_bell_projector():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    np.testing.assert_allclose(partial_trace(rho, (2, 2), "B"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_two_term_state():
    # c|00> + sqrt(1-c^2)|11> reduces to diag(c^2, 1-c^2) on the A side.
    c = 0.6
    v = np.array([c, 0.0, 0.0, np.sqrt(1 - c * c)], dtype=complex)
    reduced = partial_trace(np.outer(v, v.conj()), (2, 2), "B")
    np.testing.assert_allclose(reduced, np.diag([0.36, 0.64]), atol=1e-12)


def test_partial_trace_preserves_trace():
    rho = random_density(6, 4, seed=5)
    for side in ("A", "B"):
        reduced = partial_trace(rho, (2, 3), side)
        assert abs(np.trace(reduced) - np.trace(rho)) <= 1e-12


def test_partial_trace_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        partial_trace(np.eye(5), (2, 3), "B")
