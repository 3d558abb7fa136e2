import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitarity_kit.classifier import classify
from unitarity_kit.entropy_dynamics import analyze, superop_from_conjugation
from unitarity_kit.errors import ParamOutOfRange
from unitarity_kit.generators import cnot_map, haar_unitary, split_rng
from unitarity_kit.linalg import kron, numerical_rank, svd
from unitarity_kit.quantitative import check_E1, check_E2
from unitarity_kit.schmidt import (
    entanglement_E,
    measure_E1,
    measure_E2,
    schmidt_decompose,
    schmidt_rank,
)


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


_BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
_TOL_CALLS = {
    "schmidt_decompose": lambda tol: schmidt_decompose(_BELL, (2, 2), tol=tol),
    "schmidt_rank": lambda tol: schmidt_rank(_BELL, (2, 2), tol=tol),
    "entanglement_E": lambda tol: entanglement_E(_BELL, (2, 2), tol=tol),
    "measure_E1": lambda tol: measure_E1(_BELL, (2, 2), tol=tol),
    "measure_E2": lambda tol: measure_E2(_BELL, (2, 2), tol=tol),
    "numerical_rank": lambda tol: numerical_rank(np.eye(2), rel_tol=tol),
    "check_E1": lambda tol: check_E1(np.eye(2), np.eye(2), tol=tol),
    "check_E2": lambda tol: check_E2(np.eye(2), np.eye(2), tol=tol),
}


@pytest.mark.parametrize("fn", list(_TOL_CALLS))
@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, 1.0, 5.0])
def test_library_helpers_refuse_tolerance_outside_unit_interval(tol, fn):
    # a NaN tolerance once gave the Bell state rank 0 and E = 0
    with pytest.raises(ParamOutOfRange):
        _TOL_CALLS[fn](tol)


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
