import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitarity_kit.entropy_dynamics import input_spectrum
from unitarity_kit.errors import InvalidDensityMatrix, InvalidPureState
from unitarity_kit.generators import haar_unitary, random_density, split_rng
from unitarity_kit.states import check_density_matrix, check_pure_state, pure_projector, von_neumann_entropy

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def test_entropy_pure_projector_is_zero():
    assert von_neumann_entropy(pure_projector(KET0)) == 0.0


def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_entropy_quarter_three_quarter():
    # -(1/4 log2 1/4 + 3/4 log2 3/4)
    assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(
        0.8112781244591328, abs=1e-12
    )


def test_entropy_clamps_tiny_negatives():
    rho = np.diag([1.0 + 1e-12, -1e-12])
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


def test_entropy_rejects_genuinely_negative():
    with pytest.raises(InvalidDensityMatrix):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_entropy_rejects_wrong_trace():
    with pytest.raises(InvalidDensityMatrix):
        von_neumann_entropy(np.diag([0.5, 0.1]))


def test_mix_spectrum_matches_closed_form():
    # eigensolver oracle vs the closed-form two-state spectrum
    rng = split_rng(3, 0)
    for _ in range(50):
        p = float(rng.uniform())
        lam2 = float(rng.uniform(0.05, 1.0))
        phase = np.exp(2j * np.pi * rng.uniform())
        phi2 = np.sqrt(1 - lam2**2) * phase * KET0 + lam2 * KET1
        rho = p * pure_projector(KET0) + (1.0 - p) * pure_projector(phi2)
        w = np.linalg.eigvalsh(rho)
        spec = input_spectrum(p, lam2)
        np.testing.assert_allclose(w, [spec.lo, spec.hi], atol=1e-12)


@given(st.integers(2, 8), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_entropy_invariant_under_unitary_conjugation(d, seed):
    rng = split_rng(seed, 3)
    rho = random_density(d, max(1, d - 1), seed=rng)
    u = haar_unitary(d, rng)
    assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-9
    )


def test_entropy_invariant_under_transposition():
    rho = random_density(5, 3, seed=11)
    assert von_neumann_entropy(rho.T) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


def test_entropy_concavity_spot_check():
    rng = split_rng(13, 0)
    for _ in range(25):
        rho1 = random_density(4, 3, seed=rng)
        rho2 = random_density(4, 2, seed=rng)
        p = float(rng.uniform())
        mixed = von_neumann_entropy(p * rho1 + (1 - p) * rho2)
        parts = p * von_neumann_entropy(rho1) + (1 - p) * von_neumann_entropy(rho2)
        assert mixed >= parts - 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imaginary-inf"])
def test_pure_state_check_refuses_a_non_finite_entry(bad):
    with pytest.raises(InvalidPureState, match="non-finite"):
        check_pure_state([bad, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imaginary-inf"])
@pytest.mark.parametrize("check", [check_density_matrix, von_neumann_entropy], ids=["check", "entropy"])
def test_density_matrix_with_a_non_finite_entry_is_refused(check, bad):
    # [[nan, 0], [0, 1]] passed every gate and read as a pure state
    with pytest.raises(InvalidDensityMatrix, match="non-finite"):
        check(np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex))
