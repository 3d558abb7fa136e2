import numpy as np
import pytest

from unitarity_kit.classifier import KIND_LOCAL, KIND_NOT_PRESERVING, KIND_SWAP_LOCAL, classify
from unitarity_kit.errors import ParamOutOfRange
from unitarity_kit.generators import (
    haar_unitary,
    perturb,
    random_density,
    random_invertible,
    random_local_map,
    random_pure_state,
    random_schmidt_rank_state,
    split_rng,
)
from unitarity_kit.schmidt import schmidt_rank
from unitarity_kit.states import check_density_matrix, von_neumann_entropy


def test_haar_unitary_scalar_case():
    u = haar_unitary(1, seed=0)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitary_is_unitary():
    u = haar_unitary(8, seed=1)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-12
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), np.ones(8), atol=1e-12)


def test_haar_unitary_deterministic():
    np.testing.assert_array_equal(haar_unitary(5, seed=42), haar_unitary(5, seed=42))


def test_haar_distribution_left_invariance():
    # |U[0,0]|^2 averages to 1/d, and stays there after a fixed left rotation
    d, trials = 3, 300
    rng = split_rng(2, 0)
    fixed = haar_unitary(d, seed=99)
    raw, rotated = [], []
    for _ in range(trials):
        u = haar_unitary(d, rng)
        raw.append(abs(u[0, 0]) ** 2)
        rotated.append(abs((fixed @ u)[0, 0]) ** 2)
    assert np.mean(raw) == pytest.approx(1.0 / d, abs=0.05)
    assert np.mean(rotated) == pytest.approx(1.0 / d, abs=0.05)


def test_random_invertible_unit_condition_cap():
    m = random_invertible(4, seed=3, cond_cap=1.0)
    s = np.linalg.svd(m, compute_uv=False)
    assert (s.max() - s.min()) / s.max() <= 1e-12


def test_random_invertible_respects_condition_cap():
    for cap in (10.0, 1e3):
        m = random_invertible(5, seed=4, cond_cap=cap)
        s = np.linalg.svd(m, compute_uv=False)
        assert s.max() / s.min() <= cap * (1 + 1e-12)
        assert s.min() >= s.max() / cap * (1 - 1e-12)


def test_random_invertible_full_rank():
    m = random_invertible(6, seed=5)
    assert np.linalg.matrix_rank(m) == 6


def test_random_pure_state_normalized():
    v = random_pure_state(7, seed=6)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_random_density_rank_and_validity():
    for rank in (1, 2, 4):
        rho = random_density(4, rank, seed=rank)
        check_density_matrix(rho)
        w = np.linalg.eigvalsh(rho)
        assert np.count_nonzero(w > 1e-10) == rank


def test_rank_one_density_has_zero_entropy():
    rho = random_density(2, 1, seed=7)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)


def test_random_density_validates_rank():
    with pytest.raises(ParamOutOfRange):
        random_density(3, 4, seed=0)


def test_random_local_map_classifies_local():
    v = classify(random_local_map((3, 3), swap=False, seed=8))
    assert v.kind == KIND_LOCAL


def test_random_local_map_classifies_swap_local():
    v = classify(random_local_map((2, 3), swap=True, seed=9))
    assert v.kind == KIND_SWAP_LOCAL


def test_random_schmidt_rank_state_hits_requested_rank():
    rng = split_rng(10, 0)
    for rank in (1, 2, 3):
        v = random_schmidt_rank_state((3, 4), rank, seed=rng)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert schmidt_rank(v, (3, 4)) == rank


def test_perturb_zero_is_identity():
    bmap = random_local_map((2, 2), seed=12)
    same = perturb(bmap, 0.0, seed=13)
    np.testing.assert_array_equal(same.matrix, bmap.matrix)


def test_perturbed_maps_lose_locality():
    rng = split_rng(14, 0)
    for _ in range(20):
        bmap = random_local_map((3, 3), seed=rng)
        noisy = perturb(bmap, 1e-2, seed=rng)
        assert classify(noisy).kind == KIND_NOT_PRESERVING


def test_generators_are_deterministic():
    for fn in (
        lambda s: haar_unitary(4, seed=s),
        lambda s: random_invertible(3, seed=s),
        lambda s: random_pure_state(5, seed=s),
        lambda s: random_density(3, 2, seed=s),
        lambda s: random_local_map((2, 2), seed=s).matrix,
        lambda s: random_schmidt_rank_state((2, 3), 2, seed=s),
    ):
        np.testing.assert_array_equal(fn(123), fn(123))
