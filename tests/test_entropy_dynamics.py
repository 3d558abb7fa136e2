import numpy as np
import pytest

from unitarity_kit.entropy_dynamics import (
    KIND_ANTIUNITARY,
    KIND_NOT_PRESERVING,
    KIND_UNITARY,
    Superoperator,
    _fit_conjugation,
    _scan_witness,
    analyze,
    gain_equality_deficit,
    input_spectrum,
    mu2_relation,
    output_spectrum,
    ratio_mismatch_scan,
    superop_depolarizing,
    superop_from_conjugation,
    superop_transpose,
    unvec_density,
    vec_density,
)
from unitarity_kit.errors import ParamOutOfRange, ShapeMismatch
from unitarity_kit.generators import haar_unitary, random_density, random_pure_state, split_rng
from unitarity_kit.states import pure_projector, von_neumann_entropy


def test_vec_roundtrip_column_stacking():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    v = vec_density(rho)
    np.testing.assert_allclose(v, [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_allclose(unvec_density(v, 2), rho)


def test_superoperator_shape_validation():
    with pytest.raises(ShapeMismatch):
        Superoperator(matrix=np.eye(5), dim=2)


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, -np.inf)])
def test_superoperator_refuses_non_finite_entries(bad):
    m = np.eye(4, dtype=complex)
    m[2, 1] = bad
    with pytest.raises(ParamOutOfRange):
        Superoperator(matrix=m, dim=2)


def test_conjugation_superoperator_acts_correctly():
    u = haar_unitary(3, seed=1)
    s = superop_from_conjugation(u, gain=1.7)
    rho = random_density(3, 2, seed=2)
    np.testing.assert_allclose(s.apply(rho), 1.7 * u @ rho @ u.conj().T, atol=1e-12)


def test_transpose_superoperator_acts_correctly():
    s = superop_transpose(3)
    rho = random_density(3, 3, seed=3)
    np.testing.assert_allclose(s.apply(rho), rho.T, atol=1e-14)


def test_depolarizing_superoperator_acts_correctly():
    s = superop_depolarizing(2, 0.5)
    rho = random_density(2, 2, seed=4)
    np.testing.assert_allclose(s.apply(rho), 0.5 * rho + 0.5 * np.eye(2) / 2, atol=1e-14)


# ---------------------------------------------------------------------------
# closed-form spectra

def test_input_spectrum_pure_limit():
    spec = input_spectrum(0.0, 0.7)
    assert spec.lo == pytest.approx(0.0, abs=1e-15)
    assert spec.hi == pytest.approx(1.0)


def test_input_spectrum_orthogonal_equal_mixture():
    spec = input_spectrum(0.5, 1.0)
    assert spec.lo == pytest.approx(0.5)
    assert spec.hi == pytest.approx(0.5)


def test_input_spectrum_half_overlap():
    # eigensolver oracle on the explicit 2x2 matrix gives (1 -+ sqrt(1/2))/2
    spec = input_spectrum(0.5, 1.0 / np.sqrt(2.0))
    assert spec.lo == pytest.approx(0.1464466094067262, abs=1e-12)
    assert spec.hi == pytest.approx(0.8535533905932737, abs=1e-12)


def test_input_spectrum_validates():
    with pytest.raises(ParamOutOfRange):
        input_spectrum(1.2, 0.5)
    with pytest.raises(ParamOutOfRange):
        input_spectrum(0.5, 0.0)


def test_output_spectrum_reduces_to_input_spectrum():
    for p in (0.1, 0.4, 0.9):
        lam2 = 0.6
        a = input_spectrum(p, lam2)
        b = output_spectrum(p, 1.0, 1.0, lam2)
        assert b.lo == pytest.approx(a.lo, abs=1e-12)
        assert b.hi == pytest.approx(a.hi, abs=1e-12)


def test_output_spectrum_pure_limit():
    spec = output_spectrum(0.0, 1.3, 2.4, 0.5)
    assert spec.lo == pytest.approx(0.0, abs=1e-12)
    assert spec.hi == pytest.approx(2.4)


def test_output_spectrum_eigensolver_cross_check():
    # explicit states with the requested mu2, diagonalized directly
    p, d1, d2, mu2 = 0.5, 1.0, 2.0, 0.5
    spec = output_spectrum(p, d1, d2, mu2)
    psi1 = np.array([1.0, 0.0], dtype=complex)
    psi2 = np.array([np.sqrt(1 - mu2**2), mu2], dtype=complex)
    m = p * d1 * pure_projector(psi1) + (1 - p) * d2 * pure_projector(psi2)
    w = np.linalg.eigvalsh(m)
    np.testing.assert_allclose(w, [spec.lo, spec.hi], atol=1e-12)


def test_mu2_relation_equal_gains_is_constant():
    for p in (0.0, 0.3, 1.0):
        assert mu2_relation(p, 3.0, 3.0, 0.4) == pytest.approx(0.4)


def test_mu2_relation_endpoints():
    d1, d2, lam2 = 1.7, 0.6, 0.5
    assert mu2_relation(0.0, d1, d2, lam2) == pytest.approx(lam2 * np.sqrt(d2 / d1))
    assert mu2_relation(1.0, d1, d2, lam2) == pytest.approx(lam2 * np.sqrt(d1 / d2))


def test_gain_equality_deficit_zero_iff_equal():
    grid = [0.0, 0.5, 1.0]
    assert gain_equality_deficit(3.0, 3.0, 0.8, grid) == 0.0
    assert gain_equality_deficit(1.0, 4.0, 1.0, grid) == pytest.approx(1.5)


def test_gain_equality_deficit_monotone_in_gap():
    grid = np.linspace(0, 1, 5)
    gaps = [gain_equality_deficit(1.0, 1.0 + delta, 0.7, grid) for delta in (0.1, 0.4, 0.9)]
    assert gaps[0] < gaps[1] < gaps[2]


def test_gain_equality_deficit_validates_grid():
    with pytest.raises(ParamOutOfRange):
        gain_equality_deficit(1.0, 2.0, 0.5, [0.0, 1.0])


def test_ratio_mismatch_scan_finds_violation():
    p_star, mismatch = ratio_mismatch_scan(1.0, 2.0, 0.5)
    assert mismatch > 1e-7
    assert 0.0 <= p_star <= 1.0


# ---------------------------------------------------------------------------
# the analyzer

def test_analyze_recovers_unitary_conjugation():
    u = haar_unitary(4, seed=5)
    verdict = analyze(superop_from_conjugation(u, gain=1.0))
    assert verdict.kind == KIND_UNITARY
    assert verdict.gain == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(verdict.unitary.conj().T @ verdict.unitary - np.eye(4)) <= 1e-9
    overlaps = np.abs(np.diag(verdict.unitary.conj().T @ u))
    assert overlaps.min() >= 1.0 - 1e-9


def test_analyze_recovers_scaled_conjugations():
    rng = split_rng(41, 0)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        c = float(rng.uniform(0.5, 2.0))
        u = haar_unitary(d, rng)
        rng.integers(2**32)  # spent draw, once a witness seed: keeps later inputs fixed
        verdict = analyze(superop_from_conjugation(u, c))
        assert verdict.kind == KIND_UNITARY
        assert abs(verdict.gain - c) <= 1e-9
        assert np.abs(np.diag(verdict.unitary.conj().T @ u)).min() >= 1.0 - 1e-9


def test_analyze_transpose_is_antiunitary_with_identity():
    verdict = analyze(superop_transpose(3))
    assert verdict.kind == KIND_ANTIUNITARY
    assert verdict.gain == pytest.approx(1.0, abs=1e-10)
    assert np.abs(np.diag(verdict.unitary)).min() >= 1.0 - 1e-9


def test_analyze_antiunitary_conjugation():
    u = haar_unitary(3, seed=6)
    base = superop_transpose(3)
    s = Superoperator(matrix=superop_from_conjugation(u).matrix @ base.matrix, dim=3)
    verdict = analyze(s)
    assert verdict.kind == KIND_ANTIUNITARY
    assert np.abs(np.diag(verdict.unitary.conj().T @ u)).min() >= 1.0 - 1e-9


def test_analyze_depolarizer_witness_entropy():
    verdict = analyze(superop_depolarizing(2, 0.5))
    assert verdict.kind == KIND_NOT_PRESERVING
    w = verdict.witness
    assert w is not None
    assert w.entropy_in == pytest.approx(0.0, abs=1e-12)
    # image of any pure state is diag(3/4, 1/4)-like
    assert w.entropy_out == pytest.approx(0.8112781244591328, abs=1e-6)
    assert w.entropy_out > 0.4


def test_analyze_rejects_nonunitary_conjugation():
    # M rho M^dag with M = diag(1, 2): pure states stay pure but gains differ
    m = np.diag([1.0, 2.0]).astype(complex)
    s = Superoperator(matrix=np.kron(m.conj(), m), dim=2)
    verdict = analyze(s)
    assert verdict.kind == KIND_NOT_PRESERVING
    assert "gain" in verdict.detail
    w = verdict.witness
    assert abs(w.entropy_in - w.entropy_out) > 1e-3


def _kraus_superop(ops):
    d = ops[0].shape[0]
    m = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        m += np.kron(k.conj(), k)
    return Superoperator(matrix=m, dim=d)


def test_analyze_rejects_amplitude_damping():
    g = 0.4
    k0 = np.diag([1.0, np.sqrt(1 - g)]).astype(complex)
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]], dtype=complex)
    verdict = analyze(_kraus_superop([k0, k1]))
    assert verdict.kind == KIND_NOT_PRESERVING
    assert verdict.witness is not None


def test_analyze_rejects_mixture_of_conjugations():
    # a proper convex mixture of two unitary conjugations increases disorder
    u1, u2 = haar_unitary(3, seed=17), haar_unitary(3, seed=18)
    m = 0.5 * np.kron(u1.conj(), u1) + 0.5 * np.kron(u2.conj(), u2)
    verdict = analyze(Superoperator(matrix=m, dim=3))
    assert verdict.kind == KIND_NOT_PRESERVING
    w = verdict.witness
    assert abs(w.entropy_in - w.entropy_out) > 1e-6


def test_analyze_rejects_hermiticity_breaking_map():
    # hermitian-in, hermitian-out is checked on the samples, not assumed
    rng = split_rng(47, 0)
    junk = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    verdict = analyze(Superoperator(matrix=junk, dim=3))
    assert verdict.kind == KIND_NOT_PRESERVING
    assert verdict.witness is not None


def test_analyze_is_deterministic():
    u = haar_unitary(3, seed=8)
    s = superop_from_conjugation(u, 1.2)
    v1 = analyze(s)
    v2 = analyze(s)
    assert v1.kind == v2.kind
    np.testing.assert_array_equal(v1.unitary, v2.unitary)
    assert v1.gain == v2.gain
    # a reject's probe states come from a fixed stream: the same witness
    s = superop_depolarizing(3, 0.5)
    v1 = analyze(s)
    v2 = analyze(s)
    assert v1.kind == v2.kind == KIND_NOT_PRESERVING
    assert v1.detail == v2.detail
    w1, w2 = v1.witness, v2.witness
    np.testing.assert_array_equal(w1.phi1, w2.phi1)
    np.testing.assert_array_equal(w1.phi2, w2.phi2)
    assert (w1.p, w1.entropy_in, w1.entropy_out) == (w2.p, w2.entropy_in, w2.entropy_out)


def test_analyze_has_no_seed():
    s = superop_transpose(2)
    with pytest.raises(TypeError):
        analyze(s, seed=1)
    # a stale positional seed now lands on tol, which must lie in (0, 1)
    with pytest.raises(ParamOutOfRange):
        analyze(s, 7)


def test_accepted_verdicts_certify_entropy_preservation():
    # fresh mixed states keep their entropy after trace normalization
    rng = split_rng(43, 0)
    for builder in (
        lambda: superop_from_conjugation(haar_unitary(3, rng), 1.4),
        lambda: superop_transpose(3),
    ):
        s = builder()
        rng.integers(2**32)  # spent draw, once a witness seed: keeps later inputs fixed
        verdict = analyze(s)
        assert verdict.kind in (KIND_UNITARY, KIND_ANTIUNITARY)
        for _ in range(100):
            rho = random_density(3, int(rng.integers(1, 4)), seed=rng)
            out = s.apply(rho)
            out = out / np.trace(out).real
            assert von_neumann_entropy(out) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )


def test_analyze_witness_scan_is_reportable():
    verdict = analyze(superop_depolarizing(3, 0.8))
    assert verdict.kind == KIND_NOT_PRESERVING
    w = verdict.witness
    # the witness data re-verifies: both states are unit kets
    assert np.linalg.norm(w.phi1) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(w.phi2) == pytest.approx(1.0, abs=1e-10)
    assert 0.0 <= w.p <= 1.0


def test_analyze_verdict_kind_holds_at_every_scale():
    u = haar_unitary(3, seed=14)
    unitary = superop_from_conjugation(u).matrix
    antiunitary = unitary @ superop_transpose(3).matrix
    depolarizer = superop_depolarizing(3, 0.5).matrix
    for scale in (1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300):
        for m, kind in ((unitary, KIND_UNITARY), (antiunitary, KIND_ANTIUNITARY)):
            verdict = analyze(Superoperator(matrix=m * scale, dim=3))
            assert verdict.kind == kind
            assert verdict.gain / scale == pytest.approx(1.0, abs=1e-12)
            assert np.abs(np.diag(verdict.unitary.conj().T @ u)).min() >= 1.0 - 1e-12
        verdict = analyze(Superoperator(matrix=depolarizer * scale, dim=3))
        assert verdict.kind == KIND_NOT_PRESERVING
        w = verdict.witness
        assert abs(w.entropy_in - w.entropy_out) > 0.5


def test_analyze_verdict_near_tolerance_does_not_depend_on_seed():
    # 3e-9 relative noise on a conjugation: the certificate error sits just
    # below tol, where seeded fresh-state checks used to flip the verdict
    k = 32
    m = superop_from_conjugation(haar_unitary(3, seed=k)).matrix
    rng = np.random.default_rng(1000 + k)
    noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    m = m + 3e-9 * np.linalg.norm(m) / np.linalg.norm(noise) * noise
    _, _, err = _fit_conjugation(m.reshape((3,) * 4), 1e-8)
    assert err == pytest.approx(3.6e-9, rel=0.05)
    verdict = analyze(Superoperator(matrix=m, dim=3))
    assert verdict.kind == KIND_UNITARY
    assert verdict.detail == "certified by reconstruction"


def _scan_witness_per_p(superop, phi1, phi2, grid_size):
    # reference: apply the map to every mixture on the grid
    p1, p2 = pure_projector(phi1), pure_projector(phi2)
    best = None
    for p in np.linspace(0.0, 1.0, grid_size):
        rho = p * p1 + (1.0 - p) * p2
        s_in = von_neumann_entropy(rho)
        out = superop.apply(rho)
        h = (out + out.conj().T) / 2
        w = np.clip(np.linalg.eigvalsh(h), 0.0, None)
        s_out = -sum(x * np.log2(x) for x in w / w.sum() if x > 0.0)
        if best is None or abs(s_in - s_out) > best[0]:
            best = (abs(s_in - s_out), p, s_in, s_out)
    return best


@pytest.mark.parametrize("grid_size", [21, 101])
def test_scan_witness_by_linearity_matches_per_p_application(grid_size):
    rng = split_rng(53, 0)
    phi1, phi2 = (random_pure_state(3, rng) for _ in range(2))
    depolarizer = superop_depolarizing(3, 0.6)
    m = np.diag([1.0, 2.0, 0.5]).astype(complex)
    unequal_gains = Superoperator(matrix=np.kron(m.conj(), m), dim=3)
    for superop in (depolarizer, unequal_gains):
        w = _scan_witness(superop, phi1, phi2, grid_size=grid_size)
        _, p, s_in, s_out = _scan_witness_per_p(superop, phi1, phi2, grid_size)
        assert w.p == p
        assert w.entropy_in == pytest.approx(s_in, abs=1e-12)
        assert w.entropy_out == pytest.approx(s_out, abs=1e-12)
