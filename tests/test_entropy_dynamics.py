import tracemalloc
import warnings

import numpy as np
import pytest

from unitarity_kit import entropy_dynamics
from unitarity_kit.entropy_dynamics import (
    KIND_ANTIUNITARY,
    KIND_NOT_PRESERVING,
    KIND_UNITARY,
    Superoperator,
    _check_images,
    _fit_conjugation,
    _input_spectra,
    _probe_states,
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


_NON_FINITE = [
    complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
    complex(0.0, np.inf), complex(-np.inf, 0.0), complex(0.0, -np.inf),
]


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", _NON_FINITE)
def test_superoperator_refuses_a_non_finite_entry_anywhere(d, where, bad):
    # the constructor's one sum of squares must see every entry, including
    # the first and the last of the array
    m = superop_from_conjugation(haar_unitary(d, seed=80)).matrix.copy()
    m.flat[{"first": 0, "middle": m.size // 2, "last": m.size - 1}[where]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamOutOfRange):
            Superoperator(matrix=m, dim=d)


@pytest.mark.parametrize("peak", [1e160, 1e300])
def test_superoperator_whose_squared_norm_overflows_is_accepted(peak):
    d = 3
    unitary = superop_from_conjugation(haar_unitary(d, seed=81)).matrix
    maps = {
        KIND_UNITARY: unitary,
        KIND_ANTIUNITARY: unitary @ superop_transpose(d).matrix,
        KIND_NOT_PRESERVING: superop_depolarizing(d, 0.5).matrix,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, m in maps.items():
            assert analyze(Superoperator(matrix=m, dim=d)).kind == kind
            large = m * (peak / np.abs(m).max())
            assert not np.vdot(large, large).real < np.inf
            assert analyze(Superoperator(matrix=large, dim=d)).kind == kind


def test_superoperator_stores_any_layout_c_contiguous():
    d = 4
    unitary = superop_from_conjugation(haar_unitary(d, seed=82), gain=1.3).matrix
    for m in (unitary, unitary @ superop_transpose(d).matrix):
        reference = analyze(Superoperator(matrix=np.ascontiguousarray(m), dim=d))
        assert reference.kind != KIND_NOT_PRESERVING
        for layout in (np.asfortranarray(m), np.ascontiguousarray(m.T).T, np.repeat(m, 2, axis=1)[:, ::2]):
            superop = Superoperator(matrix=layout, dim=d)
            assert superop.matrix.flags.c_contiguous
            np.testing.assert_array_equal(superop.matrix, m)
            verdict = analyze(superop)
            assert verdict.kind == reference.kind
            np.testing.assert_array_equal(verdict.unitary, reference.unitary)
            assert verdict.gain == reference.gain


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


@pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0 - 1e-12, 1.0])
def test_input_spectra_match_eigensolver(overlap):
    rng = split_rng(59, 0)
    phi1 = random_pure_state(3, rng)
    if overlap == 1.0:
        phi2 = phi1
    else:
        perp = random_pure_state(3, rng)
        perp -= np.vdot(phi1, perp) * phi1
        perp /= np.linalg.norm(perp)
        phi2 = overlap * np.exp(0.7j) * phi1 + np.sqrt(1.0 - overlap**2) * perp
    ps = np.array([0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0])
    lo, hi = _input_spectra(ps, 1.0 - abs(np.vdot(phi1, phi2)) ** 2)
    for p, a, b in zip(ps, lo, hi):
        m = p * pure_projector(phi1) + (1.0 - p) * pure_projector(phi2)
        np.testing.assert_allclose(np.linalg.eigvalsh(m)[-2:], [a, b], rtol=0.0, atol=1e-15)


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
    _, _, err = _fit_conjugation(Superoperator(matrix=m, dim=3), 1e-8)
    assert err == pytest.approx(3.6e-9, rel=0.05)
    verdict = analyze(Superoperator(matrix=m, dim=3))
    assert verdict.kind == KIND_UNITARY
    assert verdict.detail == "certified by reconstruction"


def _scan_witness_per_p(superop, phi1, phi2, grid_size):
    # reference: apply the map to every mixture on the grid
    p1, p2 = pure_projector(phi1), pure_projector(phi2)
    rows = []
    for p in np.linspace(0.0, 1.0, grid_size):
        rho = p * p1 + (1.0 - p) * p2
        s_in = von_neumann_entropy(rho)
        out = superop.apply(rho)
        h = (out + out.conj().T) / 2
        w = np.clip(np.linalg.eigvalsh(h), 0.0, None)
        s_out = -sum(x * np.log2(x) for x in w / w.sum() if x > 0.0)
        rows.append((abs(s_in - s_out), p, s_in, s_out))
    return rows


@pytest.mark.parametrize("grid_size", [21, 101])
def test_scan_witness_by_linearity_matches_per_p_application(grid_size):
    rng = split_rng(53, 0)
    phi1, phi2 = (random_pure_state(3, rng) for _ in range(2))
    depolarizer = superop_depolarizing(3, 0.6)
    m = np.diag([1.0, 2.0, 0.5]).astype(complex)
    unequal_gains = Superoperator(matrix=np.kron(m.conj(), m), dim=3)
    for superop in (depolarizer, unequal_gains):
        q1 = superop.apply(pure_projector(phi1))
        q2 = superop.apply(pure_projector(phi2))
        w = _scan_witness(phi1, q1, phi2, q2, grid_size=grid_size)
        rows = _scan_witness_per_p(superop, phi1, phi2, grid_size)
        top = max(r[0] for r in rows)
        if sorted(r[0] for r in rows)[-2] < top - 1e-12:
            # a unique maximum: the same mixing weight
            assert w.p == max(rows)[1]
        else:
            # tied to within rounding (the depolarizer gives p = 0 and p = 1
            # the same mismatch): any maximizer will do
            assert abs(w.entropy_in - w.entropy_out) == pytest.approx(top, abs=1e-12)
        _, _, s_in, s_out = next(r for r in rows if r[1] == w.p)
        assert w.entropy_in == pytest.approx(s_in, abs=1e-12)
        assert w.entropy_out == pytest.approx(s_out, abs=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
def test_single_state_witness_is_one_state_at_p_one(scale, monkeypatch):
    # the depolarizer maps a pure state to a mixed one: the witness is that
    # state alone, with one eigensolve of its image
    superop = Superoperator(matrix=superop_depolarizing(3, 0.5).matrix * scale, dim=3)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    verdict = analyze(superop)
    monkeypatch.undo()
    assert verdict.detail == "image of a pure state is not a positive rank-1 matrix"
    assert len(calls) == 1
    w = verdict.witness
    np.testing.assert_array_equal(w.phi2, w.phi1)
    assert w.p == 1.0
    assert w.entropy_in == 0.0
    image = superop.apply(pure_projector(w.phi1))
    spectrum = np.clip(np.linalg.eigvalsh((image + image.conj().T) / 2), 0.0, None)
    spectrum /= spectrum.sum()
    reference = -sum(x * np.log2(x) for x in spectrum if x > 0.0)
    assert w.entropy_out == pytest.approx(reference, abs=1e-12)
    # the image is 2/3 on the state and 1/6 on each orthogonal direction
    assert w.entropy_out == pytest.approx(-(2 / 3) * np.log2(2 / 3) - (1 / 3) * np.log2(1 / 6), abs=1e-12)


@pytest.mark.parametrize("d", [16, 24])
def test_fit_conjugation_allocates_far_less_than_the_map(d):
    u = haar_unitary(d, seed=61)
    for m in (
        superop_from_conjugation(u).matrix,
        superop_from_conjugation(u).matrix @ superop_transpose(d).matrix,
    ):
        superop = Superoperator(matrix=m, dim=d)
        for transpose in (False, True):
            tracemalloc.start()
            try:
                _fit_conjugation(superop, 1e-8, transpose=transpose)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < m.nbytes / 2


# ---------------------------------------------------------------------------
# scale-safe closed forms and the reject path's shortcuts

def test_closed_forms_hold_at_extreme_gain_scales():
    lo, hi = (1.0 - np.sqrt(0.75)) / 2.0, (1.0 + np.sqrt(0.75)) / 2.0
    for scale in (1e-200, 1e200):
        spec = output_spectrum(0.5, scale, scale, 0.5)
        assert spec.lo == pytest.approx(lo * scale, rel=1e-12, abs=0.0)
        assert spec.hi == pytest.approx(hi * scale, rel=1e-12, abs=0.0)
        assert mu2_relation(0.5, scale, scale, 0.5) == pytest.approx(0.5, rel=1e-12, abs=0.0)
    # nearly parallel images: lo = p(1-p) mu2^2 to first order, no cancellation
    spec = output_spectrum(0.5, 1.0, 1.0, 1e-9)
    assert spec.lo == pytest.approx(2.5e-19, rel=1e-12, abs=0.0)
    assert spec.hi == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_ratio_mismatch_scan_keeps_first_maximum():
    # loop reference over the validating wrappers; the grid repeats its points
    d1, d2, lam2 = 0.7, 1.9, 0.8
    grid = [0.3, 0.6, 0.3, 0.6, 0.9, 0.0]
    mu2 = mu2_relation(1.0, d1, d2, lam2)
    best_p, best = 0.0, 0.0
    for p in grid:
        s, t = input_spectrum(p, lam2), output_spectrum(p, d1, d2, mu2)
        mismatch = abs(s.lo / s.hi - t.lo / t.hi)
        if mismatch > best:
            best_p, best = p, mismatch
    p_star, mismatch = ratio_mismatch_scan(d1, d2, lam2, grid)
    assert p_star == best_p
    assert mismatch == pytest.approx(best, rel=1e-12)
    assert ratio_mismatch_scan(1.3, 1.3, lam2, [0.0, 1.0]) == (0.0, 0.0)
    with pytest.raises(ParamOutOfRange):
        ratio_mismatch_scan(d1, d2, lam2, [0.5, 1.5])


def _dense_fit(m4):
    # the fit without any bound, on a reading's view (M or M T): U as
    # _fit_conjugation reads it, then the least-squares gain and the
    # residual over the whole map at once; returns (gain, error)
    d = m4.shape[0]
    row = m4[0] / np.abs(m4[0]).max()
    w, _, vh = np.linalg.svd(row[:, np.argmax(np.linalg.norm(row, axis=(0, 2))), :])
    u = w @ vh
    model = np.einsum("jl,ik->jilk", u.conj(), u)
    gain = np.vdot(model, m4).real / d**2
    return gain, np.linalg.norm(m4 - gain * model) / np.linalg.norm(m4)


@pytest.mark.parametrize("d", range(2, 9))
def test_first_slab_bound_never_rejects_an_accepted_reading(d):
    tol = 1e-8
    rng = np.random.default_rng(700 + d)
    transpose = superop_transpose(d).matrix
    accepted = 0
    for k in range(6):
        m = superop_from_conjugation(haar_unitary(d, rng), float(rng.uniform(0.5, 2.0))).matrix
        if k % 2:
            m = m @ transpose
        noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        m = m + float(rng.uniform(0.3, 0.99)) * tol * np.linalg.norm(m) / np.linalg.norm(noise) * noise
        m4 = m.reshape((d,) * 4)
        superop = Superoperator(matrix=m, dim=d)
        for reading, view in enumerate((m4, m4.swapaxes(2, 3))):
            u, _, err = _fit_conjugation(superop, tol, transpose=bool(reading))
            reference = _dense_fit(view)[1]
            assert (err <= tol) == (reference <= tol)
            if reading == k % 2:
                accepted += reference <= tol
            else:
                # the wrong reading: the bound decides, so no U comes back
                assert u is None and tol < err < np.inf
    # noise near tol also perturbs the U read off the first slab, so a few
    # right readings miss tol in the dense fit as well
    assert accepted >= 4


def _conjugation_map(u, gain, transpose):
    m = superop_from_conjugation(u, gain).matrix
    return m @ superop_transpose(u.shape[0]).matrix if transpose else m


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("d", range(2, 9))
def test_one_pass_fit_matches_the_dense_fit_on_accepted_readings(d, transpose):
    tol = 1e-8
    rng = np.random.default_rng(800 + d)
    accepted = 0
    for level in (0.3, 0.5, 0.7, 0.8, 0.9, 0.99):
        m = _conjugation_map(haar_unitary(d, rng), float(rng.uniform(0.5, 2.0)), transpose)
        noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        m = m + level * tol * np.linalg.norm(m) / np.linalg.norm(noise) * noise
        m4 = m.reshape((d,) * 4)
        reference_gain, reference = _dense_fit(m4.swapaxes(2, 3) if transpose else m4)
        u, gain, err = _fit_conjugation(Superoperator(matrix=m, dim=d), tol, transpose=transpose)
        assert (err <= tol) == (reference <= tol)
        if reference <= tol:
            accepted += 1
            assert u is not None
            assert err == pytest.approx(reference, rel=1e-6)
            assert gain == pytest.approx(reference_gain, rel=1e-12)
    # the U read off the noisy first slab adds about a third to the error,
    # so the readings near tol miss it in the dense fit as well
    assert accepted >= 3


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("d", range(2, 9))
def test_one_pass_fit_rejects_a_late_departure(d, transpose):
    # the first slab is an exact conjugation, so only the slabs after it
    # can reject; no benchmark input departs this late
    tol = 1e-8
    rng = np.random.default_rng(900 + d)
    for j in sorted({1, d - 1}):
        m = _conjugation_map(haar_unitary(d, rng), 1.7, transpose)
        m4 = m.reshape((d,) * 4)
        noise = rng.standard_normal(m4[j].shape) + 1j * rng.standard_normal(m4[j].shape)
        m4[j] += 10.0 * tol * np.linalg.norm(m) / np.linalg.norm(noise) * noise
        u, gain, err = _fit_conjugation(Superoperator(matrix=m, dim=d), tol, transpose=transpose)
        assert u is None and gain is None
        assert tol < err < np.inf
        assert _dense_fit(m4.swapaxes(2, 3) if transpose else m4)[1] > tol
        assert analyze(Superoperator(matrix=m, dim=d)).kind == KIND_NOT_PRESERVING


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("d", range(2, 9))
def test_one_pass_fit_rejects_a_gain_that_changes_after_the_first_slab(d, transpose):
    # slab 0 at gain 1, every other slab at gain 2: each slab alone fits its
    # own gain exactly, but the first two slabs at one gain leave residual
    # d/2 (in units of the first slab's peak) against ||M||^2 = d + 4d(d-1),
    # so the gain shift rejects the reading once slab 1 is read
    m = _conjugation_map(haar_unitary(d, seed=1000 + d), 1.0, transpose)
    m4 = m.reshape((d,) * 4)
    m4[1:] *= 2.0
    u, gain, err = _fit_conjugation(Superoperator(matrix=m, dim=d), 1e-8, transpose=transpose)
    assert u is None and gain is None
    assert err == pytest.approx(np.sqrt(1.0 / (2.0 * (4 * d - 3))), rel=1e-9)


def _eigh_rank_one_test(h, tol):
    # the positive rank-1 test of a unit-scale Hermitian image by eigensolve
    lam, vecs = np.linalg.eigh(h)
    residual = np.linalg.norm(h - lam[-1] * np.outer(vecs[:, -1], vecs[:, -1].conj()))
    return lam[-1] > tol and residual <= tol * np.linalg.norm(h)


def test_rank_one_certificate_agrees_with_eigensolve(monkeypatch):
    tol = 1e-8
    rng = split_rng(71, 0)
    plus = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)
    rotation = haar_unitary(4, seed=72)
    psi, chi = rotation @ plus, rotation @ minus
    images = {}
    for scale in (1e-300, 1.0, 3.7, 1e300):
        images["rank one", scale] = scale * pure_projector(random_pure_state(4, rng))
    # a second eigenvalue below tol that the column fit overstates about
    # twofold: only the eigensolve accepts the image
    images["near tol"] = pure_projector(psi) + 0.9 * tol * pure_projector(chi)
    images["above tol"] = pure_projector(psi) + 1.5 * tol * pure_projector(chi)
    images["negative"] = -2.0 * pure_projector(psi)
    images["mixed"] = superop_depolarizing(4, 0.5).apply(pure_projector(psi))
    images["zero"] = np.zeros((4, 4), dtype=complex)
    images["traceless"] = np.outer(psi, chi.conj()) + np.outer(chi, psi.conj())
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    for name, image in images.items():
        calls.clear()
        failure, h, kets = _check_images([psi], image[None], tol)
        eigensolves = len(calls)
        assert (failure is None) == _eigh_rank_one_test(h[0], tol), name
        if failure is None:
            assert abs(np.vdot(kets[0], h[0] @ kets[0]) - np.linalg.eigvalsh(h[0])[-1]) <= 1e-12
        else:
            assert failure[1] == "image of a pure state is not a positive rank-1 matrix"
        assert eigensolves == (0 if name[0] == "rank one" else 1), name
    assert _check_images([psi], images["near tol"][None], tol)[0] is None


def test_lone_image_that_cannot_pass_skips_the_rank_one_fit(monkeypatch):
    tol = 1e-8
    d = 4
    rng = split_rng(83, 0)
    psi, chi = (random_pure_state(d, rng) for _ in range(2))
    basis = haar_unitary(d, seed=84)
    # its trace sits at the bound: (1 + 0.99 sqrt(d - 1) tol) ||h||_F
    edge = np.diag([1.0] + [0.99 * tol / np.sqrt(d - 1)] * (d - 1)).astype(complex)
    images = {
        "rank one": (pure_projector(psi), True),
        "edge": (edge, True),
        "rotated edge": (basis @ edge @ basis.conj().T, True),
        "depolarized": (superop_depolarizing(d, 0.1).apply(pure_projector(psi)), False),
        "two states": (0.7 * pure_projector(psi) + 0.3 * pure_projector(chi), False),
        "not hermitian": (pure_projector(psi) + 1e-3 * np.outer(psi, chi.conj()), False),
    }
    calls = []
    squared_norms = entropy_dynamics._squared_norms
    monkeypatch.setattr(entropy_dynamics, "_squared_norms", lambda x: calls.append(len(x)) or squared_norms(x))
    for name, (image, may_pass) in images.items():
        calls.clear()
        lone = _check_images([psi], image[None], tol)
        # the norms alone, or the norms and the fit's two
        assert len(calls) == (3 if may_pass else 1), name
        pair = _check_images([psi, psi], np.stack([image, image]), tol)
        assert (lone[0] is None) == (pair[0] is None), name
        if lone[0] is None:
            np.testing.assert_allclose(lone[2][0], pair[2][0], rtol=0, atol=1e-12)
        else:
            assert lone[0][1] == pair[0][1]
            assert lone[0][0].entropy_out == pair[0][0].entropy_out
    monkeypatch.undo()
    assert _check_images([psi], edge[None], tol)[0] is None


def test_gains_stage_reject_makes_one_eigensolve(monkeypatch):
    a = np.diag([1.0, 1.3, 0.7, 2.0, 0.5, 1.1, 0.9, 1.6]).astype(complex) @ haar_unitary(8, seed=73)
    superop = Superoperator(matrix=np.kron(a.conj(), a), dim=8)
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(np.asarray(a).shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    verdict = analyze(superop)
    monkeypatch.undo()
    assert verdict.kind == KIND_NOT_PRESERVING
    assert verdict.detail.startswith("pure-state gains differ")
    # one eigensolve of one 8 x 8 matrix: the reported mixture
    assert calls["eigh"] == []
    assert [np.prod(shape[:-2], dtype=int) for shape in calls["eigvalsh"]] == [1]
    w = verdict.witness
    assert abs(w.entropy_in - w.entropy_out) > 1e-3


@pytest.mark.parametrize("grid_size", [21, 101])
def test_closed_form_scan_matches_per_p_application(grid_size):
    rng = split_rng(74, 0)
    diagonal = np.diag([1.0, 2.0, 0.5]).astype(complex)
    skewed = np.diag([1.0, 3.0, 0.2]).astype(complex) @ haar_unitary(3, seed=75)
    for a in (diagonal, skewed):
        superop = Superoperator(matrix=np.kron(a.conj(), a), dim=3)
        for _ in range(4):
            phi1, phi2 = (random_pure_state(3, rng) for _ in range(2))
            q1 = superop.apply(pure_projector(phi1))
            q2 = superop.apply(pure_projector(phi2))
            psi1, psi2 = a @ phi1, a @ phi2
            mu2_sq = 1.0 - abs(np.vdot(psi1, psi2)) ** 2 / (np.vdot(psi1, psi1).real * np.vdot(psi2, psi2).real)
            rank_one = (np.trace(q1).real, np.trace(q2).real, mu2_sq)
            w = _scan_witness(phi1, q1, phi2, q2, grid_size=grid_size, rank_one=rank_one)
            rows = _scan_witness_per_p(superop, phi1, phi2, grid_size)
            top = max(r[0] for r in rows)
            if sorted(r[0] for r in rows)[-2] < top - 1e-12:
                assert w.p == max(rows)[1]
            else:
                assert abs(w.entropy_in - w.entropy_out) == pytest.approx(top, abs=1e-12)
            _, _, s_in, s_out = next(r for r in rows if r[1] == w.p)
            assert w.entropy_in == pytest.approx(s_in, abs=1e-12)
            assert w.entropy_out == pytest.approx(s_out, abs=1e-12)


def test_nonunitary_conjugation_rejected_alike_at_every_scale():
    a = np.diag([1.0, 2.5, 0.4, 1.2]).astype(complex) @ haar_unitary(4, seed=76)
    m = np.kron(a.conj(), a)
    reference = analyze(Superoperator(matrix=m, dim=4))
    assert reference.detail.startswith("pure-state gains differ")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300):
            verdict = analyze(Superoperator(matrix=m * scale, dim=4))
            assert verdict.kind == KIND_NOT_PRESERVING
            assert verdict.detail.startswith("pure-state gains differ")
            w = verdict.witness
            assert w.p == reference.witness.p
            assert w.entropy_out == pytest.approx(reference.witness.entropy_out, abs=1e-12)
            assert abs(w.entropy_in - w.entropy_out) > 1e-3


def test_witness_is_the_first_failing_probe():
    d = 4
    probes = _probe_states(d, split_rng(0, 0))
    # every pure image is mixed: the first probe is the witness
    mixture = _kraus_superop([haar_unitary(d, seed=k) / np.sqrt(2.0) for k in (77, 78)])
    for superop in (superop_depolarizing(d, 0.5), mixture):
        verdict = analyze(superop)
        assert verdict.detail == "image of a pure state is not a positive rank-1 matrix"
        np.testing.assert_array_equal(verdict.witness.phi1, probes[0])
    # rho -> A rho A^dag + B rho B^dag with B = |0><v|, v orthogonal to the
    # first probe: its image stays rank 1, every other probe's does not
    v = random_pure_state(d, split_rng(79, 0))
    v -= np.vdot(probes[0], v) * probes[0]
    a = np.diag([1.0, 2.0, 0.5, 1.5]).astype(complex)
    b = np.outer(np.eye(d)[0], v.conj())
    verdict = analyze(_kraus_superop([a, b]))
    assert verdict.detail == "image of a pure state is not a positive rank-1 matrix"
    np.testing.assert_array_equal(verdict.witness.phi1, probes[1])


def test_cached_probes_leave_each_witness_its_own_states():
    d = 4
    depolarizer = superop_depolarizing(d, 0.5)  # first probe's image is mixed
    squeezer = _kraus_superop([np.diag([1.0, 2.0, 0.5, 1.5]).astype(complex)])  # gains differ
    for superop, detail in (
        (depolarizer, "image of a pure state is not a positive rank-1 matrix"),
        (squeezer, "pure-state gains differ"),
    ):
        first = analyze(superop)
        reference = (first.witness.phi1.copy(), first.witness.phi2.copy(), first.witness.p)
        assert first.detail.startswith(detail)
        first.witness.phi1[:] = 7.0
        first.witness.phi2[:] = 7.0
        second = analyze(superop)
        assert second.detail == first.detail
        np.testing.assert_array_equal(second.witness.phi1, reference[0])
        np.testing.assert_array_equal(second.witness.phi2, reference[1])
        assert second.witness.p == reference[2]
        assert second.witness.phi1.flags.writeable and second.witness.phi2.flags.writeable


def _mixture_entropy(w) -> float:
    return von_neumann_entropy(w.p * pure_projector(w.phi1) + (1.0 - w.p) * pure_projector(w.phi2))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_replacement_channel_is_rejected_at_the_overlap_stage(d):
    # rho -> tr(rho) |psi><psi|: every pure state maps to the same pure
    # state with the same gain, so only the overlap moduli change
    psi = random_pure_state(d, split_rng(90 + d, 0))
    matrix = np.outer(vec_density(pure_projector(psi)), vec_density(np.eye(d)))
    verdict = analyze(Superoperator(matrix, d))
    assert verdict.kind == KIND_NOT_PRESERVING
    assert verdict.detail.startswith("overlap modulus changes by ")
    w = verdict.witness
    assert w.entropy_out == pytest.approx(0.0, abs=1e-12)
    assert w.entropy_in > 0.1
    assert w.entropy_in == pytest.approx(_mixture_entropy(w), abs=1e-12)


@pytest.mark.parametrize(
    "d,eps,seeds", [(3, 1e-8, (1, 2)), (3, 1e-8, (3, 4)), (2, 2e-8, (1, 2))]
)
def test_conjugation_plus_a_small_other_one_reaches_the_pairwise_stage(d, eps, seeds):
    # the added conjugation is just above tol: no reading fits, yet pure
    # states map to rank-1 images with equal gains and overlap moduli
    u, w = (haar_unitary(d, seed=s) for s in seeds)
    matrix = superop_from_conjugation(u).matrix + eps * superop_from_conjugation(w).matrix
    verdict = analyze(Superoperator(matrix, d))
    assert verdict.kind == KIND_NOT_PRESERVING
    assert verdict.detail == "no single conjugation reproduces the map"
    assert verdict.witness.entropy_in == pytest.approx(_mixture_entropy(verdict.witness), abs=1e-12)
