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
    _scan_pairs,
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
from unitarity_kit.generators import (
    haar_unitary,
    random_density,
    random_invertible,
    random_pure_state,
    split_rng,
)
from unitarity_kit.linalg import ldexp
from unitarity_kit.states import pure_projector, von_neumann_entropy


def test_vec_roundtrip_column_stacking():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    v = vec_density(rho)
    np.testing.assert_allclose(v, [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_allclose(unvec_density(v, 2), rho)


def test_superoperator_shape_validation():
    with pytest.raises(ShapeMismatch):
        Superoperator(matrix=np.eye(5), dim=2)


@pytest.mark.parametrize("matrix,dim", [(np.ones((1, 1)), -1), (np.zeros((0, 0)), 0), (np.ones((4, 4)), -2)])
def test_superoperator_refuses_a_dim_below_one(matrix, dim):
    # (-1)**2 == 1 would pass the shape check, and dim 0 leaves no entry
    with pytest.raises(ShapeMismatch, match="dim must be >= 1"):
        Superoperator(matrix=matrix, dim=dim)


@pytest.mark.parametrize(
    "matrix,dim",
    [(np.eye(4), 2.0), (np.eye(4), np.float64(2.0)), (np.eye(1), True), (np.eye(1), np.True_),
     (np.eye(4), "2"), (np.eye(4), None)],
)
def test_superoperator_refuses_a_dim_that_is_not_an_integer(matrix, dim):
    # (2.0**2, 2.0**2) == (4, 4) and True**2 == 1 would pass the shape check
    with pytest.raises(ShapeMismatch, match="dim must be an integer"):
        Superoperator(matrix=matrix, dim=dim)


@pytest.mark.parametrize("dim", [np.int64(2), np.uint8(2), np.intp(2)])
def test_superoperator_takes_a_numpy_integer_dim_as_an_int(dim):
    superop = Superoperator(matrix=superop_depolarizing(2, 0.5).matrix, dim=dim)
    assert type(superop.dim) is int and superop.dim == 2
    verdict = analyze(superop)
    assert verdict.kind == KIND_NOT_PRESERVING
    assert verdict.witness.entropy_out == pytest.approx(0.8112781244591328, abs=1e-12)


def test_one_dimensional_superoperator_still_decides():
    # d = 1 has no 2x2 block: both readings are fitted as before
    verdict = analyze(Superoperator(matrix=[[2.0]], dim=1))
    assert verdict.kind == KIND_UNITARY and verdict.gain == 2.0
    assert analyze(Superoperator(matrix=[[-1.0]], dim=1)).kind == KIND_NOT_PRESERVING


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


@pytest.mark.parametrize(
    "helper,args",
    [
        (output_spectrum, (0.5, np.inf, 1.0, 0.5)),
        (output_spectrum, (0.5, 1.0, np.inf, 0.5)),
        (output_spectrum, (0.5, np.nan, 1.0, 0.5)),
        (mu2_relation, (0.5, np.inf, 1.0, 0.5)),
        (mu2_relation, (0.5, 1.0, np.inf, 0.5)),
        (ratio_mismatch_scan, (np.inf, 1.0, 0.5)),
        (ratio_mismatch_scan, (1.0, np.inf, 0.5)),
    ],
    ids=["output-d1", "output-d2", "output-nan", "mu2-d1", "mu2-d2", "scan-d1", "scan-d2"],
)
def test_closed_form_helpers_refuse_an_infinite_gain(helper, args):
    # an infinite gain passed the d > 0 check, then divided inf by inf
    with pytest.raises(ParamOutOfRange, match="finite"):
        helper(*args)


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


def _scan_per_p(superop, phi1, phi2):
    # reference: apply the map to every mixture on the scan's grid
    p1, p2 = pure_projector(phi1), pure_projector(phi2)
    rows = []
    for p in np.linspace(0.0, 1.0, 101):
        rho = p * p1 + (1.0 - p) * p2
        s_in = von_neumann_entropy(rho)
        out = superop.apply(rho)
        h = (out + out.conj().T) / 2
        w = np.clip(np.linalg.eigvalsh(h), 0.0, None)
        s_out = -sum(x * np.log2(x) for x in w / w.sum() if x > 0.0)
        rows.append((abs(s_in - s_out), p, s_in, s_out))
    return rows


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


def _count_eigensolves(monkeypatch, superop):
    """analyze(superop) and the shapes of its eigh and eigvalsh inputs."""
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(np.asarray(a).shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    verdict = analyze(superop)
    monkeypatch.undo()
    return verdict, calls


def test_gains_stage_reject_makes_one_eigensolve(monkeypatch):
    a = np.diag([1.0, 1.3, 0.7, 2.0, 0.5, 1.1, 0.9, 1.6]).astype(complex) @ haar_unitary(8, seed=73)
    superop = Superoperator(matrix=np.kron(a.conj(), a), dim=8)
    verdict, calls = _count_eigensolves(monkeypatch, superop)
    assert verdict.kind == KIND_NOT_PRESERVING
    assert verdict.detail.startswith("pure-state gains differ")
    # one eigensolve of one 8 x 8 matrix: the reported mixture
    assert calls["eigh"] == []
    assert [np.prod(shape[:-2], dtype=int) for shape in calls["eigvalsh"]] == [1]
    w = verdict.witness
    assert abs(w.entropy_in - w.entropy_out) > 1e-3


@pytest.mark.parametrize("all_pairs", [False, True])
def test_closed_form_scan_matches_per_p_application(all_pairs):
    rng = split_rng(74, 0)
    diagonal = np.diag([1.0, 2.0, 0.5]).astype(complex)
    skewed = np.diag([1.0, 3.0, 0.2]).astype(complex) @ haar_unitary(3, seed=75)
    for a in (diagonal, skewed):
        superop = Superoperator(matrix=np.kron(a.conj(), a), dim=3)
        phis = [random_pure_state(3, rng) for _ in range(6)]
        images = np.stack([superop.apply(pure_projector(phi)) for phi in phis])
        kets = np.stack([a @ phi / np.linalg.norm(a @ phi) for phi in phis])
        gains = np.trace(images, axis1=1, axis2=2).real
        pairs = [np.triu_indices(len(phis), 1)] if all_pairs else [([k], [k + 1]) for k in (0, 2, 4)]
        for first, second in pairs:
            w = _scan_pairs(phis, images, kets, gains, first, second)
            rows = [
                (*row, (k, l))
                for k, l in zip(first, second)
                for row in _scan_per_p(superop, phis[k], phis[l])
            ]
            pair = next(
                (k, l)
                for k, l in zip(first, second)
                if np.array_equal(w.phi1, phis[k]) and np.array_equal(w.phi2, phis[l])
            )
            top = max(r[0] for r in rows)
            if sorted(r[0] for r in rows)[-2] < top - 1e-12:
                # a unique maximum: the same pair and mixing weight
                _, p, _, _, best = max(rows)
                assert (w.p, pair) == (p, best)
            else:
                assert abs(w.entropy_in - w.entropy_out) == pytest.approx(top, abs=1e-12)
            _, _, s_in, s_out, _ = next(r for r in rows if r[4] == pair and r[1] == w.p)
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
    basis = np.eye(d, dtype=complex)
    # every pure image is mixed: the basis ket |0> is the witness
    mixture = _kraus_superop([haar_unitary(d, seed=k) / np.sqrt(2.0) for k in (77, 78)])
    for superop in (superop_depolarizing(d, 0.5), mixture):
        verdict = analyze(superop)
        assert verdict.detail == "image of a pure state is not a positive rank-1 matrix"
        np.testing.assert_array_equal(verdict.witness.phi1, basis[0])
    # rho -> A rho A^dag + B rho B^dag with B = |0><v|, v orthogonal to |0>:
    # the image of |0> stays rank 1, that of every other basis ket does not
    v = random_pure_state(d, split_rng(79, 0))
    v[0] = 0.0
    a = np.diag([1.0, 2.0, 0.5, 1.5]).astype(complex)
    b = np.outer(basis[0], v.conj())
    verdict = analyze(_kraus_superop([a, b]))
    assert verdict.detail == "image of a pure state is not a positive rank-1 matrix"
    np.testing.assert_array_equal(verdict.witness.phi1, basis[1])


@pytest.mark.parametrize("strength", [1.0, 0.5])
def test_witness_is_the_first_failing_haar_probe_when_the_basis_images_pass(strength):
    # rho -> (1 - s) rho + s diag(rho) keeps every basis projector, so the
    # basis set hands over, and the first Haar probe's image is mixed
    d = 4
    probes = _probe_states(d, split_rng(0, 0))
    dephasing = np.diag([1.0 if i == j else 1.0 - strength for j in range(d) for i in range(d)])
    verdict = analyze(Superoperator(dephasing.astype(complex), d))
    assert verdict.detail == "image of a pure state is not a positive rank-1 matrix"
    np.testing.assert_array_equal(verdict.witness.phi1, probes[0])
    np.testing.assert_array_equal(verdict.witness.phi2, probes[0])


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


def _replacement_channel(d):
    # rho -> tr(rho) |psi><psi|: every pure state maps to the same pure
    # state with the same gain, so only the overlap moduli change
    psi = random_pure_state(d, split_rng(90 + d, 0))
    return Superoperator(np.outer(vec_density(pure_projector(psi)), vec_density(np.eye(d))), d)


def _conjugation_plus_another(d, eps, seeds):
    # the added conjugation is just above tol: no reading fits, yet pure
    # states map to rank-1 images with equal gains and overlap moduli
    u, w = (haar_unitary(d, seed=s) for s in seeds)
    return Superoperator(superop_from_conjugation(u).matrix + eps * superop_from_conjugation(w).matrix, d)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_replacement_channel_is_rejected_at_the_overlap_stage(d):
    verdict = analyze(_replacement_channel(d))
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
    verdict = analyze(_conjugation_plus_another(d, eps, seeds))
    assert verdict.kind == KIND_NOT_PRESERVING
    assert verdict.detail == "no single conjugation reproduces the map"
    assert verdict.witness.entropy_in == pytest.approx(_mixture_entropy(verdict.witness), abs=1e-12)


@pytest.mark.parametrize(
    "superop,stage",
    [
        (_replacement_channel(8), "overlap modulus changes by "),
        (_conjugation_plus_another(8, 1e-8, (1, 2)), "no single conjugation reproduces the map"),
    ],
    ids=["overlap", "pairwise"],
)
def test_pair_stage_reject_makes_one_eigensolve(monkeypatch, superop, stage):
    verdict, calls = _count_eigensolves(monkeypatch, superop)
    assert verdict.kind == KIND_NOT_PRESERVING
    assert verdict.detail.startswith(stage)
    # every pair is scanned in closed form; only the reported mixture, one
    # 8 x 8 matrix, has its eigenvalues taken (an image the rank-1 fit
    # leaves uncertified near tol still takes its own eigh)
    assert calls["eigvalsh"] == [(8, 8)]
    assert verdict.witness.entropy_in == pytest.approx(_mixture_entropy(verdict.witness), abs=1e-12)


def test_negated_conjugation_never_reports_a_nan_witness():
    # -conj(U) x U maps every pure state to minus a projector: the first
    # probe fails the rank-1 stage, and when its image's clipped spectrum
    # sums to 0 no state is left after normalization, so there is no witness
    missing = 0
    for d in (2, 3, 4):
        for k in range(20):
            superop = Superoperator(-superop_from_conjugation(haar_unitary(d, seed=k)).matrix, d)
            verdict = analyze(superop)
            assert verdict.kind == KIND_NOT_PRESERVING
            assert verdict.detail.startswith("image of a pure state is not a positive rank-1 matrix")
            w = verdict.witness
            assert (w is None) == verdict.detail.endswith("; no witness found")
            if w is None:
                missing += 1
            else:
                assert np.isfinite([w.p, w.entropy_in, w.entropy_out]).all()
                # the basis images, -|a><a| with noise, have no second
                # eigenvalue above tol times the largest modulus: the Haar
                # set decides
                assert _is_haar_probe(w.phi1, d)
    assert missing > 0


# ---------------------------------------------------------------------------
# the realignment block tests


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


def _same_analysis(v, ref) -> bool:
    """Whether two verdicts agree in every field, bit for bit."""
    if (v.kind, v.detail) != (ref.kind, ref.detail):
        return False
    if not (_same_bits(v.unitary, ref.unitary) and _same_bits(v.gain, ref.gain)):
        return False
    if v.witness is None or ref.witness is None:
        return v.witness is ref.witness
    fields = ("phi1", "phi2", "p", "entropy_in", "entropy_out")
    return all(_same_bits(getattr(v.witness, f), getattr(ref.witness, f)) for f in fields)


def _counted_fits(monkeypatch) -> list:
    """The transpose flag of every fit analyze runs, in order."""
    calls = []
    real_fit = entropy_dynamics._fit_conjugation

    def counting(superop, tol, transpose=False):
        calls.append(transpose)
        return real_fit(superop, tol, transpose)

    monkeypatch.setattr(entropy_dynamics, "_fit_conjugation", counting)
    return calls


def _block_family(family, d):
    seed = 1100 + d
    u, w = haar_unitary(d, seed=seed), haar_unitary(d, seed=seed + 50)
    if family == "depolarizer":
        return superop_depolarizing(d, 0.3).matrix
    if family == "mixture":
        return 0.4 * superop_from_conjugation(u).matrix + 0.6 * superop_from_conjugation(w).matrix
    if family == "antiunitary":
        return superop_from_conjugation(u, 1.7).matrix @ superop_transpose(d).matrix
    v = random_invertible(d, seed=seed, cond_cap=10.0)
    return np.kron(v.conj(), v)  # a conjugation by a non-unitary V


@pytest.mark.parametrize(
    "family,fits",
    [("depolarizer", []), ("mixture", []), ("antiunitary", [True]), ("nonunitary", [False])],
)
def test_blocks_skip_the_fits_they_rule_out_and_change_no_verdict(monkeypatch, family, fits):
    maps = [(scale * _block_family(family, d), d) for d in (2, 3, 4, 8) for scale in (1.0, 1e-300, 1e300)]
    calls = _counted_fits(monkeypatch)
    verdicts = []
    for m, d in maps:
        calls.clear()
        verdicts.append(analyze(Superoperator(m, d)))
        # depolarizers and mixtures run no fit, an antiunitary map only its
        # own, a non-unitary conjugation only the unitary one
        assert calls == fits
    # the verdict each map gets when every fit runs, bit for bit
    monkeypatch.setattr(entropy_dynamics, "block_beyond", lambda *args: False)
    for (m, d), v in zip(maps, verdicts, strict=True):
        calls.clear()
        ref = analyze(Superoperator(m, d))
        assert calls == [False, True][: 1 + (ref.kind != KIND_UNITARY)]
        assert v.kind == (KIND_ANTIUNITARY if family == "antiunitary" else KIND_NOT_PRESERVING)
        assert _same_analysis(v, ref)


_BLOCKS = {
    # entries (row, column) of M, as [[p, q], [r, s]], for each d
    "row": lambda d: [(0, 0), (0, 1), (0, d), (0, d + 1)],
    "unitary": lambda d: [(0, 0), (1, 0), (0, d), (1, d)],
    "antiunitary": lambda d: [(0, 0), (1, 0), (0, 1), (1, 1)],
}


def _aimed_at(m: np.ndarray, entries, size: float) -> np.ndarray:
    """m with the four entries moved by size (Frobenius) along the second
    singular pair of the 2x2 block they form."""
    rows, cols = np.array(entries).T.reshape(2, 2, 2)
    u, _, vh = np.linalg.svd(m[rows, cols])
    moved = m.copy()
    moved[rows, cols] += size * np.outer(u[:, 1], vh[1])
    return moved


@pytest.mark.parametrize("j", [0, -1000, 1000])
@pytest.mark.parametrize("block", ["row", "own"])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_blocks_never_rule_out_a_reading_that_accepts(monkeypatch, d, transpose, block, j):
    # an accepted reading has s_2 of its realignment at most tol ||M||_F,
    # below the blocks' threshold 2 tol ||M||_F
    tol = 1e-8
    kind = KIND_ANTIUNITARY if transpose else KIND_UNITARY
    entries = _BLOCKS["row" if block == "row" else "antiunitary" if transpose else "unitary"](d)
    base = _conjugation_map(haar_unitary(d, seed=1200 + d), 1.3, transpose)
    norm = np.linalg.norm(base)
    quiet = [Superoperator(ldexp(_aimed_at(base, entries, f * tol * norm), j), d) for f in (0.5, 0.99)]
    for superop in quiet:
        assert (kind, transpose) in entropy_dynamics._readings(superop, tol)
    verdicts = [analyze(superop, tol) for superop in quiet]
    assert verdicts[0].kind == kind
    # for d <= 3 the slice that U is read off holds aimed entries, which
    # lifts the fit's own error at 0.99 tol above tol
    assert verdicts[1].kind == kind or d <= 3
    # the same aim at 1e-5 ||M||_F takes that reading out of reach
    loud = Superoperator(ldexp(_aimed_at(base, entries, 1e-5 * norm), j), d)
    assert (kind, transpose) not in entropy_dynamics._readings(loud, tol)
    assert _fit_conjugation(loud, tol, transpose)[0] is None
    verdicts.append(analyze(loud, tol))
    assert verdicts[-1].kind == KIND_NOT_PRESERVING
    # each verdict is the one every fit gives, bit for bit
    monkeypatch.setattr(entropy_dynamics, "block_beyond", lambda *args: False)
    for superop, v in zip([*quiet, loud], verdicts, strict=True):
        assert _same_analysis(v, analyze(superop, tol))


# ---------------------------------------------------------------------------
# the basis set


def _no_probe_images(*args):
    raise AssertionError("the Haar probe images were computed")


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("family", ["depolarizer", "mixture", "nonunitary"])
def test_basis_set_decides_without_a_product_with_the_map(monkeypatch, family, d):
    tol = 1e-8
    reference = None
    for j in (0, -1000, 900):
        superop = Superoperator(ldexp(_block_family(family, d), j), d)
        monkeypatch.setattr(entropy_dynamics, "_probe_images", _no_probe_images)
        verdict, calls = _count_eigensolves(monkeypatch, superop)
        if d == 1:
            # every one of these maps is a positive scalar at d = 1
            assert verdict.kind == KIND_UNITARY
            continue
        assert verdict.kind == KIND_NOT_PRESERVING
        gains = family == "nonunitary"
        stage = "pure-state gains differ" if gains else "image of a pure state is not a positive rank-1"
        assert verdict.detail.startswith(stage)
        # the eigensolve of _check_images that the claim reads (none where
        # the rank-1 fit certifies every image), and the witness's own
        assert calls["eigh"] == ([] if gains else [(d, d)])
        assert calls["eigvalsh"] == [(d, d)]
        w = verdict.witness
        for phi in (w.phi1, w.phi2):
            assert np.count_nonzero(phi) == 1 and 1.0 in phi
        rho = w.p * pure_projector(w.phi1) + (1.0 - w.p) * pure_projector(w.phi2)
        image = superop.apply(rho)
        image = (image + image.conj().T) / (2 * np.trace(image).real)
        assert w.entropy_in == pytest.approx(von_neumann_entropy(rho), abs=1e-9)
        assert w.entropy_out == pytest.approx(von_neumann_entropy(image), abs=1e-9)
        assert abs(w.entropy_out - w.entropy_in) > 1e-3
        # the images are exact columns of M * 2^-k: the same witness at every scale
        reference = reference or w
        fields = ("phi1", "phi2", "p", "entropy_in", "entropy_out")
        assert all(_same_bits(getattr(w, f), getattr(reference, f)) for f in fields)


def _random_phase_map(d, seed):
    # multiplies each entry of rho by its own phase
    return np.diag(np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=d * d)))


def _is_haar_probe(phi, d) -> bool:
    return any(np.array_equal(phi, probe) for probe in entropy_dynamics._fixed_probes(d)[0])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_random_phase_maps_keep_their_haar_witnesses(d):
    # the basis images e^(i t) |a><a| are not Hermitian, so they claim
    # nothing and the Haar set decides
    for seed in range(10):
        verdict = analyze(Superoperator(_random_phase_map(d, seed), d))
        assert verdict.kind == KIND_NOT_PRESERVING
        w = verdict.witness
        assert (w is None) == verdict.detail.endswith("; no witness found")
        assert w is None or (_is_haar_probe(w.phi1, d) and _is_haar_probe(w.phi2, d))
