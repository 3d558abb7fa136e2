import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from unitarity_kit import quantitative
from unitarity_kit.classifier import classify
from unitarity_kit.errors import ParamOutOfRange, RankDeficient, ShapeMismatch
from unitarity_kit.generators import (
    haar_unitary,
    random_invertible,
    random_local_map,
    random_pure_state,
    split_rng,
)
from unitarity_kit.linalg import DEFAULT_RANK_TOL, kron, svd
from unitarity_kit.quantitative import (
    check_E1,
    check_E2,
    psi_c,
    psi_c_entanglement,
    ratio_deficit,
    ratio_deficit_root,
    ratio_deficit_sign_changes,
)
from unitarity_kit.schmidt import entanglement_E, measure_E1, measure_E2

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_psi_c_product_limit():
    v = psi_c(1.0, (2, 2))
    np.testing.assert_allclose(v, [1, 0, 0, 0])
    assert entanglement_E(v, (2, 2)) == 0.0


def test_psi_c_balanced_is_maximally_entangled():
    v = psi_c(INV_SQRT2, (3, 2))
    assert entanglement_E(v, (3, 2)) == pytest.approx(1.0, abs=1e-12)


def test_psi_c_validates_c():
    with pytest.raises(ParamOutOfRange):
        psi_c(1.2, (2, 2))


def test_psi_c_image_is_already_schmidt_decomposed():
    # A (x) B maps the probe onto c*l1*m1 |e1 f1> + ln*mm*sqrt(1-c^2) |en fm>
    rng = split_rng(3, 0)
    a = random_invertible(3, seed=rng, cond_cap=20)
    b = random_invertible(2, seed=rng, cond_cap=20)
    ra, rb = svd(a), svd(b)
    for c in (0.3, 0.6, INV_SQRT2):
        state = psi_c(c, (3, 2), bases=(ra.right_basis, rb.right_basis))
        image = kron(a, b) @ state
        expected = c * ra.singular_values[0] * rb.singular_values[0] * np.kron(
            ra.left_basis[:, 0], rb.left_basis[:, 0]
        ) + ra.singular_values[-1] * rb.singular_values[-1] * np.sqrt(1 - c * c) * np.kron(
            ra.left_basis[:, -1], rb.left_basis[:, -1]
        )
        np.testing.assert_allclose(image, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# E1

def test_check_E1_accepts_scaled_local_unitaries():
    ua, ub = haar_unitary(2, seed=4), haar_unitary(3, seed=5)
    r = check_E1(3.0 * ua, ub)
    assert r.preserved
    assert r.certificate.scalar == pytest.approx(3.0, abs=1e-9)
    for u in (r.certificate.unitary_a, r.certificate.unitary_b):
        d = u.shape[0]
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)


def test_check_E1_ignores_separate_scales():
    ua, ub = haar_unitary(2, seed=6), haar_unitary(2, seed=7)
    assert check_E1(ua, 5.0 * ub).preserved


def test_check_E1_rejects_unbalanced_spectrum():
    r = check_E1(np.diag([2.0, 1.0]), np.eye(2))
    assert not r.preserved
    w = r.witness
    # image Schmidt weights (4/5, 1/5): binary entropy 0.721928...
    assert w.value_in == pytest.approx(1.0, abs=1e-12)
    assert w.value_out == pytest.approx(0.7219280948873623, abs=1e-9)


def test_check_E1_matches_direct_sampling():
    rng = split_rng(8, 0)
    cases = [
        (3.0 * haar_unitary(2, rng), haar_unitary(2, rng), True),
        (np.diag([2.0, 1.0]).astype(complex), np.eye(2, dtype=complex), False),
    ]
    for a, b, want in cases:
        r = check_E1(a, b)
        assert r.preserved is want
        l = kron(a, b)
        worst = max(
            abs(measure_E1(l @ (v := random_pure_state(4, rng)), (2, 2)) - measure_E1(v, (2, 2)))
            for _ in range(200)
        )
        assert (worst <= 1e-8) is want


# ---------------------------------------------------------------------------
# E2

def test_check_E2_accepts_reciprocal_scales():
    ua, ub = haar_unitary(2, seed=9), haar_unitary(3, seed=10)
    r = check_E2(2.0 * ua, 0.5 * ub)
    assert r.preserved
    assert r.certificate.scalar == pytest.approx(2.0, abs=1e-9)


def test_check_E2_accepts_plain_unitaries():
    r = check_E2(haar_unitary(2, seed=11), haar_unitary(2, seed=12))
    assert r.preserved
    assert r.certificate.scalar == pytest.approx(1.0, abs=1e-9)


def test_check_E2_rejects_uniform_scaling():
    ua, ub = haar_unitary(2, seed=13), haar_unitary(2, seed=14)
    r = check_E2(2.0 * ua, ub)
    assert not r.preserved
    # norm quadruples, spectra stay balanced: E2 of the image is 4
    assert r.witness.value_out == pytest.approx(4.0, abs=1e-8)


def test_check_E2_rejects_balanced_product_trade():
    # lambda_1 mu_1 * lambda_n mu_m = 1 but lambda_1 mu_1 = 2
    r = check_E2(np.diag([2.0, 1.0]), np.diag([1.0, 0.5]))
    assert not r.preserved
    assert r.witness is not None
    assert abs(r.witness.value_out - r.witness.value_in) > 1e-2


def test_check_E2_matches_direct_sampling():
    rng = split_rng(15, 0)
    cases = [
        (2.0 * haar_unitary(2, rng), 0.5 * haar_unitary(2, rng), True),
        (2.0 * haar_unitary(2, rng), haar_unitary(2, rng), False),
    ]
    for a, b, want in cases:
        r = check_E2(a, b)
        assert r.preserved is want
        l = kron(a, b)
        worst = max(
            abs(measure_E2(l @ (v := random_pure_state(4, rng)), (2, 2)) - measure_E2(v, (2, 2)))
            for _ in range(200)
        )
        assert (worst <= 1e-8) is want


def test_quantitative_preserved_implies_qualitative_accepted():
    # the implication only; generic local maps are a counterexample to the converse
    from unitarity_kit.classifier import KIND_LOCAL, KIND_SWAP_LOCAL, BipartiteMap, classify
    from unitarity_kit.schmidt import BipartiteShape, swap_operator

    rng = split_rng(77, 0)
    for swap in (False, True):
        c = float(rng.uniform(0.5, 2.0))
        a = c * haar_unitary(3, rng)
        b = (1.0 / c) * haar_unitary(3, rng)
        assert check_E2(a, b).preserved and check_E1(a, b).preserved
        matrix = kron(a, b) @ swap_operator((3, 3)) if swap else kron(a, b)
        verdict = classify(BipartiteMap(matrix, BipartiteShape(3, 3)))
        assert verdict.kind == (KIND_SWAP_LOCAL if swap else KIND_LOCAL)


def test_check_E2_inverse_symmetry():
    rng = split_rng(16, 0)
    for _ in range(5):
        a = random_invertible(2, seed=rng, cond_cap=10)
        b = random_invertible(3, seed=rng, cond_cap=10)
        forward = check_E2(a, b).preserved
        backward = check_E2(np.linalg.inv(a), np.linalg.inv(b)).preserved
        assert forward == backward
    u2, u3 = haar_unitary(2, rng), haar_unitary(3, rng)
    assert check_E2(np.linalg.inv(u2), np.linalg.inv(u3)).preserved


@pytest.mark.parametrize("dims", [(3, 3), (3, 2)])
def test_witness_image_matches_full_kron(dims):
    # the witness maps the probe as A X B^T, never forming A (x) B
    n, m = dims
    a = random_invertible(n, seed=41, cond_cap=10)
    b = random_invertible(m, seed=42, cond_cap=10)
    for check, measure_fn in ((check_E1, measure_E1), (check_E2, measure_E2)):
        w = check(a, b).witness
        assert w is not None
        assert w.value_in == 1.0
        assert measure_fn(w.state, dims) == pytest.approx(1.0, abs=1e-12)
        assert w.value_out == pytest.approx(measure_fn(kron(a, b) @ w.state, dims), rel=1e-10)


def test_checks_take_one_svd_per_factor(monkeypatch):
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or real_svd(*args, **kw))
    general = (random_invertible(3, seed=43, cond_cap=10), random_invertible(2, seed=44, cond_cap=10))
    unitary = (2.0 * haar_unitary(3, seed=45), 0.5 * haar_unitary(2, seed=46))
    for check in (check_E1, check_E2):
        # one SVD per factor on both outcomes: the witness values come
        # from the factor spectra, not from Schmidt decompositions
        for (a, b), preserved in ((unitary, True), (general, False)):
            calls.clear()
            assert check(a, b).preserved is preserved
            assert len(calls) == 2


def test_checks_run_no_schmidt_decomposition(monkeypatch):
    import unitarity_kit.schmidt as schmidt

    calls = []
    real = schmidt.schmidt_decompose
    monkeypatch.setattr(schmidt, "schmidt_decompose", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    general = (random_invertible(3, seed=47, cond_cap=10), random_invertible(4, seed=48, cond_cap=10))
    unitary = (2.0 * haar_unitary(3, seed=49), 0.5 * haar_unitary(4, seed=50))
    for check in (check_E1, check_E2):
        for (a, b), preserved in ((unitary, True), (general, False)):
            assert check(a, b).preserved is preserved
    assert calls == []


def _factor_pairs(count=120):
    rng = split_rng(51, 0)
    for _ in range(count):
        n, m = (int(d) for d in rng.integers(2, 9, size=2))
        caps = rng.choice([3.0, 30.0, 1e3], size=2)
        yield random_invertible(n, rng, cond_cap=caps[0]), random_invertible(m, rng, cond_cap=caps[1])


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_witness_closed_form_matches_image_measures(scale):
    # value_out is read off the spectra; the oracle measures the probe's
    # image under the full kron product
    count = 0
    for a, b in _factor_pairs():
        a = scale * a
        dims = (a.shape[0], b.shape[0])
        for check, measure_fn in ((check_E1, measure_E1), (check_E2, measure_E2)):
            w = check(a, b).witness
            assert w is not None and w.value_in == 1.0
            expected = measure_fn(kron(a, b) @ w.state, dims)
            assert w.value_out == pytest.approx(expected, rel=1e-10, abs=0.0)
            count += 1
    assert count == 240


def test_witness_rank_cut_gives_zero():
    # lambda_n mu_m / lambda_1 mu_1 = 1e-10 is below the rank tolerance,
    # so the image reads as a product state, as measure_E1/E2 read it
    d = np.diag([1.0, 1e-5])
    for check, measure_fn in ((check_E1, measure_E1), (check_E2, measure_E2)):
        w = check(d, d).witness
        assert w.value_out == 0.0
        assert measure_fn(kron(d, d) @ w.state, (2, 2)) == 0.0


def test_checks_overflow_and_underflow_silently():
    # pytest turns a RuntimeWarning into an error; the true E2 values are
    # about 1e320 and 1e-400, then 1e640 and 1e-800
    u = haar_unitary(2, seed=52)
    assert check_E1(1e200 * u, 1e200 * u).certificate.scalar == np.inf
    a, b = np.diag([2.0, 1.0, 1.0]), np.eye(2)
    assert check_E2(1e160 * a, b).witness.value_out == np.inf
    assert check_E2(1e-200 * a, b).witness.value_out == 0.0
    assert check_E2(1e160 * a, 1e160 * b).witness.value_out == np.inf
    assert check_E2(1e-200 * a, 1e-200 * b).witness.value_out == 0.0


@pytest.mark.parametrize("check", [check_E1, check_E2])
def test_checks_refuse_non_square_factor(check):
    with pytest.raises(ShapeMismatch):
        check([[1, 0, 0], [0, 1, 0]], np.eye(2))
    with pytest.raises(ShapeMismatch):
        check(np.eye(2), np.ones((2, 3)))


@pytest.mark.parametrize("check", [check_E1, check_E2])
def test_checks_refuse_singular_factor(check):
    with pytest.raises(RankDeficient):
        check(np.diag([1.0, 0.0]), np.eye(2))
    with pytest.raises(RankDeficient):
        check(np.eye(2), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
@pytest.mark.parametrize("check", [check_E1, check_E2])
def test_checks_refuse_non_finite_factor_before_any_svd(monkeypatch, check, bad):
    # an SVD of an infinite factor may never return, so none may run
    def refuse(*args, **kwargs):
        raise AssertionError("SVD of a non-finite factor")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    a = np.eye(3, dtype=complex)
    a[0, 1] = bad
    start = time.perf_counter()
    for pair in ((a, np.eye(2)), (np.eye(2), a)):
        with pytest.raises(ParamOutOfRange):
            check(*pair)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("check", [check_E1, check_E2])
def test_checks_refuse_one_dimensional_factor(check):
    with pytest.raises(ShapeMismatch):
        check(2.0 * np.eye(1), np.diag([1.0, 2.0]))
    with pytest.raises(ShapeMismatch):
        check(np.diag([1.0, 2.0]), np.eye(1))


def _reference_witness_value(lambdas, mus, weighted):
    # the array form _witness_value replaced: psi_c_entanglement on a 0-d array
    r = float(lambdas[-1] / lambdas[0]) * float(mus[-1] / mus[0])
    if r <= DEFAULT_RANK_TOL:
        return 0.0
    value = psi_c_entanglement(r / np.sqrt(1.0 + r * r))
    if weighted:
        x = float(lambdas[0]) * float(mus[0])
        value = (1.0 + r * r) / 2.0 * value * x * x
    return value


def test_witness_value_on_scalars_matches_the_array_form_bit_for_bit():
    tiny = np.finfo(float).smallest_subnormal
    edges = [0.0, 1.0, tiny, 2 * tiny, 1e-310, np.finfo(float).tiny, 1e-200,
             np.nextafter(DEFAULT_RANK_TOL, 0.0), DEFAULT_RANK_TOL,
             np.nextafter(DEFAULT_RANK_TOL, 1.0), np.nextafter(1.0, 0.0)]
    grid = np.concatenate([edges, np.geomspace(tiny, 1.0, 6001), np.geomspace(1e-8, 1.0, 6001),
                           np.linspace(0.0, 1.0, 6001)])
    for i, r in enumerate(grid):
        lambdas, mus = np.array([1.0, r]), np.ones(2)
        got = quantitative._witness_value(lambdas, mus, False)
        assert got.hex() == _reference_witness_value(lambdas, mus, False).hex(), r
        # the weighted form, at a scale that moves with the grid
        lambdas = lambdas * 10.0 ** (i % 7 - 3)
        got = quantitative._witness_value(lambdas, mus, True)
        assert got.hex() == _reference_witness_value(lambdas, mus, True).hex(), r


# ---------------------------------------------------------------------------
# the factor-SVD memo

@pytest.fixture
def cold_memo(monkeypatch):
    monkeypatch.setattr(quantitative, "_last_svds", None)


def _count_svds(monkeypatch) -> list:
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or real_svd(*args, **kw))
    return calls


def _bits(verdict) -> tuple:
    """Every output of a verdict, floats as hex and arrays as bytes."""
    cert, w = verdict.certificate, verdict.witness
    return (
        verdict.measure, verdict.preserved,
        cert and (float(cert.scalar).hex(), cert.unitary_a.tobytes(), cert.unitary_b.tobytes()),
        w and (w.state.tobytes(), w.value_in.hex(), float(w.value_out).hex()),
    )


def test_classify_then_both_checks_decompose_each_factor_twice(monkeypatch, cold_memo):
    calls = _count_svds(monkeypatch)
    verdict = classify(random_local_map((3, 3), seed=2))
    assert len(calls) == 2  # values only, in classify's rank ratio
    check_E1(verdict.a, verdict.b)
    assert len(calls) == 4
    check_E2(verdict.a, verdict.b)
    assert len(calls) == 4


def test_memo_decomposes_a_pair_with_other_entries_again(monkeypatch, cold_memo):
    a = random_invertible(3, seed=60, cond_cap=10)
    b = random_invertible(2, seed=61, cond_cap=10)
    calls = _count_svds(monkeypatch)
    check_E1(a, b)
    check_E2(a, b)
    assert len(calls) == 2
    # same shapes and other entries, other shapes, then the first pair again
    for other in ((a, 2.0 * b), (a.T, b), (b, b), (a, a), (a, b)):
        calls.clear()
        check_E2(*other)
        assert len(calls) == 2


def test_memo_sees_a_factor_changed_in_place(monkeypatch, cold_memo):
    a = random_invertible(3, seed=62, cond_cap=10)
    b = random_invertible(3, seed=63, cond_cap=10)
    calls = _count_svds(monkeypatch)
    before = check_E1(a, b)
    a[0, 0] += 0.5
    after = check_E2(a, b)
    assert len(calls) == 4
    quantitative._last_svds = None
    assert _bits(after) == _bits(check_E2(a.copy(), b))
    assert before.witness.value_out != check_E1(a, b).witness.value_out


def test_memo_arrays_are_read_only(cold_memo):
    a, b = random_invertible(3, seed=64), haar_unitary(2, seed=65)
    first = quantitative._factor_svds(a, b, DEFAULT_RANK_TOL)
    assert quantitative._factor_svds(a, b, DEFAULT_RANK_TOL) == first
    for result in first:
        for part in (result.left_basis, result.singular_values, result.right_basis):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 0.0


def _raised(call):
    try:
        call()
    except (RankDeficient, ShapeMismatch) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("check", [check_E1, check_E2])
def test_memo_hit_raises_as_a_miss_does(monkeypatch, check):
    # tol is not part of the key: the rank check runs on every call
    near_singular, b = np.diag([1.0, 1e-9]), haar_unitary(2, seed=66)
    cases = [
        lambda: check(near_singular, b),
        lambda: check(b, near_singular),
        lambda: check(near_singular, b, tol=1e-10),
        lambda: check(b, np.ones((2, 3))),
        lambda: check(np.eye(1), b),
    ]
    for case in cases:
        monkeypatch.setattr(quantitative, "_last_svds", None)
        cold = _raised(case)
        warm = _raised(case)
        assert warm == cold
    # a pair stored by a passing call still refuses a stricter tol
    monkeypatch.setattr(quantitative, "_last_svds", None)
    assert _raised(lambda: check(near_singular, b, tol=1e-10)) is None
    assert _raised(lambda: check(near_singular, b))[0] is RankDeficient


def test_warm_and_cold_verdicts_agree_bit_for_bit(monkeypatch):
    pairs = list(_factor_pairs(count=40))
    pairs += [(2.0 * haar_unitary(3, seed=67), 0.5 * haar_unitary(2, seed=68)),
              (3.0 * haar_unitary(2, seed=69), haar_unitary(4, seed=70))]
    for a, b in pairs:
        cold = []
        for check in (check_E1, check_E2):
            monkeypatch.setattr(quantitative, "_last_svds", None)
            cold.append(_bits(check(a, b)))
        warm = [_bits(check_E1(a, b)), _bits(check_E2(a, b)), _bits(check_E1(a, b))]
        assert warm == cold + cold[:1]


def test_memo_under_threads_keeps_every_verdict():
    # four threads share the one-pair memo; each keeps to its own pair
    pairs = [(random_invertible(3, seed=71 + k, cond_cap=10), haar_unitary(2, seed=81 + k))
             for k in range(4)]
    expected = [(_bits(check_E1(a, b)), _bits(check_E2(a, b))) for a, b in pairs]
    wrong = []

    def work(k):
        a, b = pairs[k]
        for _ in range(150):
            if (_bits(check_E1(a, b)), _bits(check_E2(a, b))) != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_memo_is_freed_with_the_factors(cold_memo):
    # the memo holds the factors' bytes and both SVDs, 6 MiB at 256x256;
    # it lives no longer than the arrays the caller passed
    a = random_invertible(256, seed=90, cond_cap=10)
    b = random_invertible(256, seed=91, cond_cap=10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        check_E1(a, b)
        check_E2(a, b)
        del a, b
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 0.1 * 2**20
    assert quantitative._last_svds is None


def test_memo_is_freed_with_the_verdict(monkeypatch, cold_memo):
    calls = _count_svds(monkeypatch)
    verdict = classify(random_local_map((3, 3), seed=3))
    check_E1(verdict.a, verdict.b)
    check_E2(verdict.a, verdict.b)
    assert len(calls) == 4 and quantitative._last_svds is not None
    del verdict
    assert quantitative._last_svds is None


def test_memo_keeps_no_factor_without_weak_references(monkeypatch, cold_memo):
    # a list cannot say when it is freed, so nothing is kept for it
    a, b = random_invertible(3, seed=92).tolist(), random_invertible(2, seed=93).tolist()
    calls = _count_svds(monkeypatch)
    check_E1(a, b)
    check_E2(a, b)
    assert len(calls) == 4 and quantitative._last_svds is None


# ---------------------------------------------------------------------------
# the ratio root

def test_ratio_deficit_zero_at_balanced_point():
    assert ratio_deficit(INV_SQRT2) == pytest.approx(0.0, abs=1e-12)


def test_ratio_deficit_sign_at_half():
    # E(0.5) = 0.811278, denominator sqrt(3)/4 = 0.4330: ratio 1.8736 < 2
    assert ratio_deficit(0.5) == pytest.approx(-0.12643342582345962, abs=1e-12)
    assert ratio_deficit(0.5) < 0.0


def test_ratio_deficit_nonpositive_on_grid():
    cs = np.linspace(1e-4, 1 - 1e-4, 2001)
    assert np.max(ratio_deficit(cs)) <= 1e-10


def test_psi_c_entanglement_matches_oracle():
    for c in (0.3, 0.5, 0.6, INV_SQRT2, 0.9):
        v = psi_c(c, (2, 2))
        assert psi_c_entanglement(c) == pytest.approx(entanglement_E(v, (2, 2)), abs=1e-12)


def test_ratio_deficit_root_value():
    root = ratio_deficit_root(tol=1e-9, grid_points=10**5)
    assert root == pytest.approx(INV_SQRT2, abs=1e-9)


def test_ratio_deficit_unique_sign_change():
    assert ratio_deficit_sign_changes(10**5) == 1


def test_ratio_deficit_root_validates_tol():
    with pytest.raises(ParamOutOfRange):
        ratio_deficit_root(tol=-1.0)


def test_ratio_deficit_root_ends_below_float_spacing():
    # the bracket cannot shrink below adjacent floats near 0.707
    root = ratio_deficit_root(tol=1e-300, grid_points=1000)
    assert root == pytest.approx(INV_SQRT2, abs=1e-15)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 5.0])
def test_ratio_deficit_root_refuses_tol_outside_unit_interval(tol):
    with pytest.raises(ParamOutOfRange):
        ratio_deficit_root(tol=tol, grid_points=1000)
