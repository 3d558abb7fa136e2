"""Both deciders at every scale of the map.

Multiplying a map by 2^j changes nothing but the outputs that carry its
scale, bit for bit, wherever the product is exact; multiplying it by a
number that rounds, down to subnormal entries or up to the edge of the
float range, changes neither the verdict nor the witness kind nor the
stage that decides it, and raises no warning.
"""

import re
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitarity_kit.acceptance import witness_reverifies
from unitarity_kit.classifier import KIND_NOT_PRESERVING, BipartiteMap, classify
from unitarity_kit.entropy_dynamics import (
    Superoperator,
    analyze,
    superop_depolarizing,
    superop_from_conjugation,
    superop_transpose,
)
from unitarity_kit.generators import (
    cnot_map,
    haar_unitary,
    perturb,
    random_invertible,
    random_local_map,
    random_schmidt_rank_state,
)
from unitarity_kit.linalg import kron, ldexp
from unitarity_kit.schmidt import BipartiteShape


def _kernel_map(n, m, seed, entangled):
    """A local map after a projector that kills an entangled or a product state."""
    k = random_schmidt_rank_state((n, m), min(n, m) if entangled else 1, seed=seed)
    a, b = random_invertible(n, seed=seed + 1, cond_cap=30), random_invertible(m, seed=seed + 2, cond_cap=30)
    return kron(a, b) @ (np.eye(n * m) - np.outer(k, k.conj()))


def _cphase(n, m, seed):
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n * m))
    return random_local_map((n, m), seed=seed).matrix * phases


def _cnot_left(n, m, seed):
    cnot = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(m):
            cnot[i * m + (i + j) % m, i * m + j] = 1.0
    return random_local_map((n, m), seed=seed).matrix @ cnot


# classify inputs of every accept and reject family: (matrix, shape)
BIPARTITE = {
    "local": lambda: (random_local_map((2, 3), seed=5).matrix, (2, 3)),
    "swap-local": lambda: (random_local_map((3, 2), swap=True, seed=6).matrix, (3, 2)),
    "cnot": lambda: (cnot_map().matrix, (2, 2)),
    "cnot-left": lambda: (_cnot_left(3, 3, seed=7), (3, 3)),
    "cphase": lambda: (_cphase(2, 3, seed=8), (2, 3)),
    "perturbed": lambda: (perturb(random_local_map((2, 2), seed=9), 1e-3, seed=10).matrix, (2, 2)),
    "haar": lambda: (haar_unitary(4, seed=23), (2, 2)),
    "kernel-entangled": lambda: (_kernel_map(2, 3, seed=11, entangled=True), (2, 3)),
    "kernel-product": lambda: (_kernel_map(3, 2, seed=12, entangled=False), (3, 2)),
}


def _nonunitary(d, seed):
    a = np.diag(np.linspace(0.4, 2.5, d)).astype(complex) @ haar_unitary(d, seed=seed)
    return np.kron(a.conj(), a)


# analyze inputs of every accept and reject stage: (matrix, d)
SUPEROPERATORS = {
    "unitary": lambda: (superop_from_conjugation(haar_unitary(3, seed=13), 1.3).matrix, 3),
    "antiunitary": lambda: (
        superop_from_conjugation(haar_unitary(3, seed=14), 0.7).matrix @ superop_transpose(3).matrix,
        3,
    ),
    "depolarizing": lambda: (superop_depolarizing(3, 0.5).matrix, 3),
    "not-hermitian": lambda: (np.kron(haar_unitary(2, seed=15).conj(), haar_unitary(2, seed=16)), 2),
    "nonunitary": lambda: (_nonunitary(3, seed=17), 3),
    "mixture": lambda: (
        0.4 * superop_from_conjugation(haar_unitary(3, seed=18)).matrix
        + 0.6 * superop_from_conjugation(haar_unitary(3, seed=19)).matrix,
        3,
    ),
}


def _same_bits(a, b) -> bool:
    return a is None and b is None or np.array_equal(np.asarray(a), np.asarray(b))


def _scaled(x, j):
    with np.errstate(over="ignore"):
        return None if x is None else ldexp(np.atleast_1d(np.asarray(x)), j)


def _exponents(matrix, *outputs) -> tuple[int, int]:
    """The interval of j at which the map times 2^j is exact and neither its
    Frobenius norm nor the given outputs overflow.  A value the float range
    cannot hold at 2^j comes back as inf, with numpy's overflow warning, so
    the property is asked where all of them fit; the norm bounds the image
    coefficients of every state the witness search tries, and |A_ik| as
    ||B||_F = 1."""
    outputs = (np.linalg.norm(matrix), *outputs)
    with np.errstate(over="ignore"):
        js = [
            j
            for j in range(-1100, 1101)
            if np.array_equal(ldexp(ldexp(matrix, j), -j), matrix)
            and all(x is None or np.isfinite(_scaled(x, j)).all() for x in outputs)
        ]
    assert js == list(range(js[0], js[-1] + 1))
    return js[0], js[-1]


def _draw_exponent(data, lo, hi) -> int:
    return data.draw(st.one_of(st.sampled_from((lo, hi)), st.integers(lo, hi)), label="j")


@lru_cache(maxsize=None)
def _classify_case(family):
    matrix, shape = BIPARTITE[family]()
    ref = classify(BipartiteMap(matrix, shape))
    coeffs = None if ref.witness is None else ref.witness.evidence.image_coefficients
    return matrix, shape, ref, _exponents(matrix, ref.a, coeffs)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@pytest.mark.parametrize("family", BIPARTITE)
@PROPERTY
@given(data=st.data())
def test_classify_is_exact_under_powers_of_two(family, data):
    matrix, shape, ref, (lo, hi) = _classify_case(family)
    j = _draw_exponent(data, lo, hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = classify(BipartiteMap(ldexp(matrix, j), shape))
    assert (out.kind, out.detail, out.output_shape) == (ref.kind, ref.detail, ref.output_shape)
    assert _same_bits(out.a, _scaled(ref.a, j)) and _same_bits(out.b, ref.b)
    assert (out.reconstruction_error, out.rank_ratio) == (ref.reconstruction_error, ref.rank_ratio)
    assert (out.witness is None) == (ref.witness is None)
    if ref.witness is not None:
        ev, out_ev = ref.witness.evidence, out.witness.evidence
        assert out.witness.kind == ref.witness.kind and _same_bits(out.witness.state, ref.witness.state)
        assert (out_ev.input_rank, out_ev.image_rank) == (ev.input_rank, ev.image_rank)
        assert _same_bits(out_ev.input_coefficients, ev.input_coefficients)
        assert _same_bits(out_ev.image_coefficients, _scaled(ev.image_coefficients, j))


def test_kernel_entangled_map_near_the_top_of_the_range_scales_only_its_witness():
    # times 2^1025 the map's Frobenius norm is near the float maximum; the
    # witness is the own-layout basis image, and no discarded evidence of
    # the relabeled layout has its coefficients scaled back into overflow
    matrix, shape = BIPARTITE["kernel-entangled"]()
    ref = _classify_case("kernel-entangled")[2]
    bmap = BipartiteMap(ldexp(matrix, 1025), shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = classify(bmap)
    assert (out.kind, out.detail) == (ref.kind, ref.detail)
    assert out.witness.kind == ref.witness.kind
    assert np.isfinite(out.witness.evidence.image_coefficients).all()
    assert witness_reverifies(bmap, out.witness)


def _without_numbers(detail: str) -> str:
    return re.sub(r"\d[\d.e+-]*", "#", detail)


@lru_cache(maxsize=None)
def _analyze_case(family):
    matrix, d = SUPEROPERATORS[family]()
    ref = analyze(Superoperator(matrix, d))
    # the gains stage prints the two gains, which scale with the map
    gains = [float(x) for x in re.findall(r"\d[\d.e+-]*", ref.detail)] if "gains" in ref.detail else []
    return matrix, d, ref, _exponents(matrix, ref.gain, *gains)


@pytest.mark.parametrize("family", SUPEROPERATORS)
@PROPERTY
@given(data=st.data())
def test_analyze_is_exact_under_powers_of_two(family, data):
    matrix, d, ref, (lo, hi) = _analyze_case(family)
    j = _draw_exponent(data, lo, hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = analyze(Superoperator(ldexp(matrix, j), d))
    assert out.kind == ref.kind
    if ref.detail.startswith("pure-state gains differ"):
        assert _without_numbers(out.detail) == _without_numbers(ref.detail)
    else:
        assert out.detail == ref.detail
    assert _same_bits(out.unitary, ref.unitary)
    assert out.gain == (None if ref.gain is None else float(np.ldexp(ref.gain, j)))
    assert (out.witness is None) == (ref.witness is None)
    if ref.witness is not None:
        for field in ("phi1", "phi2", "p", "entropy_in", "entropy_out"):
            assert _same_bits(getattr(out.witness, field), getattr(ref.witness, field)), field


def _at_peak(matrix, peak):
    """The matrix scaled to largest entry modulus 1, then by peak: a product
    that rounds, into subnormal entries at 1e-312."""
    return matrix / np.abs(matrix).max() * peak


def _stage(detail: str) -> str:
    return _without_numbers(detail)


INEXACT = [1e-312, 1e307]
# the two 16x16 accepted maps: at 1e307 their factor A has entries near
# 6e307, whose norms overflow unless taken at unit scale
BIPARTITE_EDGE = {
    **BIPARTITE,
    "local-16x16": lambda: (random_local_map((16, 16), seed=22).matrix, (16, 16)),
    "swap-local-16x16": lambda: (random_local_map((16, 16), swap=True, seed=21).matrix, (16, 16)),
}


@pytest.mark.parametrize("peak", INEXACT)
@pytest.mark.parametrize("family", BIPARTITE_EDGE)
def test_classify_keeps_its_verdict_at_the_edges_of_the_float_range(family, peak):
    matrix, shape = BIPARTITE_EDGE[family]()
    ref = classify(BipartiteMap(_at_peak(matrix, 1.0), shape))
    bmap = BipartiteMap(_at_peak(matrix, peak), shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = classify(bmap)
        assert (out.kind, _stage(out.detail)) == (ref.kind, _stage(ref.detail))
        if out.kind == KIND_NOT_PRESERVING:
            assert out.witness is not None and out.witness.kind == ref.witness.kind
            assert witness_reverifies(bmap, out.witness)
        else:
            assert np.isfinite(out.a).all() and np.isfinite(out.rank_ratio)
            assert out.rank_ratio == pytest.approx(ref.rank_ratio, rel=1e-6)


@pytest.mark.parametrize("peak", INEXACT)
@pytest.mark.parametrize("family", SUPEROPERATORS)
def test_analyze_keeps_its_verdict_at_the_edges_of_the_float_range(family, peak):
    matrix, d = SUPEROPERATORS[family]()
    ref = analyze(Superoperator(_at_peak(matrix, 1.0), d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = analyze(Superoperator(_at_peak(matrix, peak), d))
    assert (out.kind, _stage(out.detail)) == (ref.kind, _stage(ref.detail))
    assert (out.witness is None) == (ref.witness is None)
    if out.gain is not None:
        assert out.gain / peak == pytest.approx(ref.gain, rel=1e-9)


def test_subnormal_haar_map_classifies_without_warnings():
    # complex division by a subnormal real takes an overflowing reciprocal,
    # which once made the vanishing test warn on this map
    bmap = BipartiteMap(haar_unitary(16, seed=3) * 1e-310, BipartiteShape(4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = classify(bmap)
        assert v.kind == KIND_NOT_PRESERVING and v.witness is not None
        assert witness_reverifies(bmap, v.witness)
