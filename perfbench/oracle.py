"""Independent correctness checks for every benchmark operation.

Everything here is plain numpy written from the mathematical definitions,
not from unitarity_kit's helpers, so a change inside the library cannot also
change what counts as a right answer.  Each check returns None when the
answer re-verifies and a one-line reason when it does not.

The checks take neutral data (arrays, kinds, dicts of evidence), so the same
code judges a library verdict object and a CLI ``--json`` report.
"""

from __future__ import annotations

import json

import numpy as np

LOCAL = "Local"
SWAP_LOCAL = "SwapLocal"
UNITARY = "UnitaryConjugation"
ANTIUNITARY = "AntiunitaryConjugation"
NOT_PRESERVING = "NotPreserving"

# The library's default relative rank tolerance: a Schmidt coefficient at or
# below RANK_TOL times the largest one does not count towards the rank.
RANK_TOL = 1e-8
# Residuals of correct factorizations are ~1e-14; anything above this is a
# certificate that does not reproduce the map.
RESIDUAL_TOL = 1e-7
# Reported entropies and measures against their recomputed values.
VALUE_TOL = 1e-6


# ---------------------------------------------------------------------------
# primitives

def swap_permutation(p: int, q: int) -> np.ndarray:
    """Relabeling |i, j> -> |j, i> from the (p, q) layout to the (q, p) one."""
    s = np.zeros((p * q, p * q))
    for i in range(p):
        for j in range(q):
            s[j * p + i, i * q + j] = 1.0
    return s


def transpose_permutation(d: int) -> np.ndarray:
    """vec(rho) -> vec(rho^T) in the column-stacking convention."""
    t = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            t[a + b * d, b + a * d] = 1.0
    return t


def realignment_ratio(matrix: np.ndarray, p: int, q: int) -> float:
    """s2/s1 of the realigned matrix; 0 exactly when matrix = X (x) Y."""
    r = matrix.reshape(p, q, p, q).transpose(0, 2, 1, 3).reshape(p * p, q * q)
    s = np.linalg.svd(r, compute_uv=False)
    return float(s[1] / s[0]) if s.size > 1 else 0.0


def schmidt_coefficients(v: np.ndarray, layout) -> np.ndarray:
    """Schmidt coefficients above RANK_TOL (relative), descending."""
    p, q = layout
    s = np.linalg.svd(np.asarray(v, dtype=complex).reshape(p, q), compute_uv=False)
    if s[0] == 0.0:
        return s[:0]
    return s[s > RANK_TOL * s[0]]


def entropy_bits(weights) -> float:
    w = np.asarray(weights, dtype=float)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum()) + 0.0


def measure(v: np.ndarray, layout, which: str) -> float:
    """E (of a unit vector), E1 (scale-ignoring) or E2 (norm-weighted)."""
    norm2 = float(np.vdot(v, v).real)
    s = np.linalg.svd(np.asarray(v, dtype=complex).reshape(*layout), compute_uv=False)
    e = entropy_bits(s**2 / norm2)
    return norm2 * e if which == "E2" else e


def apply_superop(matrix: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (matrix @ rho.reshape(-1, order="F")).reshape((d, d), order="F")


def density_entropy(m: np.ndarray) -> float:
    """Entropy of the Hermitian part of m after clipping and normalizing."""
    w = np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2), 0.0, None)
    total = w.sum()
    return entropy_bits(w / total) if total > 0.0 else float("nan")


def pairs(data) -> np.ndarray:
    """[re, im] pairs (any nesting) back to a complex array."""
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _close(x: float, y: float, tol: float = VALUE_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def _unitary_gap(u: np.ndarray) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


# ---------------------------------------------------------------------------
# bipartite maps

def check_bipartite_witness(matrix, shape, state, evidence) -> str | None:
    """A witness re-verifies when both Schmidt ranks, recomputed by SVD in the
    reported layouts, equal the reported ones and differ from each other."""
    n, m = shape
    state = np.asarray(state, dtype=complex)
    in_layout = tuple(evidence["input_shape"])
    img_layout = tuple(evidence["image_shape"])
    if in_layout != (n, m) or img_layout not in ((n, m), (m, n)):
        return f"witness layouts {in_layout} -> {img_layout} do not fit shape {(n, m)}"
    image = matrix @ state
    in_coeffs = schmidt_coefficients(state, in_layout)
    # An image below the rank tolerance of the map's scale counts as rank 0.
    if np.linalg.norm(image) <= RANK_TOL * np.linalg.norm(matrix) * np.linalg.norm(state):
        img_coeffs = np.zeros(0)
    else:
        img_coeffs = schmidt_coefficients(image, img_layout)
    for label, got, rank_key, coeff_key in (
        ("input", in_coeffs, "input_rank", "input_coefficients"),
        ("image", img_coeffs, "image_rank", "image_coefficients"),
    ):
        reported = np.asarray(evidence[coeff_key], dtype=float)
        if evidence[rank_key] != got.size:
            return f"{label} Schmidt rank {evidence[rank_key]} reported, {got.size} recomputed"
        if reported.shape != got.shape or not np.allclose(
            reported, got, rtol=VALUE_TOL, atol=RANK_TOL * (got.max() if got.size else 0.0)
        ):
            return f"{label} Schmidt coefficients differ from the recomputed ones"
    if in_coeffs.size == img_coeffs.size:
        return f"witness keeps Schmidt rank {in_coeffs.size}"
    return None


def check_quantitative(product, layout, which, expected, record) -> str | None:
    """E1/E2 verdict on a certified A (x) B: certificate or psi(c) witness."""
    if record["preserved"] != expected:
        return f"{which} preserved={record['preserved']}, expected {expected}"
    if expected:
        cert = record["certificate"]
        ua, ub = np.asarray(cert["unitary_a"]), np.asarray(cert["unitary_b"])
        if max(_unitary_gap(ua), _unitary_gap(ub)) > RESIDUAL_TOL:
            return f"{which} certificate factors are not unitary"
        scale = cert["scalar"] if which == "E1" else 1.0
        target = scale * np.kron(ua, ub)
        if np.linalg.norm(product - target) > RESIDUAL_TOL * np.linalg.norm(product):
            return f"{which} certificate does not reproduce the factors"
        return None
    w = record["witness"]
    state = np.asarray(w["state"], dtype=complex)
    v_in = measure(state, layout, which)
    v_out = measure(product @ state, layout, which)
    if not (_close(w["value_in"], v_in) and _close(w["value_out"], v_out)):
        return f"{which} witness values do not recompute"
    if _close(v_in, v_out, 1e-9):
        return f"{which} witness does not change the measure"
    return None


def check_classify(matrix, shape, expect, verdict, quant=None) -> str | None:
    """verdict: kind, a, b, output_shape, witness {state, evidence}.
    quant: None, or (expected E1, expected E2, {"E1": record, "E2": record})."""
    kind = verdict["kind"]
    if kind != expect:
        return f"verdict {kind}, expected {expect}"
    if kind == NOT_PRESERVING:
        w = verdict["witness"]
        if w is None:
            return "NotPreserving without a witness"
        return check_bipartite_witness(matrix, shape, w["state"], w["evidence"])
    out = tuple(verdict["output_shape"])
    reference = matrix if kind == LOCAL else swap_permutation(*out) @ matrix
    product = np.kron(verdict["a"], verdict["b"])
    if product.shape != reference.shape:
        return f"factors give a {product.shape} map for a {reference.shape} one"
    residual = np.linalg.norm(reference - product) / np.linalg.norm(matrix)
    if not residual <= RESIDUAL_TOL:
        return f"factor residual {residual:.3g}"
    if quant is None:
        return None
    expect_e1, expect_e2, records = quant
    layout = (verdict["a"].shape[0], verdict["b"].shape[0])
    for which, expected in (("E1", expect_e1), ("E2", expect_e2)):
        reason = check_quantitative(product, layout, which, expected, records[which])
        if reason:
            return reason
    return None


# ---------------------------------------------------------------------------
# superoperators

def check_analyze(matrix, d, expect, verdict, rng) -> str | None:
    """verdict: kind, unitary, gain, witness {phi1, phi2, p, entropy_in,
    entropy_out}.  Accepts re-verify on fresh states from rng."""
    kind = verdict["kind"]
    if kind != expect:
        return f"verdict {kind}, expected {expect}"
    if kind != NOT_PRESERVING:
        u, gain = np.asarray(verdict["unitary"]), verdict["gain"]
        for rank in (1, 1, 2, d):
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            src = rho.T if kind == ANTIUNITARY else rho
            target = gain * (u @ src @ u.conj().T)
            err = np.linalg.norm(apply_superop(matrix, rho) - target) / np.linalg.norm(target)
            if not err <= RESIDUAL_TOL * 10:
                return f"conjugation residual {err:.3g} on a fresh state"
        return None
    w = verdict["witness"]
    if w is None:
        return "NotPreserving without a witness"
    phi1, phi2, p = np.asarray(w["phi1"]), np.asarray(w["phi2"]), w["p"]
    rho = p * np.outer(phi1, phi1.conj()) + (1.0 - p) * np.outer(phi2, phi2.conj())
    s_in = density_entropy(rho)
    s_out = density_entropy(apply_superop(matrix, rho))
    if not (_close(w["entropy_in"], s_in) and _close(w["entropy_out"], s_out)):
        return "witness entropies do not recompute"
    if _close(s_in, s_out):
        return f"witness keeps the entropy ({s_in:.6g} bits)"
    return None


# ---------------------------------------------------------------------------
# adapters: library verdict objects and CLI JSON reports to neutral data

def classify_result(verdict) -> dict:
    w = verdict.witness
    return {
        "kind": verdict.kind,
        "a": verdict.a,
        "b": verdict.b,
        "output_shape": verdict.output_shape,
        "witness": None if w is None else {
            "kind": w.kind,
            "state": w.state,
            "evidence": {
                "input_shape": w.evidence.input_shape,
                "image_shape": w.evidence.image_shape,
                "input_rank": w.evidence.input_rank,
                "image_rank": w.evidence.image_rank,
                "input_coefficients": w.evidence.input_coefficients,
                "image_coefficients": w.evidence.image_coefficients,
            },
        },
    }


def quant_record(q) -> dict:
    rec = {"preserved": q.preserved, "certificate": None, "witness": None}
    if q.certificate is not None:
        c = q.certificate
        rec["certificate"] = {"scalar": c.scalar, "unitary_a": c.unitary_a, "unitary_b": c.unitary_b}
    if q.witness is not None:
        w = q.witness
        rec["witness"] = {"state": w.state, "value_in": w.value_in, "value_out": w.value_out}
    return rec


def analyze_result(verdict) -> dict:
    w = verdict.witness
    return {
        "kind": verdict.kind,
        "unitary": verdict.unitary,
        "gain": verdict.gain,
        "witness": None if w is None else {
            "phi1": w.phi1, "phi2": w.phi2, "p": w.p,
            "entropy_in": w.entropy_in, "entropy_out": w.entropy_out,
        },
    }


def _report_quant(rec: dict) -> dict:
    out = {"preserved": rec["preserved"], "certificate": None, "witness": None}
    if "certificate" in rec:
        c = rec["certificate"]
        out["certificate"] = {
            "scalar": c["scalar"], "unitary_a": pairs(c["unitary_a"]), "unitary_b": pairs(c["unitary_b"]),
        }
    if "witness" in rec:
        w = rec["witness"]
        out["witness"] = {"state": pairs(w["state"]), "value_in": w["value_in"], "value_out": w["value_out"]}
    return out


def classify_report(text: str):
    """(verdict, quantitative records or None) from `classify --json` output."""
    report = json.loads(text)
    v = report["verdict"]
    w = v.get("witness")
    verdict = {
        "kind": v["kind"],
        "a": pairs(v["factor_a"]) if "factor_a" in v else None,
        "b": pairs(v["factor_b"]) if "factor_b" in v else None,
        "output_shape": v["output_shape"],
        "witness": None if w is None else {
            "kind": w["kind"], "state": pairs(w["state"]), "evidence": w["evidence"],
        },
    }
    q = report.get("quantitative")
    records = None if q is None else {k: _report_quant(q[k]) for k in ("E1", "E2")}
    return verdict, records


def analyze_report(text: str) -> dict:
    v = json.loads(text)["verdict"]
    w = v.get("witness")
    return {
        "kind": v["kind"],
        "unitary": pairs(v["unitary"]) if "unitary" in v else None,
        "gain": v["gain"],
        "witness": None if w is None else {
            "phi1": pairs(w["phi1"]), "phi2": pairs(w["phi2"]), "p": w["p"],
            "entropy_in": w["entropy_in"], "entropy_out": w["entropy_out"],
        },
    }


def check_schmidt_report(state, layout, text: str) -> str | None:
    report = json.loads(text)
    got = schmidt_coefficients(state, layout)
    if report["rank"] != got.size:
        return f"Schmidt rank {report['rank']} reported, {got.size} recomputed"
    if not np.allclose(report["coefficients"], got, rtol=VALUE_TOL, atol=0.0):
        return "Schmidt coefficients differ from the recomputed ones"
    return None


def check_measure_output(state, layout, which: str, text: str) -> str | None:
    value = float(text.strip())
    want = measure(np.asarray(state, dtype=complex), layout, which)
    return None if abs(value - want) <= 1e-7 else f"{which} printed {value}, recomputed {want}"


def check_map_file(path, kind: str, shape, expect: dict) -> str | None:
    """A file written by `gen`: right kind and shape, and the structure the
    generator promises (product, swap-product, unitary, or exact content)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["kind"] != kind or data["shape"] != shape:
        return f"file holds {data['kind']} {data['shape']}, expected {kind} {shape}"
    a = pairs(data["matrix"])
    if "equals" in expect:
        return None if np.allclose(a, expect["equals"], rtol=0, atol=1e-12) else "content differs"
    if expect.get("unitary") and _unitary_gap(a) > RESIDUAL_TOL:
        return "generated matrix is not unitary"
    if "product" in expect:
        p, q = expect["product"]
        if expect.get("swapped"):  # (A x B) S: undo S, then A x B is in the (q, p) layout
            a, p, q = a @ swap_permutation(q, p), q, p
        if realignment_ratio(a, p, q) > RANK_TOL:
            return "generated map is not a tensor product"
    return None
