"""Embedded acceptance suite.

Each criterion function runs one end-to-end check at its pinned tolerance
and returns a CriterionResult; `run_all` executes the whole battery.  The
CLI `selfcheck` command prints one PASS/FAIL line per criterion, and the
pytest acceptance module asserts each result individually.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .classifier import (
    KIND_LOCAL,
    KIND_NOT_PRESERVING,
    KIND_SWAP_LOCAL,
    BipartiteMap,
    Witness,
    classify,
    factor_phase_grid,
    witness_reverifies,
)
from .entropy_dynamics import (
    KIND_ANTIUNITARY,
    KIND_UNITARY,
    analyze,
    gain_equality_deficit,
    input_spectrum,
    output_spectrum,
    ratio_mismatch_scan,
    superop_depolarizing,
    superop_from_conjugation,
    superop_transpose,
)
from .generators import (
    cnot_map,
    haar_unitary,
    perturb,
    random_local_map,
    random_pure_state,
    random_schmidt_rank_state,
    split_rng,
)
from .linalg import kron
from .quantitative import check_E1, check_E2, ratio_deficit_root, ratio_deficit_sign_changes
from .schmidt import BipartiteShape, measure_E1, measure_E2, schmidt_rank, swap_operator
from .states import pure_projector


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _finish(name: str, t0: float, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(name=name, passed=passed, detail=detail, seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criterion 1: closed-form spectra vs eigensolver

def criterion_closed_form_spectra() -> CriterionResult:
    t0 = time.perf_counter()
    rng = split_rng(101, 0)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    worst = 0.0
    for _ in range(1000):
        p = float(rng.uniform())
        lam2 = float(rng.uniform(0.05, 1.0))
        expected = input_spectrum(p, lam2)
        lam1 = np.sqrt(1.0 - lam2**2) * np.exp(2j * np.pi * rng.uniform())
        rho = p * pure_projector(e0) + (1.0 - p) * pure_projector(lam1 * e0 + lam2 * e1)
        w = np.linalg.eigvalsh(rho)
        worst = max(worst, abs(w[0] - expected.lo), abs(w[1] - expected.hi))
    for _ in range(1000):
        p = float(rng.uniform())
        d1, d2 = (float(x) for x in rng.uniform(0.5, 2.0, size=2))
        mu2 = float(rng.uniform(0.05, 1.0))
        expected = output_spectrum(p, d1, d2, mu2)
        mu1 = np.sqrt(1.0 - mu2**2) * np.exp(2j * np.pi * rng.uniform())
        m = p * d1 * pure_projector(e0) + (1.0 - p) * d2 * pure_projector(mu1 * e0 + mu2 * e1)
        w = np.linalg.eigvalsh(m)
        worst = max(worst, abs(w[0] - expected.lo), abs(w[1] - expected.hi))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-10 and elapsed < 5.0
    return _finish(
        "closed-form-spectra", t0, passed,
        f"2000 tuples, worst eigensolver gap {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: single-system analyzer round trip

def criterion_single_system_roundtrip() -> CriterionResult:
    t0 = time.perf_counter()
    rng = split_rng(102, 0)
    failures = []
    worst_gain, worst_overlap = 0.0, 1.0
    for k in range(100):
        d = int(rng.integers(2, 7))
        c = float(rng.uniform(0.5, 2.0))
        u = haar_unitary(d, rng)
        rng.integers(2**32)  # spent draw, once a witness seed: keeps later inputs fixed
        verdict = analyze(superop_from_conjugation(u, c))
        if verdict.kind != KIND_UNITARY:
            failures.append(f"case {k}: kind {verdict.kind}")
            continue
        worst_gain = max(worst_gain, abs(verdict.gain - c))
        overlaps = np.abs(np.diag(verdict.unitary.conj().T @ u))
        worst_overlap = min(worst_overlap, float(overlaps.min()))
    if worst_gain > 1e-9:
        failures.append(f"gain error {worst_gain:.2e}")
    if worst_overlap < 1.0 - 1e-9:
        failures.append(f"column overlap {worst_overlap}")
    vt = analyze(superop_transpose(3))
    if vt.kind != KIND_ANTIUNITARY:
        failures.append(f"transpose gave {vt.kind}")
    vd = analyze(superop_depolarizing(2, 0.5))
    if vd.kind != KIND_NOT_PRESERVING or vd.witness is None:
        failures.append(f"depolarizer gave {vd.kind}")
    elif abs(vd.witness.entropy_out - 0.8112781244591328) > 1e-6:
        failures.append(f"depolarizer witness entropy {vd.witness.entropy_out}")
    return _finish(
        "single-system-roundtrip", t0, not failures,
        "; ".join(failures) or
        f"100 conjugations, gain err {worst_gain:.1e}, overlap {worst_overlap:.12f}",
    )


# ---------------------------------------------------------------------------
# criterion 3: unequal gains are always detectable

def criterion_gain_equality() -> CriterionResult:
    t0 = time.perf_counter()
    rng = split_rng(103, 0)
    grid = np.linspace(0.0, 1.0, 11)
    min_deficit, min_mismatch = np.inf, np.inf
    for _ in range(100):
        d1 = float(rng.uniform(0.5, 2.0))
        d2 = float(rng.uniform(0.5, 2.0))
        while abs(d1 - d2) < 0.05:
            d2 = float(rng.uniform(0.5, 2.0))
        lam2 = float(rng.uniform(0.1, 0.9))
        min_deficit = min(min_deficit, gain_equality_deficit(d1, d2, lam2, grid))
        _, mismatch = ratio_mismatch_scan(d1, d2, lam2)
        min_mismatch = min(min_mismatch, mismatch)
    passed = min_deficit > 0.0 and min_mismatch > 10 * 1e-8
    return _finish(
        "gain-equality-necessity", t0, passed,
        f"min deficit {min_deficit:.2e}, min ratio mismatch {min_mismatch:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 4: qualitative classification completeness and soundness

_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4)]


def criterion_qualitative_classification() -> CriterionResult:
    t0 = time.perf_counter()
    rng = split_rng(104, 0)
    failures = []
    worst_err = 0.0
    for count, swap, want in ((500, False, KIND_LOCAL), (500, True, KIND_SWAP_LOCAL)):
        for k in range(count):
            shape = _SHAPES[int(rng.integers(len(_SHAPES)))]
            bmap = random_local_map(shape, swap=swap, seed=rng, cond_cap=1e3)
            rng.integers(2**32)  # spent draw, once a witness seed: keeps later inputs fixed
            verdict = classify(bmap)
            if verdict.kind != want or verdict.reconstruction_error > 1e-8:
                failures.append(f"{want} #{k} shape {shape}: {verdict.kind}")
                if len(failures) > 5:
                    break
            else:
                worst_err = max(worst_err, verdict.reconstruction_error)

    cnot = cnot_map()
    v = classify(cnot)
    if v.kind != KIND_NOT_PRESERVING or v.witness is None or not witness_reverifies(cnot, v.witness):
        failures.append("CNOT not rejected with verified witness")
    swapped_cnot = BipartiteMap(
        matrix=cnot.matrix @ swap_operator((2, 2)), shape=BipartiteShape(2, 2)
    )
    v = classify(swapped_cnot)
    if v.kind != KIND_NOT_PRESERVING or v.witness is None or not witness_reverifies(swapped_cnot, v.witness):
        failures.append("swap-then-CNOT not rejected with verified witness")

    rejected = 0
    for k in range(200):
        shape = _SHAPES[int(rng.integers(len(_SHAPES)))]
        base = random_local_map(shape, swap=bool(rng.integers(2)), seed=rng)
        noisy = perturb(base, 1e-2, seed=rng)
        rng.integers(2**32)  # spent draw, once a witness seed: keeps later inputs fixed
        verdict = classify(noisy)
        if (
            verdict.kind == KIND_NOT_PRESERVING
            and verdict.witness is not None
            and witness_reverifies(noisy, verdict.witness)
        ):
            rejected += 1
    if rejected < 198:
        failures.append(f"only {rejected}/200 perturbed maps rejected with verified witness")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    return _finish(
        "qualitative-classification", t0, not failures,
        "; ".join(failures) or
        f"1000 positives (worst err {worst_err:.1e}), CNOT variants rejected, "
        f"{rejected}/200 perturbed rejected, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: phase-grid factorization

def criterion_phase_grid() -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    good = factor_phase_grid(np.array([[1, 2], [3, 6]], dtype=complex))
    if isinstance(good, Witness):
        failures.append("rank-1 grid rejected")
    else:
        mu, nu = good
        if np.abs(np.outer(mu, nu) - np.array([[1, 2], [3, 6]])).max() > 1e-12:
            failures.append("rank-1 grid does not reproduce")
        if abs(mu[0].imag) > 1e-12 or mu[0].real <= 0:
            failures.append("mu[0] not gauged real positive")
    bad = factor_phase_grid(np.array([[1, 2], [3, 5]], dtype=complex))
    if not isinstance(bad, Witness):
        failures.append("[[1,2],[3,5]] accepted")
    else:
        grid = np.array([[1, 2], [3, 5]], dtype=complex)
        image = grid.reshape(-1) * bad.state
        if schmidt_rank(image, (2, 2)) != 2 or bad.evidence.image_rank != 2:
            failures.append("witness image rank is not 2")
    return _finish("phase-grid-factorization", t0, not failures,
                   "; ".join(failures) or "rank-1 exact; [[1,2],[3,5]] rejected with rank-2 witness")


# ---------------------------------------------------------------------------
# criterion 6: quantitative verdicts and the sampled oracle

def _oracle_matches(a, b, preserved: bool, measure_fn, rng, n_states: int = 200) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    shape = BipartiteShape(a.shape[0], b.shape[0])
    l = kron(a, b)
    worst = 0.0
    for _ in range(n_states):
        v = random_pure_state(shape.dim, rng)
        worst = max(worst, abs(measure_fn(l @ v, shape) - measure_fn(v, shape)))
    return (worst <= 1e-8) == preserved


def criterion_quantitative() -> CriterionResult:
    t0 = time.perf_counter()
    rng = split_rng(106, 0)
    failures = []
    ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)

    r = check_E1(np.diag([2.0, 1.0]), np.eye(2))
    if r.preserved or r.witness is None:
        failures.append("E1 accepted diag(2,1) x I")
    elif abs(r.witness.value_out - 0.7219280948873623) > 1e-6:
        failures.append(f"E1 witness value {r.witness.value_out}")
    if not _oracle_matches(np.diag([2.0, 1.0]), np.eye(2), r.preserved, measure_E1, rng):
        failures.append("E1 oracle mismatch on diag(2,1) x I")

    for scale_a, scale_b in ((1.0, 1.0), (3.0, 0.25), (0.5, 5.0)):
        r = check_E1(scale_a * ua, scale_b * ub)
        if not r.preserved:
            failures.append(f"E1 rejected {scale_a}U x {scale_b}V")
        elif not _oracle_matches(scale_a * ua, scale_b * ub, True, measure_E1, rng):
            failures.append("E1 oracle mismatch on flat factors")

    r = check_E2(2.0 * ua, 0.5 * ub)
    if not r.preserved or abs(r.certificate.scalar - 2.0) > 1e-9:
        failures.append("E2 rejected 2U x V/2 or wrong scalar")
    elif not _oracle_matches(2.0 * ua, 0.5 * ub, True, measure_E2, rng):
        failures.append("E2 oracle mismatch on 2U x V/2")

    r = check_E2(2.0 * ua, ub)
    if r.preserved or r.witness is None:
        failures.append("E2 accepted 2U x V")
    elif abs(r.witness.value_out - 4.0) > 1e-8:
        failures.append(f"E2 witness value {r.witness.value_out}")
    if not _oracle_matches(2.0 * ua, ub, False, measure_E2, rng):
        failures.append("E2 oracle mismatch on 2U x V")

    return _finish("quantitative-verdicts", t0, not failures,
                   "; ".join(failures) or "E1/E2 verdicts, witnesses, and sampled oracle agree")


# ---------------------------------------------------------------------------
# criterion 7: the ratio-root certification

def criterion_ratio_root() -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    root = ratio_deficit_root(tol=1e-9, grid_points=10**6)
    if abs(root - 1.0 / np.sqrt(2.0)) > 1e-9:
        failures.append(f"root {root!r}")
    changes = ratio_deficit_sign_changes(10**6)
    if changes != 1:
        failures.append(f"{changes} sign changes on the grid")
    r = check_E2(np.diag([2.0, 1.0]), np.diag([1.0, 0.5]))
    if r.preserved or r.witness is None:
        failures.append("balanced-product map accepted by E2")
    elif abs(r.witness.value_out - r.witness.value_in) < 1e-3:
        failures.append("balanced-product witness shows no E2 change")
    return _finish("ratio-root", t0, not failures,
                   "; ".join(failures) or
                   f"root {root:.12f}, one sign change, balanced-product map rejected")


# ---------------------------------------------------------------------------
# criterion 8: Schmidt rank invariance under accepted maps

def criterion_rank_invariance() -> CriterionResult:
    t0 = time.perf_counter()
    rng = split_rng(108, 0)
    failures = []
    violations = 0
    for shape in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        for swap in (False, True):
            bmap = random_local_map(shape, swap=swap, seed=rng, cond_cap=1e3)
            rng.integers(2**32)  # spent draw, once a witness seed: keeps later inputs fixed
            verdict = classify(bmap)
            if verdict.kind not in (KIND_LOCAL, KIND_SWAP_LOCAL):
                failures.append(f"map on {shape} swap={swap} not accepted")
                continue
            for rank in range(1, min(shape) + 1):
                for _ in range(100):
                    v = random_schmidt_rank_state(shape, rank, rng)
                    if schmidt_rank(bmap.apply(v), verdict.output_shape) != rank:
                        violations += 1
    if violations:
        failures.append(f"{violations} rank violations")
    return _finish("schmidt-rank-invariance", t0, not failures,
                   "; ".join(failures) or "zero violations across 5 shapes x 2 kinds x 100 states/rank")


# ---------------------------------------------------------------------------
# criterion 9 support: CLI fixture round trips (selfcheck runs this inline;
# the full criterion additionally times `selfcheck` itself)

def _run_cli(argv: list[str]) -> tuple[int, str]:
    from .cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(argv)
    return code, buf.getvalue()


def criterion_cli_fixtures() -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def path(name: str) -> str:
            return os.path.join(tmp, name)

        code, _ = _run_cli(["gen", "cnot", "--out", path("cnot.json")])
        if code != 0:
            failures.append("gen cnot failed")
        code, out = _run_cli(["classify", path("cnot.json"), "--json"])
        if code != 3:
            failures.append(f"classify cnot exit {code}")
        else:
            report = json.loads(out)
            coeffs = report["verdict"]["witness"]["evidence"]["image_coefficients"]
            if max(abs(c - 1.0 / np.sqrt(2.0)) for c in coeffs) > 1e-9:
                failures.append(f"cnot witness coefficients {coeffs}")

        code, _ = _run_cli(["gen", "bell", "--out", path("bell.json")])
        code, out = _run_cli(["schmidt", path("bell.json")])
        if code != 0 or "rank: 2" not in out or "0.707106781" not in out:
            failures.append(f"bell schmidt output: exit {code}")
        code, out = _run_cli(["measure", path("bell.json"), "--measure", "E"])
        if code != 0 or out.strip() != "1.000000000":
            failures.append(f"bell E = {out.strip()!r}")

        code, _ = _run_cli(["gen", "psi_c", "0.707106781", "2", "2", "--out", path("psic.json")])
        code, out = _run_cli(["measure", path("psic.json"), "--measure", "E"])
        if code != 0 or out.strip() != "1.000000000":
            failures.append(f"psi_c(1/sqrt2) E = {out.strip()!r}")

        code, _ = _run_cli(["gen", "local", "3", "3", "--seed", "7", "--out", path("local.json")])
        code, out = _run_cli(["classify", path("local.json"), "--json"])
        if code != 0 or json.loads(out)["verdict"]["kind"] != "Local":
            failures.append(f"gen local -> classify exit {code}")

        code, _ = _run_cli(["gen", "superop_unitary", "3", "--out", path("su.json")])
        code, out = _run_cli(["verify-entropy", path("su.json"), "--json"])
        if code != 0 or abs(json.loads(out)["verdict"]["gain"] - 1.0) > 1e-9:
            failures.append(f"superop_unitary exit {code}")
        code, _ = _run_cli(["gen", "superop_transpose", "2", "--out", path("st.json")])
        code, out = _run_cli(["verify-entropy", path("st.json"), "--json"])
        if code != 0 or json.loads(out)["verdict"]["kind"] != "AntiunitaryConjugation":
            failures.append(f"superop_transpose exit {code}")
        code, _ = _run_cli(["gen", "superop_depolarize", "2", "--out", path("sd.json")])
        code, out = _run_cli(["verify-entropy", path("sd.json"), "--json"])
        if code != 3:
            failures.append(f"superop_depolarize exit {code}")
        else:
            witness = json.loads(out)["verdict"]["witness"]
            if abs(witness["entropy_out"] - 0.8112781244591328) > 1e-6:
                failures.append(f"depolarize witness entropy {witness['entropy_out']}")

        with open(path("broken.json"), "w", encoding="utf-8") as fh:
            fh.write("{not json")
        code, _ = _run_cli(["classify", path("broken.json")])
        if code != 1:
            failures.append(f"malformed JSON exit {code}")
        with open(path("dim.json"), "w", encoding="utf-8") as fh:
            json.dump({"kind": "bipartite_map", "shape": [2, 2],
                       "matrix": [[[1.0, 0.0]] * 3] * 3}, fh)
        code, _ = _run_cli(["classify", path("dim.json")])
        if code != 2:
            failures.append(f"dimension mismatch exit {code}")

    return _finish("cli-fixtures", t0, not failures,
                   "; ".join(failures) or "fixture round trips and exit codes as specified")


CRITERIA = (
    criterion_closed_form_spectra,
    criterion_single_system_roundtrip,
    criterion_gain_equality,
    criterion_qualitative_classification,
    criterion_phase_grid,
    criterion_quantitative,
    criterion_ratio_root,
    criterion_rank_invariance,
    criterion_cli_fixtures,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
