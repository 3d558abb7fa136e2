#!/usr/bin/env python3
"""Run classify and analyze over a fixed corpus and hash every output field.

The corpus is the classify-accept, classify-reject and entropy-verify pools
of perfbench/workloads.py, seeds 1-11, and three analyze families.  The
near-tol family: unitary and antiunitary conjugations at d = 2, 3, 4, 8,
built with the pools' haar and conjugation from a fixed seed, plus complex
Gaussian noise of relative Frobenius size 3e-9, 1e-8, 1.2e-8 and 2e-8, so
that their verdicts fall on both sides of the default tol.  The
random-phase family: the diagonal map that multiplies each entry of rho by
its own phase exp(2 pi i t), t uniform from default_rng(seed), at d = 2, 3,
4, 5, 8 and seeds 0-9.  The negated-conjugation family: -conj(U) x U with
U the pools' haar from default_rng(k), at d = 2, 3, 4 and k = 0-19.  Each
input is taken at x1, x2^-1000 and x2^900 (exact power-of-two scalings of
its matrix).  One line is printed per
input: its name, the verdict kind and the witness kind in clear ("-" for
none), then a hash of every output field, bit for bit: for classify the
kind, detail, output shape, A, B, reconstruction_error, rank_ratio and the
witness's kind, state and evidence; for analyze the kind, U, gain, detail
and witness.  An input whose call raises prints the exception's type as its
kind.  RuntimeWarnings are raised as errors.  A count of inputs and the time
per workload go to stderr.

--src DIR imports unitarity_kit from DIR instead of this tree's src.
--against DIR runs the same corpus on the library of a second source tree,
DIR/src, in a subprocess, prints each input whose line differs with both
lines, then the number of differing inputs of each family that has any
(an input's family is its name less the pool seed, the index and the
scaling), and exits with status 1 when any input differs.  The corpus
always comes from this tree's perfbench, so both runs see the same inputs.

    python scripts/equivalence.py > lines.txt
    python scripts/equivalence.py --against ../parent-tree
"""

import argparse
import dataclasses
import hashlib
import re
import subprocess
from collections import Counter
import sys
import time
import warnings
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("classify-accept", "classify-reject", "entropy-verify")
SEEDS = range(1, 12)
EXPONENTS = (0, -1000, 900)
NEAR_TOL_DIMS = (2, 3, 4, 8)
NEAR_TOL_EPSILONS = (3e-9, 1e-8, 1.2e-8, 2e-8)
NEAR_TOL_MAPS = 10  # per reading, d and epsilon
RANDOM_PHASE_DIMS = (2, 3, 4, 5, 8)
RANDOM_PHASE_SEEDS = range(10)
NEGATED_DIMS = (2, 3, 4)
NEGATED_SEEDS = range(20)


def _feed(h, value) -> None:
    """Every field of value into the hash, with its type, shape and bits."""
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        h.update(f"<{a.dtype.str}{a.shape}>".encode())
        h.update(a.tobytes())
    elif isinstance(value, tuple):
        h.update(b"(")
        for item in value:
            _feed(h, item)
        h.update(b")")
    elif isinstance(value, (float, np.floating)):
        h.update(float(value).hex().encode())
    elif isinstance(value, (int, np.integer)):
        h.update(str(int(value)).encode())
    else:
        h.update(repr(value).encode())
    h.update(b";")


def _line(name: str, result) -> str:
    witness = result.witness
    kind = "-" if witness is None else getattr(witness, "kind", "witness")
    h = hashlib.sha256()
    _feed(h, result)
    return f"{name} {result.kind} {kind} {h.hexdigest()[:16]}"


def _scaled(a: np.ndarray, j: int) -> np.ndarray:
    """a * 2^j, exact unless a real or imaginary part under- or overflows."""
    a = np.ascontiguousarray(a)
    return np.ldexp(a.view(np.float64), j).view(a.dtype)


def _outcome(label: str, decide, matrix) -> str:
    """The line of decide(matrix); an input that raises is an outcome to
    compare, printed with the exception's type as its kind."""
    try:
        result = decide(matrix)
    except Exception as exc:
        return f"{label} {type(exc).__name__} - -"
    return _line(label, result)


def _decider(uk, kind, shape):
    if kind == "classify":
        return lambda matrix: uk.classifier.classify(uk.classifier.BipartiteMap(matrix, shape))
    return lambda matrix: uk.entropy_dynamics.analyze(uk.entropy_dynamics.Superoperator(matrix, shape))


def corpus_lines(uk, workloads, name: str):
    """One line per input of a workload, seed by seed; each seed's pool is
    built, run and dropped before the next."""
    for seed in SEEDS:
        for slot in workloads.build_pool(name, seed):
            for k, op in enumerate(slot):
                decide = _decider(uk, op.kind, op.shape)
                for j in EXPONENTS:
                    yield _outcome(f"{name}/s{seed}/{op.cls}#{k}/x2^{j}", decide, _scaled(op.matrix, j))


def near_tol_lines(uk, workloads):
    """One line per input of the near-tol family: for each d, reading and
    epsilon, NEAR_TOL_MAPS Haar conjugations (times the transpose for the
    antiunitary reading) with complex Gaussian noise of Frobenius norm
    epsilon times the map's, all drawn from one fixed stream."""
    rng = np.random.default_rng(0)
    for d in NEAR_TOL_DIMS:
        decide = _decider(uk, "analyze", d)
        transpose = workloads.oracle.transpose_permutation(d)
        for reading in ("unitary", "antiunitary"):
            for eps in NEAR_TOL_EPSILONS:
                for k in range(NEAR_TOL_MAPS):
                    m = workloads.conjugation(workloads.haar(rng, d))
                    if reading == "antiunitary":
                        m = m @ transpose
                    noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
                    m = m + (eps * np.linalg.norm(m) / np.linalg.norm(noise)) * noise
                    for j in EXPONENTS:
                        yield _outcome(f"near-tol/{reading}/d{d}/eps{eps:g}#{k}/x2^{j}", decide, _scaled(m, j))


def analyze_family_lines(uk, workloads):
    """One line per input of the random-phase and negated-conjugation
    families, each map drawn from its own fixed stream."""
    for d in RANDOM_PHASE_DIMS:
        decide = _decider(uk, "analyze", d)
        for seed in RANDOM_PHASE_SEEDS:
            m = np.diag(np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=d * d)))
            for j in EXPONENTS:
                yield _outcome(f"random-phase/d{d}#{seed}/x2^{j}", decide, _scaled(m, j))
    for d in NEGATED_DIMS:
        decide = _decider(uk, "analyze", d)
        for k in NEGATED_SEEDS:
            m = -workloads.conjugation(workloads.haar(np.random.default_rng(k), d))
            for j in EXPONENTS:
                yield _outcome(f"negated-conjugation/d{d}#{k}/x2^{j}", decide, _scaled(m, j))


def family(line: str) -> str:
    """The family of an input line: its name less the pool seed, the index
    and the scaling."""
    return re.sub(r"/s\d+/", "/", line.split(" ", 1)[0].split("#", 1)[0])


def run(src: Path) -> list[str]:
    sys.path[:0] = [str(src), str(REPO / "perfbench")]
    import unitarity_kit as uk
    import workloads

    families = [(name, corpus_lines(uk, workloads, name)) for name in WORKLOADS]
    families.append(("near-tol", near_tol_lines(uk, workloads)))
    families.append(("random-phase and negated-conjugation", analyze_family_lines(uk, workloads)))
    lines = []
    for name, family in families:
        start = time.perf_counter()
        before = len(lines)
        lines.extend(family)
        print(f"{name}: {len(lines) - before} inputs in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=REPO / "src", help="directory that holds unitarity_kit")
    ap.add_argument("--against", type=Path, help="a second source tree to compare with")
    args = ap.parse_args()
    warnings.simplefilter("error", RuntimeWarning)
    if args.against is None:
        print("\n".join(run(args.src)))
        return 0
    proc = subprocess.run(
        [sys.executable, __file__, "--src", str(args.against / "src")],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"the run on {args.against} failed:\n{proc.stderr}")
    other = proc.stdout.splitlines()
    ours = run(args.src)
    differ = [(theirs, mine) for theirs, mine in zip(other, ours, strict=True) if theirs != mine]
    for theirs, mine in differ:
        print(f"- {theirs}\n+ {mine}")
    inputs = Counter(map(family, ours))
    for name, count in Counter(family(mine) for _, mine in differ).items():
        print(f"{name}: {count} of {inputs[name]} inputs differ")
    print(f"{len(differ)} of {len(ours)} inputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
