#!/usr/bin/env python3
"""Run classify and analyze over a fixed corpus and hash every output field.

The corpus is the classify-accept, classify-reject and entropy-verify pools
of perfbench/workloads.py, seeds 1-11, each input at x1, x2^-1000 and x2^900
(exact power-of-two scalings of the pool matrix).  One line is printed per
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
lines, and exits with status 1 when any does.  The corpus always comes from
this tree's perfbench, so both runs see the same inputs.

    python scripts/equivalence.py > lines.txt
    python scripts/equivalence.py --against ../parent-tree
"""

import argparse
import dataclasses
import hashlib
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("classify-accept", "classify-reject", "entropy-verify")
SEEDS = range(1, 12)
EXPONENTS = (0, -1000, 900)


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


def _decide(uk, op, matrix):
    if op.kind == "classify":
        return uk.classifier.classify(uk.classifier.BipartiteMap(matrix, op.shape))
    return uk.entropy_dynamics.analyze(uk.entropy_dynamics.Superoperator(matrix, op.shape))


def corpus_lines(uk, workloads, name: str):
    """One line per input of a workload, seed by seed; each seed's pool is
    built, run and dropped before the next."""
    for seed in SEEDS:
        for slot in workloads.build_pool(name, seed):
            for k, op in enumerate(slot):
                for j in EXPONENTS:
                    label = f"{name}/s{seed}/{op.cls}#{k}/x2^{j}"
                    try:
                        result = _decide(uk, op, _scaled(op.matrix, j))
                    except Exception as exc:  # an input that raises is an outcome to compare
                        yield f"{label} {type(exc).__name__} - -"
                        continue
                    yield _line(label, result)


def run(src: Path) -> list[str]:
    sys.path[:0] = [str(src), str(REPO / "perfbench")]
    import unitarity_kit as uk
    import workloads

    lines = []
    for name in WORKLOADS:
        start = time.perf_counter()
        before = len(lines)
        lines.extend(corpus_lines(uk, workloads, name))
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
    print(f"{len(differ)} of {len(ours)} inputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
