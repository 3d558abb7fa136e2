"""Command-line front end.

Subcommands load maps/states from JSON files, run the analyzers, and emit a
human-readable or JSON report.  Exit codes are stable API:

    0  preserved / success
    1  parse error or bad arguments
    2  dimension error
    3  not preserving
    4  internal error (also: selfcheck found a failing criterion)

Only `gen` takes a seed (--seed, default 0); `classify` draws no random
numbers and the probes of `verify-entropy` come from one fixed stream, so a
report depends only on the input and --tol, which must lie in (0, 1).  A
file entry that is not a JSON number (a bool, a string, null, a non-finite
value or an integer beyond float range) is a parse error.  A --json report
writes a non-finite float as null.

The parser is built once per process, on the first call of `main`, and
reused: parsing does not change it, so `main` can be called again and
again in one process, and each call sees only its own arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from . import __version__
from .classifier import (
    KIND_NOT_PRESERVING,
    BipartiteMap,
    Witness,
    classify,
)
from .entropy_dynamics import (
    Superoperator,
    analyze,
    superop_depolarizing,
    superop_from_conjugation,
    superop_transpose,
)
from .errors import ParamOutOfRange, ParseError, ShapeMismatch, UnitarityKitError
from .generators import PRNG_NAME, cnot_map, haar_unitary, random_local_map
from .linalg import DEFAULT_RANK_TOL, tolerance
from .mapfile import (
    KIND_BIPARTITE_MAP,
    KIND_STATE,
    KIND_SUPEROPERATOR,
    complex_to_pairs,
    load_map_file,
    map_file_chunks,
    save_map_file,
)
from .quantitative import check_E1, check_E2, psi_c
from .schmidt import (
    BipartiteShape,
    entanglement_E,
    measure_E1,
    measure_E2,
    schmidt_decompose,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DIM = 2
EXIT_NOT_PRESERVING = 3
EXIT_INTERNAL = 4


def _tol_arg(text: str) -> float:
    """--tol as a float in (0, 1); argparse prints the message of an
    ArgumentTypeError but replaces that of a ValueError."""
    try:
        return tolerance(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments, which collides with the
    # dimension-error code; surface them as parse errors instead.
    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on the first call and then shared by every
    call in the process; parse_args does not change it."""
    p = _Parser(
        prog="unitarity-kit",
        description=(
            "Decide whether a linear map preserves entropy (single system) or "
            "entanglement (bipartite system); extract the implementing "
            "(local) unitaries or print a counterexample witness."
        ),
        epilog=(
            "exit codes: 0 preserved/success, 1 parse error, 2 dimension "
            "error, 3 not preserving, 4 internal"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a bipartite map file")
    c.add_argument("path")
    c.add_argument("--tol", type=_tol_arg, default=DEFAULT_RANK_TOL)
    c.add_argument("--json", action="store_true")

    v = sub.add_parser("verify-entropy", help="analyze a superoperator file")
    v.add_argument("path")
    v.add_argument("--tol", type=_tol_arg, default=DEFAULT_RANK_TOL)
    v.add_argument("--json", action="store_true")

    s = sub.add_parser("schmidt", help="Schmidt-decompose a state file")
    s.add_argument("path")
    s.add_argument("--shape", type=int, nargs=2, default=None, metavar=("N", "M"))
    s.add_argument("--tol", type=_tol_arg, default=DEFAULT_RANK_TOL)
    s.add_argument("--bases", action="store_true", help="also print the local bases")
    s.add_argument("--json", action="store_true")

    m = sub.add_parser("measure", help="entanglement measure of a state file")
    m.add_argument("path")
    m.add_argument("--shape", type=int, nargs=2, default=None, metavar=("N", "M"))
    m.add_argument("--measure", choices=("E", "E1", "E2"), default="E")
    m.add_argument("--tol", type=_tol_arg, default=DEFAULT_RANK_TOL)

    g = sub.add_parser("gen", help="generate fixture files")
    g.add_argument(
        "kind",
        choices=(
            "unitary",
            "local",
            "swap_local",
            "cnot",
            "bell",
            "psi_c",
            "superop_unitary",
            "superop_transpose",
            "superop_depolarize",
        ),
    )
    g.add_argument("params", nargs="*", help="dimensions (and c for psi_c)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)

    sub.add_parser("selfcheck", help="run the embedded acceptance suite")
    return p


# ---------------------------------------------------------------------------
# report assembly

def _base_report(command: str, tolerances: dict) -> dict:
    return {
        "tool": "unitarity-kit",
        "version": __version__,
        "prng": PRNG_NAME,
        "command": command,
        "tolerances": tolerances,
    }


def _jsonable(x):
    """x for json.dumps: a dataclass as a dict of its fields in field order,
    None fields left out; a complex array as [re, im] pairs, a real one as a
    list of floats; a tuple as a list; a non-finite float as None; anything
    else as it is."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if is_dataclass(x):
        return {f.name: _jsonable(v) for f in fields(x) if (v := getattr(x, f.name)) is not None}
    if isinstance(x, np.ndarray):
        return complex_to_pairs(x) if np.iscomplexobj(x) else x.tolist()
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def _print_report(report: dict) -> None:
    # a non-finite float that reaches here is a fault: it raises, where it
    # would print Infinity or NaN, which are not JSON
    print(json.dumps(report, indent=2, allow_nan=False))


def _print_witness_human(w: Witness) -> None:
    print(f"witness: {w.kind}")
    coeffs = ", ".join(f"{x:.9f}" for x in w.evidence.input_coefficients)
    print(f"  input Schmidt rank {w.evidence.input_rank} coefficients: {coeffs}")
    coeffs = ", ".join(f"{x:.9f}" for x in w.evidence.image_coefficients)
    print(f"  image Schmidt rank {w.evidence.image_rank} coefficients: {coeffs}")


def _load_expecting(path: str, kind: str):
    loaded = load_map_file(path)
    if loaded.kind != kind:
        raise ParseError(f"{path} holds a {loaded.kind!r} file, expected {kind!r}")
    return loaded


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args) -> int:
    loaded = _load_expecting(args.path, KIND_BIPARTITE_MAP)
    shape = BipartiteShape(*loaded.shape)
    bmap = BipartiteMap(matrix=loaded.array, shape=shape)
    verdict = classify(bmap, tol=args.tol)

    report = _base_report("classify", {"tol": args.tol})
    report["input"] = args.path
    report["verdict"] = {
        "kind": verdict.kind,
        "detail": verdict.detail,
        "output_shape": _jsonable(verdict.output_shape),
        "reconstruction_error": verdict.reconstruction_error,
        "rank_ratio": verdict.rank_ratio,
    }
    if verdict.a is not None:
        report["verdict"]["factor_a"] = complex_to_pairs(verdict.a)
        report["verdict"]["factor_b"] = complex_to_pairs(verdict.b)
    if verdict.witness is not None:
        report["verdict"]["witness"] = _jsonable(verdict.witness)
    if verdict.kind != KIND_NOT_PRESERVING:
        report["quantitative"] = {
            "E1": _jsonable(check_E1(verdict.a, verdict.b, tol=args.tol)),
            "E2": _jsonable(check_E2(verdict.a, verdict.b, tol=args.tol)),
        }

    if args.json:
        _print_report(report)
    else:
        print(f"kind: {verdict.kind}")
        if verdict.output_shape:
            print(f"output shape: {verdict.output_shape}")
        if verdict.reconstruction_error is not None:
            print(f"reconstruction error: {verdict.reconstruction_error:.3e}")
        if verdict.kind != KIND_NOT_PRESERVING:
            for name, q in report["quantitative"].items():
                status = "preserved" if q["preserved"] else "not preserved"
                print(f"{name}: {status}")
        if verdict.witness is not None:
            _print_witness_human(verdict.witness)
    return EXIT_OK if verdict.kind != KIND_NOT_PRESERVING else EXIT_NOT_PRESERVING


def _cmd_verify_entropy(args) -> int:
    loaded = _load_expecting(args.path, KIND_SUPEROPERATOR)
    superop = Superoperator(matrix=loaded.array, dim=loaded.shape)
    verdict = analyze(superop, tol=args.tol)

    report = _base_report("verify-entropy", {"tol": args.tol})
    report["input"] = args.path
    report["verdict"] = {
        "kind": verdict.kind,
        "detail": verdict.detail,
        "gain": verdict.gain,
    }
    if verdict.unitary is not None:
        report["verdict"]["unitary"] = complex_to_pairs(verdict.unitary)
    if verdict.witness is not None:
        report["verdict"]["witness"] = _jsonable(verdict.witness)

    if args.json:
        _print_report(report)
    else:
        print(f"kind: {verdict.kind}")
        if verdict.gain is not None:
            print(f"gain: {verdict.gain:.9f}")
        if verdict.witness is not None:
            w = verdict.witness
            print(
                f"witness: p={w.p:.4f} entropy_in={w.entropy_in:.9f} "
                f"entropy_out={w.entropy_out:.9f}"
            )
    return EXIT_OK if verdict.kind != KIND_NOT_PRESERVING else EXIT_NOT_PRESERVING


def _load_state(args) -> tuple[np.ndarray, BipartiteShape]:
    """The state vector of args.path and its shape (--shape, else the file's)."""
    loaded = _load_expecting(args.path, KIND_STATE)
    if args.shape is not None:
        shape = BipartiteShape(*args.shape)
    elif isinstance(loaded.shape, tuple):
        shape = BipartiteShape(*loaded.shape)
    else:
        raise ShapeMismatch("state file has a scalar shape; pass --shape N M")
    if shape.dim != loaded.array.shape[0]:
        raise ShapeMismatch(
            f"state has {loaded.array.shape[0]} entries, shape {shape.as_tuple()} needs {shape.dim}"
        )
    return loaded.array, shape


def _cmd_schmidt(args) -> int:
    state, shape = _load_state(args)
    dec = schmidt_decompose(state, shape, tol=args.tol)
    if args.json:
        report = _base_report("schmidt", {"tol": args.tol})
        report["input"] = args.path
        report["rank"] = dec.rank
        report["coefficients"] = _jsonable(dec.coefficients)
        if args.bases:
            report["left_vectors"] = complex_to_pairs(dec.left_vectors)
            report["right_vectors"] = complex_to_pairs(dec.right_vectors)
        _print_report(report)
    else:
        print(f"rank: {dec.rank}")
        print("coefficients: " + ", ".join(f"{x:.9f}" for x in dec.coefficients))
        if args.bases:
            print("left vectors (columns):")
            print(np.array_str(dec.left_vectors, precision=6, suppress_small=True))
            print("right vectors (columns):")
            print(np.array_str(dec.right_vectors, precision=6, suppress_small=True))
    return EXIT_OK


def _cmd_measure(args) -> int:
    state, shape = _load_state(args)
    fn = {"E": entanglement_E, "E1": measure_E1, "E2": measure_E2}[args.measure]
    value = fn(state, shape, tol=args.tol)
    print(f"{value:.9f}")
    return EXIT_OK


def _gen_payload(kind: str, params: list[str], seed: int):
    def dims(count: int) -> list[int]:
        if len(params) != count:
            raise ParamOutOfRange(f"gen {kind} needs {count} parameter(s), got {len(params)}")
        try:
            out = [int(x) for x in params]
        except ValueError as exc:
            raise ParamOutOfRange(f"gen {kind}: dimensions must be integers") from exc
        if any(d < 1 for d in out):
            raise ParamOutOfRange(f"gen {kind}: dimensions must be positive")
        return out

    if kind == "unitary":
        n, m = dims(2)
        return KIND_BIPARTITE_MAP, (n, m), haar_unitary(n * m, seed)
    if kind in ("local", "swap_local"):
        n, m = dims(2)
        bmap = random_local_map(BipartiteShape(n, m), swap=kind == "swap_local", seed=seed)
        return KIND_BIPARTITE_MAP, (n, m), bmap.matrix
    if kind == "cnot":
        dims(0)
        return KIND_BIPARTITE_MAP, (2, 2), cnot_map().matrix
    if kind == "bell":
        dims(0)
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        return KIND_STATE, (2, 2), v
    if kind == "psi_c":
        if len(params) != 3:
            raise ParamOutOfRange(f"gen psi_c needs c N M, got {len(params)} parameter(s)")
        try:
            c = float(params[0])
            n, m = int(params[1]), int(params[2])
        except ValueError as exc:
            raise ParamOutOfRange("gen psi_c: parameters must be c N M") from exc
        if n < 2 or m < 2:
            raise ParamOutOfRange("gen psi_c: dimensions must be >= 2")
        return KIND_STATE, (n, m), psi_c(c, (n, m))
    if kind == "superop_unitary":
        (d,) = dims(1)
        return KIND_SUPEROPERATOR, d, superop_from_conjugation(haar_unitary(d, seed)).matrix
    if kind == "superop_transpose":
        (d,) = dims(1)
        return KIND_SUPEROPERATOR, d, superop_transpose(d).matrix
    if kind == "superop_depolarize":
        (d,) = dims(1)
        return KIND_SUPEROPERATOR, d, superop_depolarizing(d).matrix
    raise ParamOutOfRange(f"unknown gen kind {kind!r}")


def _cmd_gen(args) -> int:
    kind, shape, array = _gen_payload(args.kind, args.params, args.seed)
    if args.out:
        save_map_file(args.out, kind, shape, array)
        print(f"wrote {kind} to {args.out}")
    else:
        sys.stdout.writelines(map_file_chunks(kind, shape, array))
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    from .acceptance import run_all

    results = run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.2f}s): {r.detail}")
    if all(r.passed for r in results):
        print("selfcheck: all criteria passed")
        return EXIT_OK
    print("selfcheck: FAILURES above")
    return EXIT_INTERNAL


_DISPATCH = {
    "classify": _cmd_classify,
    "verify-entropy": _cmd_verify_entropy,
    "schmidt": _cmd_schmidt,
    "measure": _cmd_measure,
    "gen": _cmd_gen,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ShapeMismatch as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return EXIT_DIM
    except UnitarityKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())
