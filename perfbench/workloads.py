"""Seeded inputs, operations and oracle hooks for the benchmark workloads.

Inputs are built here with plain numpy, never with unitarity_kit.generators,
so a change to the library's generators cannot change the traffic.

A workload is a fixed list of slots.  A slot names one class of input (a
family and a size) and runs once per round, so every round has the same size
mix whatever the seed; the seed only draws the matrices.  Each slot keeps a
small pool of distinct instances and round r uses instance r mod pool size.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

WORKLOAD_NAMES = ("classify-accept", "classify-reject", "entropy-verify", "cli-roundtrip")

EXIT_OK, EXIT_NOT_PRESERVING = 0, 3


@dataclass
class Op:
    """One closed-loop request: its inputs and what the oracle expects."""

    cls: str                      # slot class, e.g. "local/general/8x8"
    kind: str                     # classify | analyze | cli-<subcommand>
    matrix: np.ndarray | None = None
    shape: object = None          # (n, m) for bipartite data, d for superoperators
    expect: str = ""              # verdict kind the input provably has
    extra: dict = field(default_factory=dict)
    argv: list | None = None      # CLI ops only


# ---------------------------------------------------------------------------
# random ingredients (own numpy code)

def _ginibre(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def haar(rng, d):
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def conditioned(rng, d, cond):
    """U diag(s) V with log-uniform singular values spanning at most `cond`."""
    s = np.exp(rng.uniform(-np.log(cond), 0.0, size=d))
    return (haar(rng, d) * s) @ haar(rng, d)


def overall_scale(rng):
    return 10.0 ** rng.uniform(-2.0, 2.0)


def off_one_scale(rng):
    """A scale at least a factor 2 away from 1, so E2 is clearly broken."""
    return 10.0 ** (rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0))


# Each local factor is capped at sqrt(1e3), so the map's condition number
# stays at or below 1e3.
FACTOR_COND = 1e3 ** 0.5


def cnot_permutation(n, m):
    """Generalized CNOT |i, j> -> |i, (i + j) mod m>."""
    p = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(m):
            p[i * m + (i + j) % m, i * m + j] = 1.0
    return p


def entangled_unit(rng, n, m):
    v = _ginibre(rng, n * m, 1)[:, 0]
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# classify-accept: Local and SwapLocal maps

def _factors(rng, p, q, factor):
    """(A, B, E1 preserved, E2 preserved) for one factor family."""
    if factor == "general":
        return conditioned(rng, p, FACTOR_COND), conditioned(rng, q, FACTOR_COND), False, False
    if factor == "unitary":
        c = overall_scale(rng)
        return c * haar(rng, p), haar(rng, q) / c, True, True
    return off_one_scale(rng) * haar(rng, p), haar(rng, q), True, False


def accept_op(rng, cls):
    family, factor, size = cls.split("/")
    n, m = (int(x) for x in size.split("x"))
    if family == "local":
        a, b, e1, e2 = _factors(rng, n, m, factor)
        matrix = np.kron(a, b)
    else:
        a, b, e1, e2 = _factors(rng, m, n, factor)
        matrix = np.kron(a, b) @ oracle.swap_permutation(n, m)
    if factor == "general":
        matrix = matrix * overall_scale(rng)
    expect = oracle.LOCAL if family == "local" else oracle.SWAP_LOCAL
    return Op(cls, "classify", matrix, (n, m), expect, {"quant": (e1, e2)})


# ---------------------------------------------------------------------------
# classify-reject: NotPreserving maps leaving at different stages

def _local(rng, n, m):
    return np.kron(conditioned(rng, n, FACTOR_COND), conditioned(rng, m, FACTOR_COND))


def reject_op(rng, cls):
    family, size = cls.split("/")
    n, m = (int(x) for x in size.split("x"))
    d = n * m
    if family == "haar":
        matrix = haar(rng, d)
    elif family == "cnot":
        matrix = cnot_permutation(n, m).astype(complex)
    elif family == "cnot-left":
        matrix = _local(rng, n, m) @ cnot_permutation(n, m)
    elif family == "cphase":
        phases = np.exp(2j * np.pi * rng.uniform(size=d))
        matrix = _local(rng, n, m) * phases
    elif family == "perturbed":
        local = _local(rng, n, m)
        g = _ginibre(rng, d, d)
        eps = 10.0 ** rng.uniform(-5.0, -2.0)
        matrix = local + eps * np.linalg.norm(local) * g / np.linalg.norm(g)
    elif family == "kernel-product":
        a = conditioned(rng, n, FACTOR_COND)
        u, s, vh = np.linalg.svd(a)
        s[-1] = 0.0
        matrix = np.kron((u * s) @ vh, conditioned(rng, m, FACTOR_COND))
    elif family == "kernel-entangled":
        k = entangled_unit(rng, n, m)
        matrix = _local(rng, n, m) @ (np.eye(d) - np.outer(k, k.conj()))
    else:
        raise ValueError(f"unknown reject family {family!r}")
    return Op(cls, "classify", matrix * overall_scale(rng), (n, m), oracle.NOT_PRESERVING)


# ---------------------------------------------------------------------------
# entropy-verify: superoperators in the column-stacking convention

def conjugation(u):
    return np.kron(u.conj(), u)


def depolarizer(d, strength):
    flat = np.eye(d).reshape(-1, order="F")
    return (1.0 - strength) * np.eye(d * d) + (strength / d) * np.outer(flat, flat)


def entropy_op(rng, cls):
    family, size = cls.split("/")
    d = int(size.removeprefix("d"))
    gain = overall_scale(rng)
    expect = oracle.NOT_PRESERVING
    if family == "unitary":
        matrix, expect = conjugation(haar(rng, d)), oracle.UNITARY
    elif family == "antiunitary":
        matrix, expect = conjugation(haar(rng, d)) @ oracle.transpose_permutation(d), oracle.ANTIUNITARY
    elif family.startswith("depolarize"):
        matrix = depolarizer(d, float(family.split("-")[1]))
    elif family == "nonunitary":
        matrix = conjugation(conditioned(rng, d, 10.0))
    elif family == "mixture":
        p = rng.uniform(0.2, 0.8)
        matrix = p * conjugation(haar(rng, d)) + (1.0 - p) * conjugation(haar(rng, d))
    else:
        raise ValueError(f"unknown entropy family {family!r}")
    return Op(cls, "analyze", gain * matrix, d, expect)


# ---------------------------------------------------------------------------
# cli-roundtrip: JSON files in a work directory, one cli.main call per op

def _pair_list(a):
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_pair_list(row) for row in a]


def write_map_file(path, kind, shape, array):
    """The documented file format, written the way the tool writes it."""
    shape_field = list(shape) if isinstance(shape, tuple) else shape
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": kind, "shape": shape_field, "matrix": _pair_list(array)}, fh, indent=1)
        fh.write("\n")


def _gen_expectation(kind, params):
    """What a `gen` output must hold: (file kind, shape, oracle expectation)."""
    dims = [int(x) for x in params if "." not in x]
    if kind in ("local", "swap_local"):
        return "bipartite_map", dims, {"product": tuple(dims), "swapped": kind == "swap_local"}
    if kind == "unitary":
        return "bipartite_map", dims, {"unitary": True}
    if kind == "cnot":
        return "bipartite_map", [2, 2], {"equals": cnot_permutation(2, 2)}
    if kind == "bell":
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        return "state", [2, 2], {"equals": v}
    if kind == "psi_c":
        c, (n, m) = float(params[0]), dims
        v = np.zeros(n * m)
        v[0], v[-1] = c, np.sqrt(1.0 - c * c)
        return "state", [n, m], {"equals": v}
    (d,) = dims
    if kind == "superop_unitary":
        return "superoperator", d, {"unitary": True, "product": (d, d)}
    if kind == "superop_transpose":
        return "superoperator", d, {"equals": oracle.transpose_permutation(d)}
    return "superoperator", d, {"equals": depolarizer(d, 0.5)}


def cli_op(rng, cls, workdir, index):
    """CLI slots: read/<subcommand>/<input class> or gen/<kind>/<params>."""
    verb, rest = cls.split("/", 1)
    path = os.path.join(workdir, f"slot{index:03d}.json")
    if verb == "gen":
        kind, params = rest.split("/")
        params = params.split("-") if params else []
        file_kind, shape, expect = _gen_expectation(kind, params)
        argv = ["gen", kind, *params, "--seed", str(int(rng.integers(1 << 30))), "--out", path]
        return Op(cls, "cli-gen", shape=shape, extra={"path": path, "file_kind": file_kind,
                                                       "gen": expect}, argv=argv)
    command, source = rest.split("/", 1)
    if command == "classify":
        op = accept_op(rng, source) if source.startswith(("local", "swap")) else reject_op(rng, source)
        write_map_file(path, "bipartite_map", op.shape, op.matrix)
        op.kind, op.argv = "cli-classify", ["classify", path, "--json"]
    elif command == "verify-entropy":
        op = entropy_op(rng, source)
        write_map_file(path, "superoperator", op.shape, op.matrix)
        op.kind, op.argv = "cli-verify", ["verify-entropy", path, "--json"]
    else:
        *which, size = source.split("/")  # schmidt/<n>x<m> or measure/<E|E1|E2>/<n>x<m>
        n, m = (int(x) for x in size.split("x"))
        state = entangled_unit(rng, n, m)
        write_map_file(path, "state", (n, m), state)
        if command == "schmidt":
            op = Op(cls, "cli-schmidt", state, (n, m), argv=["schmidt", path, "--json"])
        else:
            op = Op(cls, "cli-measure", state, (n, m), extra={"measure": which[0]},
                    argv=["measure", path, "--measure", which[0]])
    op.cls = cls
    return op


# ---------------------------------------------------------------------------
# the workloads: slots (class, pool size) in round order

WORKLOADS = {
    "classify-accept": (accept_op, [
        ("local/general/2x2", 4), ("swap/unitary/2x2", 4), ("local/general/3x3", 4),
        ("local/general/2x3", 4), ("swap/general/4x4", 4), ("local/scaled/2x2", 4),
        ("local/general/12x12", 4), ("swap/scaled/3x3", 4), ("swap/general/3x2", 4),
        ("local/general/6x6", 4), ("swap/general/2x2", 4), ("local/unitary/3x4", 4),
        ("swap/general/8x8", 4), ("local/unitary/3x3", 4), ("swap/general/2x4", 4),
        ("local/general/16x16", 4), ("local/general/4x4", 4), ("swap/scaled/2x3", 4),
        ("swap/general/12x12", 4), ("local/general/4x8", 4), ("swap/general/3x3", 4),
        ("local/scaled/12x12", 4), ("local/unitary/4x4", 4), ("swap/general/3x4", 4),
        ("local/general/3x3", 4),
    ]),
    "classify-reject": (reject_op, [
        ("haar/2x2", 4), ("cnot-left/8x8", 4), ("cphase/3x3", 4), ("perturbed/2x2", 4),
        ("kernel-product/3x3", 4), ("haar/16x16", 4), ("cnot/3x3", 1), ("cphase/2x2", 4),
        ("perturbed/4x4", 4), ("kernel-entangled/4x4", 4), ("haar/3x3", 4),
        ("cnot-left/2x2", 4), ("cphase/16x16", 4), ("perturbed/3x3", 4),
        ("kernel-product/4x4", 4), ("haar/4x4", 4), ("cnot/6x6", 1), ("cphase/4x4", 4),
        ("perturbed/8x8", 4), ("kernel-entangled/16x16", 4), ("haar/6x6", 4),
        ("cnot-left/4x4", 4), ("cphase/6x6", 4), ("perturbed/12x12", 4),
        ("kernel-product/8x8", 4), ("haar/8x8", 4), ("cnot-left/16x16", 4), ("cnot/2x4", 1),
        ("cphase/4x8", 4), ("perturbed/2x3", 4), ("kernel-entangled/6x6", 4),
        ("haar/3x4", 4), ("cnot-left/12x12", 4), ("kernel-product/2x3", 4),
        ("cnot-left/3x2", 4),
    ]),
    "entropy-verify": (entropy_op, [
        ("unitary/d2", 4), ("depolarize-0.1/d2", 1), ("antiunitary/d8", 4), ("mixture/d4", 4),
        ("unitary/d32", 2), ("nonunitary/d3", 4), ("antiunitary/d2", 4), ("unitary/d8", 4),
        ("depolarize-0.3/d16", 1), ("mixture/d2", 4), ("antiunitary/d32", 2), ("unitary/d3", 4),
        ("nonunitary/d24", 2), ("antiunitary/d4", 4), ("depolarize-0.5/d4", 1),
        ("unitary/d16", 4), ("mixture/d32", 2), ("antiunitary/d3", 4), ("nonunitary/d8", 4),
        ("unitary/d24", 2), ("depolarize-0.9/d8", 1), ("antiunitary/d16", 4),
        ("depolarize-0.5/d32", 1), ("unitary/d4", 4), ("mixture/d16", 4),
    ]),
    "cli-roundtrip": (None, [
        ("read/classify/local/general/2x2", 2), ("read/schmidt/2x2", 2),
        ("read/classify/swap/general/3x3", 2), ("gen/cnot/", 1), ("read/measure/E/3x3", 2),
        ("read/classify/haar/4x4", 2), ("gen/local/3-3", 1), ("read/verify-entropy/unitary/d2", 2),
        ("read/measure/E1/3x4", 2), ("gen/bell/", 1), ("read/classify/cnot/3x3", 1),
        ("read/verify-entropy/antiunitary/d4", 2), ("gen/swap_local/3-4", 1),
        ("read/schmidt/4x8", 2), ("read/classify/local/general/8x8", 2),
        ("gen/superop_unitary/16", 1), ("read/verify-entropy/depolarize-0.5/d8", 1),
        ("read/measure/E2/4x4", 2), ("gen/psi_c/0.6-3-3", 1), ("gen/superop_transpose/4", 1),
        ("read/classify/local/general/16x16", 1), ("gen/unitary/16-16", 1),
        ("read/verify-entropy/unitary/d16", 1), ("gen/superop_depolarize/8", 1),
        ("gen/local/16-16", 1),
    ]),
}


def size_mix(name):
    """Slot classes of one round, in order: the stated size mix."""
    return [cls for cls, _ in WORKLOADS[name][1]]


def build_pool(name, seed, workdir=None):
    """pool[slot] = list of Op instances, drawn from (seed, workload, slot, k)."""
    make, slots = WORKLOADS[name]
    w = WORKLOAD_NAMES.index(name)
    pool = []
    for s, (cls, count) in enumerate(slots):
        ops = []
        for k in range(count):
            rng = np.random.default_rng([seed, w, s, k])
            ops.append(cli_op(rng, cls, workdir, s * 10 + k) if make is None else make(rng, cls))
        pool.append(ops)
    return pool


def round_ops(pool, r):
    return [ops[r % len(ops)] for ops in pool]


# ---------------------------------------------------------------------------
# running and judging one op

def execute(uk, op):
    """Call the program for one op.  Library functions are looked up on their
    modules at call time, so a traced run sees its wrappers."""
    if op.kind == "classify":
        bmap = uk.classifier.BipartiteMap(matrix=op.matrix, shape=op.shape)
        verdict = uk.classifier.classify(bmap)
        if "quant" in op.extra and verdict.kind != oracle.NOT_PRESERVING:
            return verdict, uk.quantitative.check_E1(verdict.a, verdict.b), \
                uk.quantitative.check_E2(verdict.a, verdict.b)
        return verdict, None, None
    if op.kind == "analyze":
        superop = uk.entropy_dynamics.Superoperator(matrix=op.matrix, dim=op.shape)
        return uk.entropy_dynamics.analyze(superop)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = uk.cli.main(op.argv)
    return code, out.getvalue()


def judge(op, result, rng):
    """(reason or None, outcome tag).  The tag names the verdict or witness
    kind, for the per-layer witness shares."""
    if op.kind == "classify":
        verdict, e1, e2 = result
        v = oracle.classify_result(verdict)
        quant = None
        if "quant" in op.extra and e1 is not None:
            quant = (*op.extra["quant"], {"E1": oracle.quant_record(e1), "E2": oracle.quant_record(e2)})
        return oracle.check_classify(op.matrix, op.shape, op.expect, v, quant), _tag(v)
    if op.kind == "analyze":
        v = oracle.analyze_result(result)
        return oracle.check_analyze(op.matrix, op.shape, op.expect, v, rng), v["kind"]
    code, text = result
    want = EXIT_OK
    if op.kind in ("cli-classify", "cli-verify") and op.expect == oracle.NOT_PRESERVING:
        want = EXIT_NOT_PRESERVING
    if code != want:
        return f"exit code {code}, expected {want}", "exit"
    if op.kind == "cli-classify":
        v, records = oracle.classify_report(text)
        quant = None if records is None else (*op.extra["quant"], records)
        return oracle.check_classify(op.matrix, op.shape, op.expect, v, quant), _tag(v)
    if op.kind == "cli-verify":
        v = oracle.analyze_report(text)
        return oracle.check_analyze(op.matrix, op.shape, op.expect, v, rng), v["kind"]
    if op.kind == "cli-schmidt":
        return oracle.check_schmidt_report(op.matrix, op.shape, text), "schmidt"
    if op.kind == "cli-measure":
        return oracle.check_measure_output(op.matrix, op.shape, op.extra["measure"], text), "measure"
    return oracle.check_map_file(op.extra["path"], op.extra["file_kind"], op.shape,
                                 op.extra["gen"]), "gen"


def _tag(v):
    return v["witness"]["kind"] if v["witness"] is not None else v["kind"]
