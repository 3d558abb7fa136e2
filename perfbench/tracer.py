"""Outside-in span recorder for the traced run.

The library is not edited.  The traced run replaces the public functions
named in TARGETS by wrappers, on every unitarity_kit module whose namespace
holds them (the attribute each caller looks up at call time), and on the
class for methods.  Each wrapper records one span: name, layer, start, end,
parent span and op id.  Spans stay in memory and are written out when the
run ends.

A layer is a module under src/unitarity_kit/.  A span's self time is its
duration minus that of its child spans, so the self times of one op sum to
the op's root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

# Public names traced, as module-relative paths.  Trivial coercions
# (as_matrix, as_vector, dag, as_shape, split_rng) are left to their caller's
# self time: wrapping them would cost more than they do.
TARGETS = (
    "classifier.classify", "classifier.check_full_rank", "classifier.build_image_table",
    "classifier.detect_case", "classifier.extract_factors", "classifier.factor_phase_grid",
    "classifier.BipartiteMap.apply",
    "schmidt.schmidt_decompose", "schmidt.schmidt_rank", "schmidt.entanglement_E",
    "schmidt.measure_E1", "schmidt.measure_E2", "schmidt.swap_operator",
    "linalg.svd", "linalg.singular_values", "linalg.numerical_rank", "linalg.kron",
    "linalg.frobenius", "linalg.hermitian_eigenvalues", "linalg.partial_trace",
    "generators.haar_unitary", "generators.random_invertible", "generators.random_pure_state",
    "generators.random_density", "generators.random_local_map",
    "generators.random_schmidt_rank_state", "generators.random_product_state",
    "quantitative.check_E1", "quantitative.check_E2", "quantitative.singular_spectra",
    "quantitative.psi_c",
    "entropy_dynamics.analyze", "entropy_dynamics.Superoperator.apply",
    "entropy_dynamics.superop_from_conjugation", "entropy_dynamics.superop_transpose",
    "entropy_dynamics.superop_depolarizing",
    "states.shannon_bits", "states.pure_projector", "states.check_pure_state",
    "states.check_density_matrix", "states.von_neumann_entropy",
    "mapfile.load_map_file", "mapfile.save_map_file", "mapfile.parse_map_data",
    "mapfile.map_file_dict",
    "cli.main",
)

LAYERS = ("classifier", "schmidt", "linalg", "generators", "quantitative",
          "entropy_dynamics", "states", "mapfile", "cli")

# Spans whose first argument is a file path; its size gives bytes moved.
FILE_SPANS = ("mapfile.load_map_file", "mapfile.save_map_file")

ROOT = "op"
PACKAGE = "unitarity_kit"


class Recorder:
    """Spans of one traced run, plus the install/uninstall of the wrappers."""

    def __init__(self):
        # span: [op id, name, parent index, start, end, file path or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        with_path = name in FILE_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [self.op_id, name, stack[-1], 0.0, 0.0,
                    args[0] if with_path and args else None]
            spans.append(span)
            stack.append(idx)
            span[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for target in TARGETS:
            mod_name, *attrs = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                for attr in attrs[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, attrs[-1])
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._undo.append((owner, attrs[-1], original))
                setattr(owner, attrs[-1], wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append([op_id, ROOT, -1, perf_counter(), 0.0, None])

    def end_op(self):
        idx = self.stack.pop()
        self.spans[idx][4] = perf_counter()
        # Resolve file sizes now: a later op may overwrite the same path.
        for span in self.spans[idx:]:
            if isinstance(span[5], (str, os.PathLike)):
                span[5] = os.path.getsize(span[5]) if os.path.exists(span[5]) else 0

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                out[s[2]] -= s[4] - s[3]
        return out

    def check(self) -> str | None:
        """Children lie inside their parents and self times sum to each op."""
        selfs = self.self_times()
        per_op: dict[int, float] = {}
        for s, st in zip(self.spans, selfs):
            if s[2] >= 0:
                parent = self.spans[s[2]]
                if parent[0] != s[0] or s[3] < parent[3] or s[4] > parent[4]:
                    return f"span {s[1]} lies outside its parent {parent[1]}"
            per_op[s[0]] = per_op.get(s[0], 0.0) + st
        for s in self.spans:
            if s[1] == ROOT:
                span = s[4] - s[3]
                if abs(per_op[s[0]] - span) > 1e-9 + 1e-9 * span:
                    return f"self times of op {s[0]} sum to {per_op[s[0]]}, span is {span}"
        return None

    def write(self, path: str):
        """Spans as JSON lines: op, name, parent, start_s, end_s, bytes."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": s[0], "name": s[1], "parent": s[2],
                                     "start_s": s[3], "end_s": s[4], "bytes": s[5]}) + "\n")


def per_layer_metrics(rec: Recorder, n_ops: int) -> dict:
    """Totals per traced name and per layer, divided by the op count.

    Returns {metric name: value}; names whose function is absent from the
    library are left out.
    """
    selfs = rec.self_times()
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    # ROOT's self time is the benchmark's own call glue around the program.
    layer_self: dict[str, float] = {layer: 0.0 for layer in (*LAYERS, ROOT)}
    for i, s in enumerate(rec.spans):
        name = s[1]
        if name == ROOT:
            layer_self[ROOT] += selfs[i]
            continue
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (s[4] - s[3])
        if isinstance(s[5], int):
            nbytes[name] = nbytes.get(name, 0) + s[5]
        layer_self[name.split(".", 1)[0]] += selfs[i]
    out = {}
    for target in TARGETS:
        if target in rec.absent:
            continue
        out[f"{target}.calls_per_op"] = calls.get(target, 0) / n_ops
        out[f"{target}.ms_per_op"] = 1e3 * incl.get(target, 0.0) / n_ops
        if target in FILE_SPANS:
            seconds = incl.get(target, 0.0)
            out[f"{target}.mb_per_s"] = nbytes.get(target, 0) / 1e6 / seconds if seconds else 0.0
    for layer, total in layer_self.items():
        out[f"{layer}.self_ms_per_op"] = 1e3 * total / n_ops
    return out
