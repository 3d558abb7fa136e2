"""JSON interchange format for maps, superoperators, and states.

A file is one JSON object with three fields:

    kind    "bipartite_map" | "superoperator" | "state"
    shape   [n, m] for bipartite objects, or a scalar dimension d
    matrix  row-major nested arrays whose innermost elements are
            [re, im] pairs; a state is a flat list of pairs

All numerics are plain decimal floats.  Files are written compactly on one
line; `python -m json.tool FILE` pretty-prints one for reading or diffing.
Parsing validates structure and finiteness (ParseError) and dimension
consistency (ShapeMismatch); these map to CLI exit codes 1 and 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeMismatch

KIND_BIPARTITE_MAP = "bipartite_map"
KIND_SUPEROPERATOR = "superoperator"
KIND_STATE = "state"

_KINDS = (KIND_BIPARTITE_MAP, KIND_SUPEROPERATOR, KIND_STATE)


@dataclass(frozen=True)
class LoadedFile:
    kind: str
    shape: tuple[int, int] | int
    array: np.ndarray


def complex_to_pairs(array: np.ndarray):
    """Nested lists with [re, im] innermost elements."""
    a = np.asarray(array, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _parse_pair(item) -> complex:
    if (
        not isinstance(item, (list, tuple))
        or len(item) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item)
    ):
        raise ParseError(f"matrix entries must be [re, im] pairs, got {item!r}")
    re, im = float(item[0]), float(item[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ParseError(f"non-finite matrix entry {item!r}")
    return complex(re, im)


def pairs_to_vector(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ParseError("state matrix must be a non-empty list of [re, im] pairs")
    return np.array([_parse_pair(item) for item in data], dtype=complex)


def pairs_to_matrix(data) -> np.ndarray:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError("matrix must be a non-empty list of rows")
    rows = [[_parse_pair(item) for item in row] for row in data]
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ParseError("matrix rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def _parse_shape(value):
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 1:
            raise ParseError(f"scalar shape must be positive, got {value}")
        return value
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in value)
    ):
        return (value[0], value[1])
    raise ParseError(f"shape must be [n, m] or a positive integer, got {value!r}")


def parse_map_data(data) -> LoadedFile:
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        kind = data["kind"]
        shape = _parse_shape(data["shape"])
        raw = data["matrix"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from exc
    if kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}, expected one of {_KINDS}")

    if kind == KIND_STATE:
        array = pairs_to_vector(raw)
        dim = shape if isinstance(shape, int) else shape[0] * shape[1]
        if array.shape[0] != dim:
            raise ShapeMismatch(f"state has {array.shape[0]} entries, shape needs {dim}")
        return LoadedFile(kind=kind, shape=shape, array=array)

    array = pairs_to_matrix(raw)
    if kind == KIND_SUPEROPERATOR:
        if not isinstance(shape, int):
            raise ShapeMismatch("superoperator shape must be a scalar dimension")
        want = shape * shape
    else:
        if isinstance(shape, int):
            raise ShapeMismatch("bipartite_map shape must be [n, m]")
        want = shape[0] * shape[1]
    if array.shape != (want, want):
        raise ShapeMismatch(f"matrix is {array.shape}, shape needs {(want, want)}")
    return LoadedFile(kind=kind, shape=shape, array=array)


def load_map_file(path) -> LoadedFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return parse_map_data(data)


def map_file_dict(kind: str, shape, array: np.ndarray) -> dict:
    if kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    shape_field = list(shape) if isinstance(shape, (tuple, list)) else int(shape)
    return {"kind": kind, "shape": shape_field, "matrix": complex_to_pairs(array)}


def save_map_file(path, kind: str, shape, array: np.ndarray) -> None:
    # compact json.dumps runs the C encoder; indent= or json.dump would not
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(map_file_dict(kind, shape, array)))
        fh.write("\n")
