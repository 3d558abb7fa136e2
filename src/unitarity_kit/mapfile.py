"""JSON interchange format for maps, superoperators, and states.

A file is one JSON object with three fields:

    kind    "bipartite_map" | "superoperator" | "state"
    shape   [n, m] for bipartite objects, or a scalar dimension d
    matrix  row-major nested arrays whose innermost elements are
            [re, im] pairs; a state is a flat list of pairs

All numerics are plain decimal floats.  Files are written compactly on one
line; `python -m json.tool FILE` pretty-prints one for reading or diffing.
The writer streams the text a matrix row at a time, without building the
nested lists or the whole string, and its bytes equal those of compact
`json.dumps` of the object plus a newline.  It refuses whatever the parser
refuses (map_file_chunks).

Parsing validates structure (ParseError) and dimension consistency
(ShapeMismatch); these map to CLI exit codes 1 and 2.  Every entry must be
a JSON number: a bool, a string, null, a non-finite value or an integer
beyond float range is a ParseError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParseError, ShapeMismatch
from .linalg import dimension

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
    """Nested lists with [re, im] innermost elements.

    The parts are read through a float64 view, so a contiguous complex128
    array is not copied; every bit is kept, signed zeros included."""
    a = np.asarray(array, dtype=complex)
    return np.ascontiguousarray(a).view(np.float64).reshape(a.shape + (2,)).tolist()


def _stray_type(items, types):
    """A type among items that is bool or not a subclass of types, else None."""
    return next((t for t in set(map(type, items)) if t is bool or not issubclass(t, types)), None)


def _pairs_to_array(raw, depth: int) -> np.ndarray:
    """raw, depth levels of lists around [re, im] pairs, as a complex array.

    Types are checked before the one float conversion, as numpy would read
    true, "1.0" and null as numbers, and lengths before it, so the parts
    are converted as one flat list and reshaped.  The complex view keeps
    every bit of the parsed floats, signed zeros included.
    """
    rows = [raw] if depth == 1 else raw
    if not isinstance(raw, list) or not raw or _stray_type(rows, list):
        raise ParseError("matrix must be a non-empty list of [re, im] pairs, or of rows of them")
    pairs = list(chain.from_iterable(rows))
    stray = _stray_type(pairs, (list, tuple))
    parts = [] if stray else list(chain.from_iterable(pairs))
    stray = stray or _stray_type(parts, (int, float))
    if stray:
        raise ParseError(f"matrix entries must be [re, im] pairs of numbers, got a {stray.__name__}")
    if len(set(map(len, rows))) != 1 or set(map(len, pairs)) != {2}:
        raise ParseError("matrix rows or pairs have inconsistent lengths")
    try:
        a = np.array(parts, dtype=float)
    except OverflowError as exc:  # an int beyond float range
        raise ParseError(f"matrix entry beyond float range: {exc}") from exc
    if not np.isfinite(a).all():
        raise ParseError("non-finite matrix entry")
    return a.view(complex).reshape(len(pairs) if depth == 1 else (len(rows), len(rows[0])))


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


def _check_layout(kind: str, shape, array_shape: tuple[int, ...]) -> None:
    """ShapeMismatch unless an array of array_shape fits kind and shape: a
    state has d entries for a scalar shape d and nm for [n, m], a
    superoperator's shape is a scalar d and its matrix d^2 x d^2, and a
    bipartite map's shape is [n, m] and its matrix nm x nm.  The parser and
    the writer share this rule."""
    if kind == KIND_STATE:
        dim = shape if isinstance(shape, int) else shape[0] * shape[1]
        if array_shape != (dim,):
            raise ShapeMismatch(f"state has {array_shape[0]} entries, shape needs {dim}")
        return
    if kind == KIND_SUPEROPERATOR:
        if not isinstance(shape, int):
            raise ShapeMismatch("superoperator shape must be a scalar dimension")
        want = shape * shape
    else:
        if isinstance(shape, int):
            raise ShapeMismatch("bipartite_map shape must be [n, m]")
        want = shape[0] * shape[1]
    if array_shape != (want, want):
        raise ShapeMismatch(f"matrix is {array_shape}, shape needs {(want, want)}")


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
    array = _pairs_to_array(raw, 1 if kind == KIND_STATE else 2)
    _check_layout(kind, shape, array.shape)
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


def map_file_chunks(kind: str, shape, array: np.ndarray):
    """The text of the file of (kind, shape, array), newline included, as an
    iterator of strings for a text stream's writelines.

    Every check runs on the call, before the first string is made, and
    refuses what the parser would refuse: an unknown kind or a non-finite
    entry is a ParseError; a shape entry that is not an integer of at least
    1 (linalg.dimension: a numpy integer is written as an int, a float or a
    bool is refused), a shape that is neither a scalar nor a pair, or an
    array that does not fit the kind and shape (_check_layout) is a
    ShapeMismatch.  The text equals `json.dumps({"kind": kind, "shape":
    shape, "matrix": complex_to_pairs(array)}) + "\\n"` byte for byte,
    with a pair shape written as a list.
    """
    if kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    if isinstance(shape, (tuple, list)):
        if len(shape) != 2:
            raise ShapeMismatch(f"shape must be [n, m] or a positive integer, got {shape!r}")
        shape = [dimension(x, "shape entry") for x in shape]
    else:
        shape = dimension(shape, "shape")
    a = np.asarray(array, dtype=complex)
    ndim = 1 if kind == KIND_STATE else 2
    if a.ndim != ndim:
        raise ShapeMismatch(f"a {kind} is written from a {ndim}-D array, got shape {a.shape}")
    _check_layout(kind, shape, a.shape)
    if not np.isfinite(a).all():
        raise ParseError("non-finite matrix entry")
    head = '{"kind": %s, "shape": %s, "matrix": ' % (json.dumps(kind), json.dumps(shape))
    return _chunks(head, np.atleast_2d(a), ndim == 2)


def _chunks(head: str, rows: np.ndarray, nested: bool):
    """head, then rows as lists of [re, im] pairs, in brackets if nested.

    Each row is one %-format of its floats: %r is the float repr that the
    json encoder writes, and the format holds json's ", " separators.
    """
    row = "[" + ", ".join(["[%r, %r]"] * rows.shape[1]) + "]"
    yield head + "[" if nested else head
    for i, parts in enumerate(np.ascontiguousarray(rows).view(np.float64)):
        yield (", " + row if i else row) % tuple(parts.tolist())
    yield "]}\n" if nested else "}\n"


def save_map_file(path, kind: str, shape, array: np.ndarray) -> None:
    """Write the file of (kind, shape, array) to path.  The rows are streamed
    to the file; nothing is opened unless map_file_chunks takes the input."""
    chunks = map_file_chunks(kind, shape, array)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
