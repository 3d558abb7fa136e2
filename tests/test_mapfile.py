import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitarity_kit.errors import ParseError, ShapeMismatch
from unitarity_kit.generators import haar_unitary, random_pure_state
from unitarity_kit.mapfile import (
    KIND_BIPARTITE_MAP,
    KIND_STATE,
    KIND_SUPEROPERATOR,
    complex_to_pairs,
    load_map_file,
    map_file_chunks,
    parse_map_data,
    save_map_file,
)


def test_bipartite_map_round_trip(tmp_path):
    m = haar_unitary(6, seed=1)
    path = tmp_path / "map.json"
    save_map_file(path, KIND_BIPARTITE_MAP, (2, 3), m)
    loaded = load_map_file(path)
    assert loaded.kind == KIND_BIPARTITE_MAP
    assert loaded.shape == (2, 3)
    np.testing.assert_array_equal(loaded.array, m)


def test_superoperator_round_trip(tmp_path):
    m = haar_unitary(9, seed=2)
    path = tmp_path / "super.json"
    save_map_file(path, KIND_SUPEROPERATOR, 3, m)
    loaded = load_map_file(path)
    assert loaded.kind == KIND_SUPEROPERATOR
    assert loaded.shape == 3
    np.testing.assert_array_equal(loaded.array, m)


def test_state_round_trip(tmp_path):
    v = random_pure_state(6, seed=3)
    path = tmp_path / "state.json"
    save_map_file(path, KIND_STATE, (2, 3), v)
    loaded = load_map_file(path)
    assert loaded.kind == KIND_STATE
    np.testing.assert_array_equal(loaded.array, v)


def test_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    with pytest.raises(ParseError):
        load_map_file(path)


def test_rejects_missing_file():
    with pytest.raises(ParseError):
        load_map_file("/nonexistent/nowhere.json")


def test_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_map_data({"kind": "channel", "shape": 2, "matrix": []})


def test_rejects_bad_shape_field():
    with pytest.raises(ParseError):
        parse_map_data({"kind": "state", "shape": [2, 2, 2], "matrix": [[1.0, 0.0]]})
    with pytest.raises(ParseError):
        parse_map_data({"kind": "state", "shape": True, "matrix": [[1.0, 0.0]]})


def test_rejects_malformed_entries():
    with pytest.raises(ParseError):
        parse_map_data({"kind": "state", "shape": 2, "matrix": [[1.0], [0.0, 0.0]]})
    with pytest.raises(ParseError):
        parse_map_data({"kind": "state", "shape": 2, "matrix": [["a", 0.0], [0.0, 0.0]]})


def test_rejects_non_finite_entries():
    with pytest.raises(ParseError):
        parse_map_data(
            {"kind": "state", "shape": 2, "matrix": [[float("nan"), 0.0], [0.0, 0.0]]}
        )


# One defect each, as (state field, 2x2 matrix field) JSON text.  json reads
# NaN and 1e400 as floats, so those two reach the finiteness check.
_MALFORMED = {
    "bool": ("[[true, 0], [0, 1]]", "[[[true, 0], [0, 0]], [[0, 0], [0, 1]]]"),
    "string": ('[["1.0", 0], [0, 1]]', '[[["1.0", 0], [0, 0]], [[0, 0], [0, 1]]]'),
    "null": ("[[null, 0], [0, 1]]", "[[[null, 0], [0, 0]], [[0, 0], [0, 1]]]"),
    "short pair": ("[[1.0], [0, 1]]", "[[[1.0], [0, 0]], [[0, 0], [0, 1]]]"),
    "long pair": ("[[1, 2, 3], [0, 1]]", "[[[1, 2, 3], [0, 0]], [[0, 0], [0, 1]]]"),
    "ragged row": ("[[[1, 0], [0, 1]], [[0, 0]]]", "[[[1, 0], [0, 0]], [[0, 1]]]"),
    "empty row": ("[]", "[[[1, 0], [0, 0]], []]"),
    "too deep": (
        "[[[1, 0], [0, 0]], [[0, 0], [0, 1]]]",
        "[[[[1, 0]], [[0, 0]]], [[[0, 0]], [[0, 1]]]]",
    ),
    "nan": ("[[NaN, 0], [0, 1]]", "[[[NaN, 0], [0, 0]], [[0, 0], [0, 1]]]"),
    "overflow": ("[[1e400, 0], [0, 1]]", "[[[1e400, 0], [0, 0]], [[0, 0], [0, 1]]]"),
    "int overflow": (
        "[[1%s, 0], [0, 1]]" % ("0" * 400),
        "[[[1%s, 0], [0, 0]], [[0, 0], [0, 1]]]" % ("0" * 400),
    ),
}


@pytest.mark.parametrize("field", [0, 1], ids=["state", "matrix"])
@pytest.mark.parametrize("defect", list(_MALFORMED))
def test_parse_is_strict_about_every_entry(field, defect):
    kind, shape = [("state", [2, 1]), ("bipartite_map", [1, 2])][field]
    matrix = json.loads(_MALFORMED[defect][field])
    with pytest.raises(ParseError):
        parse_map_data({"kind": kind, "shape": shape, "matrix": matrix})
    # a pair may be a tuple when the data does not come from JSON
    pairs = [(1.0, -0.0), [0.0, 2.0]]
    matrix = pairs if field == 0 else [pairs, pairs[::-1]]
    loaded = parse_map_data({"kind": kind, "shape": shape, "matrix": matrix})
    expected = np.array([1.0, 2.0j]) if field == 0 else np.array([[1.0, 2.0j], [2.0j, 1.0]])
    np.testing.assert_array_equal(loaded.array, expected)
    assert np.signbit(loaded.array.flat[0].imag)


def test_rejects_state_with_wrong_length():
    with pytest.raises(ShapeMismatch):
        parse_map_data({"kind": "state", "shape": [2, 2], "matrix": [[1.0, 0.0]] * 3})


def test_rejects_scalar_shape_for_bipartite_map():
    with pytest.raises(ShapeMismatch):
        parse_map_data(
            {"kind": "bipartite_map", "shape": 4, "matrix": [[[1.0, 0.0]] * 4] * 4}
        )


def test_rejects_list_shape_for_superoperator():
    with pytest.raises(ShapeMismatch):
        parse_map_data(
            {"kind": "superoperator", "shape": [2, 2], "matrix": [[[1.0, 0.0]] * 4] * 4}
        )


def test_rejects_wrong_matrix_size():
    with pytest.raises(ShapeMismatch):
        parse_map_data(
            {"kind": "bipartite_map", "shape": [2, 2], "matrix": [[[1.0, 0.0]] * 3] * 3}
        )


def test_files_are_plain_decimal_json(tmp_path):
    path = tmp_path / "plain.json"
    save_map_file(path, KIND_STATE, 2, np.array([1.0, 0.0], dtype=complex))
    data = json.loads(path.read_text())
    assert data["matrix"] == [[1.0, 0.0], [0.0, 0.0]]


_TINY = np.finfo(float).smallest_subnormal
_PARTS = np.array([0.0, -0.0, _TINY, -_TINY, 1e-310, -2.5e-308, 1.0, -np.pi, 1e308])
_GRID = np.empty((_PARTS.size, _PARTS.size), dtype=complex)
_GRID.real, _GRID.imag = _PARTS[:, None], _PARTS[None, :]


def test_complex_to_pairs_matches_the_stacked_parts_bit_for_bit():
    samples = [
        _GRID,
        _GRID.T,  # non-contiguous
        _GRID[::2, 1::3],
        _GRID[:, 4],
        np.asarray(_GRID[2, 3]),  # 0-d
        _PARTS,  # real input
        -_PARTS[::-1],
        np.zeros((0, 3), dtype=complex),
    ]
    for array in samples:
        a = np.asarray(array, dtype=complex)
        stacked = np.stack([a.real, a.imag], axis=-1).tolist()
        # json keeps the sign of a zero and every digit of a float
        assert json.dumps(complex_to_pairs(array)) == json.dumps(stacked)


def _plain(value):
    """value as the JSON encoder would write it: a numpy scalar or 0-d array
    as its Python value and a tuple as a list."""
    if isinstance(value, (tuple, list)):
        return [_plain(x) for x in value]
    return value.tolist() if isinstance(value, (np.generic, np.ndarray)) else value


@pytest.mark.parametrize(
    "kind,shape,array",
    [
        (KIND_BIPARTITE_MAP, (3, 3), _GRID),
        (KIND_SUPEROPERATOR, 3, _GRID.T),  # non-contiguous
        (KIND_STATE, (3, 3), _GRID[:, 4]),  # strided
        (KIND_STATE, 9, _PARTS),  # real input
        (KIND_STATE, [3, 3], -_PARTS[::-1]),
        (KIND_STATE, (1, 1), np.array([-0.0 - 0.0j])),
        (KIND_SUPEROPERATOR, 1, np.array([[1e300 - 1e-300j]])),
        (KIND_BIPARTITE_MAP, (16, 16), haar_unitary(256, seed=4)),
        (KIND_BIPARTITE_MAP, (np.int64(2), np.uint8(2)), _GRID[:4, :4]),
        (KIND_SUPEROPERATOR, np.int32(2), _GRID[:4, :4]),
        (KIND_STATE, np.array(3), _PARTS[:3]),
    ],
    ids=["grid", "transposed", "column", "real", "reversed", "signed-zero", "d1", "256x256",
         "numpy-int-pair", "numpy-int-scalar", "0-d-int-array"],
)
def test_written_file_is_compact_json_byte_for_byte(tmp_path, kind, shape, array):
    # a numpy integer shape is written as an int
    reference = json.dumps({"kind": kind, "shape": _plain(shape), "matrix": complex_to_pairs(array)})
    path = tmp_path / "written.json"
    save_map_file(path, kind, shape, array)
    assert path.read_bytes() == (reference + "\n").encode()
    assert "".join(map_file_chunks(kind, shape, array)) == reference + "\n"
    np.testing.assert_array_equal(load_map_file(path).array, array)


@pytest.mark.parametrize(
    "kind,shape,array,error",
    [
        (KIND_STATE, 2, np.array([np.nan, 0.0]), ParseError),
        (KIND_STATE, 2, np.array([0.0, complex(0.0, -np.inf)]), ParseError),
        (KIND_BIPARTITE_MAP, (1, 2), np.array([[1.0, 0.0], [0.0, np.inf]]), ParseError),
        ("channel", 1, np.eye(1), ParseError),
        (KIND_STATE, (1, 2), np.eye(2), ShapeMismatch),
        (KIND_SUPEROPERATOR, 2, np.ones(4), ShapeMismatch),
        # shapes the parser refuses, which the writer once wrote
        (KIND_SUPEROPERATOR, 2.7, np.eye(4), ShapeMismatch),
        (KIND_BIPARTITE_MAP, (2.0, True), np.eye(2), ShapeMismatch),
        (KIND_BIPARTITE_MAP, 4, np.eye(4), ShapeMismatch),
        (KIND_SUPEROPERATOR, (2, 2), np.eye(4), ShapeMismatch),
        (KIND_SUPEROPERATOR, 3, np.eye(4), ShapeMismatch),
        (KIND_STATE, (2, 2), np.ones(3), ShapeMismatch),
        (KIND_BIPARTITE_MAP, (2, 2, 1), np.eye(4), ShapeMismatch),
        (KIND_STATE, 0, np.ones(0), ShapeMismatch),
        (KIND_STATE, np.array([2, 2]), np.ones(4), ShapeMismatch),
    ],
    ids=["nan", "complex-inf", "matrix-inf", "kind", "state-matrix", "superop-vector", "float-dim",
         "float-and-bool", "scalar-bipartite", "pair-superop", "superop-size", "state-size", "triple", "zero",
         "array-shape"],
)
def test_refused_input_creates_no_file(tmp_path, kind, shape, array, error):
    path = tmp_path / "refused.json"
    with pytest.raises(error):
        save_map_file(path, kind, shape, array)
    assert not path.exists()


# every kind of part a file may hold: zeros of both signs, subnormals, the
# ends of the float range and ints, exact and rounded
_PARSED_PARTS = [
    *_PARTS.tolist(), -1e308, np.finfo(float).max, -1e-320, 2**53 + 1, -(2**63), 0, 3,
]


@pytest.mark.parametrize("field", [0, 1], ids=["state", "matrix"])
def test_parse_converts_the_flat_parts_as_the_nested_lists_would(field):
    # one np.array call on the flat parts, then a reshape, gives the bits of
    # the nested conversion, signed zeros included
    parts = _PARSED_PARTS
    if field == 0:
        data = {"kind": "state", "shape": len(parts), "matrix": [[x, y] for x, y in zip(parts, parts[::-1])]}
    else:
        data = {"kind": "bipartite_map", "shape": [4, 4], "matrix": [[[x, y] for y in parts] for x in parts]}
    loaded = parse_map_data(data)
    nested = np.array(data["matrix"], dtype=float).view(complex)[..., 0]
    assert (loaded.array.shape, loaded.array.tobytes()) == (nested.shape, nested.tobytes())
    assert loaded.array.flags.c_contiguous


_KINDS_AND_A_STRAY = (KIND_BIPARTITE_MAP, KIND_SUPEROPERATOR, KIND_STATE, "channel")
_SHAPE_ENTRIES = st.one_of(
    st.integers(1, 3),
    st.integers(1, 3).map(np.int64),
    st.sampled_from([0, -1, 2.0, 2.7, 0.5, True, False, np.True_, np.float64(2.0)]),
)
_SHAPE_LISTS = st.lists(_SHAPE_ENTRIES, min_size=1, max_size=3)


@st.composite
def _writer_inputs(draw):
    """(kind, shape, array) from every form the writer may be handed.  About
    half the arrays take the side, up to 16, that the shape's entries, read
    as ints, give the kind, so that many inputs are valid; one in eight gets
    a non-finite entry."""
    kind = draw(st.sampled_from(_KINDS_AND_A_STRAY))
    shape = draw(st.one_of(_SHAPE_ENTRIES, _SHAPE_LISTS.map(tuple), _SHAPE_LISTS))
    ndim = 1 if kind == KIND_STATE else 2
    side = max(int(np.prod([int(x) for x in np.atleast_1d(shape)])), 0)
    if kind == KIND_SUPEROPERATOR:
        side *= side
    if side > 16 or draw(st.booleans()):
        ndim, side = draw(st.sampled_from([1, 2])), draw(st.integers(0, 9))
    array = np.arange(side**ndim, dtype=complex).reshape((side,) * ndim) * (1 - 0.5j)
    if side and not draw(st.integers(0, 7)):
        array.flat[draw(st.integers(0, array.size - 1))] = draw(st.sampled_from([np.nan, np.inf, complex(0, -np.inf)]))
    return kind, shape, array


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_writer_inputs())
def test_writer_refuses_exactly_what_the_parser_refuses(case):
    kind, shape, array = case
    text = json.dumps({"kind": kind, "shape": _plain(shape), "matrix": complex_to_pairs(array)})
    try:
        parse_map_data(json.loads(text))
        parsed = True
    except (ParseError, ShapeMismatch):
        parsed = False
    try:
        written = "".join(map_file_chunks(kind, shape, array))
    except (ParseError, ShapeMismatch):
        written = None
    assert (written is not None) == parsed
    if parsed:
        assert written == text + "\n"
