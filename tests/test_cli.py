import dataclasses
import json

import numpy as np
import pytest

from unitarity_kit import classifier, cli, witness_reverifies
from unitarity_kit.classifier import BipartiteMap, SchmidtEvidence, Witness, classify
from unitarity_kit.cli import build_parser, main
from unitarity_kit.entropy_dynamics import Superoperator, analyze, superop_from_conjugation
from unitarity_kit.generators import haar_unitary, perturb, random_invertible, random_local_map
from unitarity_kit.linalg import DEFAULT_RANK_TOL, kron
from unitarity_kit.mapfile import (
    KIND_BIPARTITE_MAP,
    KIND_STATE,
    KIND_SUPEROPERATOR,
    load_map_file,
    save_map_file,
)
from unitarity_kit.quantitative import check_E1, check_E2
from unitarity_kit.schmidt import schmidt_rank


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(capsys, tmp_path, kind, *params, seed=None):
    path = tmp_path / f"{kind}_{'_'.join(params)}.json"
    argv = ["gen", kind, *params, "--out", str(path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code, _, _ = run(capsys, argv)
    assert code == 0
    return str(path)


def test_gen_local_then_classify(capsys, tmp_path):
    path = gen(capsys, tmp_path, "local", "3", "3", seed=7)
    code, out, _ = run(capsys, ["classify", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "Local"
    assert report["verdict"]["reconstruction_error"] <= 1e-8
    assert 1e-8 < report["verdict"]["rank_ratio"] <= 1.0
    assert report["quantitative"]["E1"]["preserved"] is False  # generic factors
    assert report["tolerances"]["tol"] == 1e-8


def test_gen_swap_local_then_classify(capsys, tmp_path):
    path = gen(capsys, tmp_path, "swap_local", "2", "3", seed=9)
    code, out, _ = run(capsys, ["classify", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "SwapLocal"
    assert report["verdict"]["output_shape"] == [3, 2]


def test_spot_checks_flag_is_retired(capsys, tmp_path):
    path = gen(capsys, tmp_path, "local", "2", "2", seed=3)
    code, _, err = run(capsys, ["classify", path, "--spot-checks", "4"])
    assert code == 1
    assert "--spot-checks" in err


def test_classify_cnot_prints_witness(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cnot")
    code, out, _ = run(capsys, ["classify", path])
    assert code == 3
    assert "NotPreserving" in out
    assert "0.707106781" in out  # witness image Schmidt coefficients


def test_classify_report_witness_reverifies(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cnot")
    code, out, _ = run(capsys, ["classify", path, "--json"])
    assert code == 3
    report = json.loads(out)
    assert report["verdict"]["rank_ratio"] is None
    witness = report["verdict"]["witness"]
    state = np.array([complex(re, im) for re, im in witness["state"]])
    shape = tuple(witness["evidence"]["input_shape"])
    assert schmidt_rank(state, shape) == witness["evidence"]["input_rank"] == 1
    with open(path, encoding="utf-8") as fh:
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in json.load(fh)["matrix"]]
        )
    image = matrix @ state
    image_shape = tuple(witness["evidence"]["image_shape"])
    assert schmidt_rank(image, image_shape) == witness["evidence"]["image_rank"] == 2


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
def test_classify_report_kernel_witness_reverifies_against_the_file(capsys, tmp_path, n, m):
    # a singular A (x) B: its kernel vector, a product state, is the witness
    singular = np.diag([1.0] * (n - 1) + [0.0]) @ random_invertible(n, seed=3)
    path = tmp_path / "singular.json"
    save_map_file(path, KIND_BIPARTITE_MAP, (n, m), kron(singular, random_invertible(m, seed=4)))
    code, out, _ = run(capsys, ["classify", str(path), "--json"])
    assert code == 3
    verdict = json.loads(out)["verdict"]
    assert verdict["detail"] == "map is rank deficient"
    w = verdict["witness"]
    assert w["kind"] == "KernelVector" and w["evidence"]["image_rank"] == 0
    ev = w["evidence"]
    evidence = SchmidtEvidence(
        np.array(ev["input_coefficients"]), ev["input_rank"], tuple(ev["input_shape"]),
        np.array(ev["image_coefficients"]), ev["image_rank"], tuple(ev["image_shape"]),
    )
    state = np.array([complex(re, im) for re, im in w["state"]])
    loaded = load_map_file(path)
    bmap = BipartiteMap(loaded.array, loaded.shape)
    assert witness_reverifies(bmap, Witness(w["kind"], state, evidence))
    assert not witness_reverifies(bmap, Witness("ProductToEntangled", state, evidence))


def test_classify_report_without_a_witness_says_so(capsys, tmp_path, monkeypatch):
    # a map just above tol reaches the product-state search, patched to fail
    bmap = perturb(random_local_map((2, 2), seed=1007, cond_cap=1e3), 1.5e-8, seed=32)
    path = tmp_path / "near_tol.json"
    save_map_file(path, KIND_BIPARTITE_MAP, (2, 2), bmap.matrix)
    monkeypatch.setattr(classifier, "_product_search_witness", lambda *args: None)
    code, out, _ = run(capsys, ["classify", str(path), "--json"])
    assert code == 3
    verdict = json.loads(out)["verdict"]
    assert verdict["detail"] == "no local or swap-local decomposition fits; no witness found"
    assert "witness" not in verdict


def test_malformed_json_exits_1(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json}")
    code, _, err = run(capsys, ["classify", str(path)])
    assert code == 1
    assert "error" in err


def test_wrong_kind_exits_1(capsys, tmp_path):
    path = gen(capsys, tmp_path, "bell")
    code, _, _ = run(capsys, ["classify", path])
    assert code == 1


def test_dimension_mismatch_exits_2(capsys, tmp_path):
    path = tmp_path / "dim.json"
    path.write_text(
        json.dumps(
            {"kind": "bipartite_map", "shape": [2, 2], "matrix": [[[1.0, 0.0]] * 3] * 3}
        )
    )
    code, _, err = run(capsys, ["classify", str(path)])
    assert code == 2
    assert "dimension" in err


def test_schmidt_on_bell_state(capsys, tmp_path):
    path = gen(capsys, tmp_path, "bell")
    code, out, _ = run(capsys, ["schmidt", path])
    assert code == 0
    assert "rank: 2" in out
    assert out.count("0.707106781") == 2


def test_schmidt_bases_flag(capsys, tmp_path):
    path = gen(capsys, tmp_path, "bell")
    code, out, _ = run(capsys, ["schmidt", path, "--bases"])
    assert code == 0
    assert "left vectors" in out and "right vectors" in out


def test_schmidt_shape_flag_overrides(capsys, tmp_path):
    path = gen(capsys, tmp_path, "bell")
    code, out, _ = run(capsys, ["schmidt", path, "--shape", "2", "2", "--json"])
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_measure_commands(capsys, tmp_path):
    bell = gen(capsys, tmp_path, "bell")
    code, out, _ = run(capsys, ["measure", bell, "--measure", "E"])
    assert code == 0 and out.strip() == "1.000000000"
    code, out, _ = run(capsys, ["measure", bell, "--measure", "E2"])
    assert code == 0 and out.strip() == "1.000000000"

    probe = gen(capsys, tmp_path, "psi_c", "0.6", "2", "2")
    code, out, _ = run(capsys, ["measure", probe, "--measure", "E"])
    assert code == 0 and out.strip() == "0.942683189"

    product = gen(capsys, tmp_path, "psi_c", "1.0", "2", "2")
    code, out, _ = run(capsys, ["measure", product, "--measure", "E"])
    assert code == 0 and out.strip() == "0.000000000"


@pytest.mark.parametrize("dims", [(2, 2), (3, 4)])
@pytest.mark.parametrize("c", ["0", "0.6", "0.7071067811865475", "1"])  # 1/sqrt(2) to the last digit
def test_gen_psi_c_writes_the_two_term_state(capsys, tmp_path, c, dims):
    # byte for byte the file of the state written entry by entry:
    # c on the first product ket, sqrt(1 - c^2) on the last
    n, m = dims
    v = np.zeros(n * m, dtype=complex)
    v[0] = float(c)
    v[-1] = np.sqrt(1.0 - float(c) * float(c))
    expected = tmp_path / "expected.json"
    save_map_file(expected, KIND_STATE, dims, v)
    path = gen(capsys, tmp_path, "psi_c", c, str(n), str(m))
    with open(path, "rb") as f:
        assert f.read() == expected.read_bytes()


def test_schmidt_scalar_shape_needs_flag(capsys, tmp_path):
    path = tmp_path / "scalar_state.json"
    path.write_text(
        json.dumps({"kind": "state", "shape": 4, "matrix": [[0.5, 0.0]] * 4})
    )
    code, _, _ = run(capsys, ["schmidt", str(path)])
    assert code == 2
    code, out, _ = run(capsys, ["schmidt", str(path), "--shape", "2", "2"])
    assert code == 0 and "rank:" in out


def test_measure_E_requires_normalized_state(capsys, tmp_path):
    path = tmp_path / "unnormalized.json"
    path.write_text(
        json.dumps({"kind": "state", "shape": [2, 2], "matrix": [[2.0, 0.0]] + [[0.0, 0.0]] * 3})
    )
    code, _, _ = run(capsys, ["measure", str(path), "--measure", "E"])
    assert code == 1
    code, out, _ = run(capsys, ["measure", str(path), "--measure", "E1"])
    assert code == 0 and out.strip() == "0.000000000"
    code, out, _ = run(capsys, ["measure", str(path), "--measure", "E2"])
    assert code == 0 and out.strip() == "0.000000000"


def test_verify_entropy_wrong_kind_exits_1(capsys, tmp_path):
    path = gen(capsys, tmp_path, "cnot")
    code, _, _ = run(capsys, ["verify-entropy", path])
    assert code == 1


def test_verify_entropy_unitary(capsys, tmp_path):
    path = gen(capsys, tmp_path, "superop_unitary", "3", seed=5)
    code, out, _ = run(capsys, ["verify-entropy", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "UnitaryConjugation"
    assert abs(report["verdict"]["gain"] - 1.0) <= 1e-9
    assert "ambiguous_gram" not in report["verdict"]


def test_samples_flag_is_retired(capsys, tmp_path):
    path = gen(capsys, tmp_path, "superop_unitary", "3", seed=5)
    code, _, err = run(capsys, ["verify-entropy", path, "--samples", "4"])
    assert code == 1
    assert "--samples" in err


def test_verify_entropy_transpose(capsys, tmp_path):
    path = gen(capsys, tmp_path, "superop_transpose", "2")
    code, out, _ = run(capsys, ["verify-entropy", path])
    assert code == 0
    assert "AntiunitaryConjugation" in out


def test_verify_entropy_depolarizer(capsys, tmp_path):
    path = gen(capsys, tmp_path, "superop_depolarize", "2")
    code, out, _ = run(capsys, ["verify-entropy", path, "--json"])
    assert code == 3
    witness = json.loads(out)["verdict"]["witness"]
    assert abs(witness["entropy_out"] - 0.8112781244591328) <= 1e-6


def assert_record_matches(record, obj):
    """record, a --json object, holds exactly obj's non-None dataclass
    fields, in field order, with the same values."""
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj) if getattr(obj, f.name) is not None]
        assert list(record) == names
        for name in names:
            assert_record_matches(record[name], getattr(obj, name))
    elif isinstance(obj, np.ndarray):
        pairs = np.asarray(record, dtype=float)
        if np.iscomplexobj(obj):
            pairs = pairs[..., 0] + 1j * pairs[..., 1]
        np.testing.assert_array_equal(pairs, obj)
    elif isinstance(obj, tuple):
        assert record == list(obj)
    else:
        assert record == obj


@pytest.mark.parametrize(
    "kind,params",
    [("cnot", ()), ("local", ("3", "3")), ("swap_local", ("2", "3")), ("scaled_unitary", ())],
)
def test_classify_json_objects_are_the_result_dataclasses(capsys, tmp_path, kind, params):
    if kind == "scaled_unitary":
        # E1 holds (a certificate) and E2 fails (a witness)
        path = str(tmp_path / "scaled_unitary.json")
        save_map_file(path, KIND_BIPARTITE_MAP, (2, 3), kron(2 * haar_unitary(2, 1), haar_unitary(3, 2)))
    else:
        path = gen(capsys, tmp_path, kind, *params)
    code, out, _ = run(capsys, ["classify", path, "--json"])
    report = json.loads(out)
    loaded = load_map_file(path)
    verdict = classify(BipartiteMap(loaded.array, loaded.shape))
    if verdict.witness is not None:
        assert code == 3 and "quantitative" not in report
        assert_record_matches(report["verdict"]["witness"], verdict.witness)
        return
    assert code == 0 and "witness" not in report["verdict"]
    for name, check in (("E1", check_E1), ("E2", check_E2)):
        assert_record_matches(report["quantitative"][name], check(verdict.a, verdict.b))
    if kind == "scaled_unitary":
        assert "certificate" in report["quantitative"]["E1"]
        assert "witness" in report["quantitative"]["E2"]


def test_verify_entropy_json_witness_is_the_result_dataclass(capsys, tmp_path):
    path = gen(capsys, tmp_path, "superop_depolarize", "2")
    code, out, _ = run(capsys, ["verify-entropy", path, "--json"])
    assert code == 3
    loaded = load_map_file(path)
    verdict = analyze(Superoperator(loaded.array, loaded.shape))
    assert_record_matches(json.loads(out)["verdict"]["witness"], verdict.witness)


def _refuse(name):
    raise ValueError(f"non-finite constant {name} in the report")


def test_verify_entropy_report_without_a_witness_is_strict_json(capsys, tmp_path):
    # -conj(U) x U maps the first probe to minus a projector whose clipped
    # spectrum sums to 0: no state is left to take an entropy of
    path = tmp_path / "negated.json"
    save_map_file(path, KIND_SUPEROPERATOR, 2, -superop_from_conjugation(haar_unitary(2, seed=0)).matrix)
    code, out, _ = run(capsys, ["verify-entropy", str(path), "--json"])
    assert code == 3
    verdict = json.loads(out, parse_constant=_refuse)["verdict"]
    assert verdict["detail"] == "image of a pure state is not a positive rank-1 matrix; no witness found"
    assert "witness" not in verdict


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_classify_report_writes_an_overflowing_witness_value_as_null(capsys, tmp_path, scale):
    # check_E2's norm-weighted witness value overflows at the map's scale
    path = tmp_path / "scaled.json"
    save_map_file(path, KIND_BIPARTITE_MAP, (3, 3), random_local_map((3, 3), seed=2).matrix * scale)
    code, out, _ = run(capsys, ["classify", str(path), "--json"])
    assert code == 0
    e2 = json.loads(out, parse_constant=_refuse)["quantitative"]["E2"]
    assert e2["preserved"] is False
    assert e2["witness"]["value_in"] == 1.0 and e2["witness"]["value_out"] is None


def test_non_finite_report_value_is_an_internal_error(capsys, tmp_path, monkeypatch):
    # a non-finite float that _jsonable does not see is refused, not printed
    path = gen(capsys, tmp_path, "superop_unitary", "2")
    real_analyze = cli.analyze

    def overflowing_gain(*args, **kwargs):
        return dataclasses.replace(real_analyze(*args, **kwargs), gain=float("inf"))

    monkeypatch.setattr(cli, "analyze", overflowing_gain)
    code, out, err = run(capsys, ["verify-entropy", path, "--json"])
    assert (code, out) == (4, "")
    assert "internal error" in err


def test_gen_unitary_is_generically_rejected(capsys, tmp_path):
    path = gen(capsys, tmp_path, "unitary", "2", "2", seed=21)
    code, out, _ = run(capsys, ["classify", path, "--json"])
    assert code == 3
    assert json.loads(out)["verdict"]["witness"] is not None


def test_gen_bad_arguments_exit_1(capsys, tmp_path):
    code, _, _ = run(capsys, ["gen", "psi_c", "1.5", "2", "2"])
    assert code == 1
    code, _, _ = run(capsys, ["gen", "local", "3"])
    assert code == 1
    code, _, _ = run(capsys, ["gen", "nonsense", "2"])
    assert code == 1


def test_gen_without_out_prints_document(capsys):
    code, out, _ = run(capsys, ["gen", "bell"])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "state" and data["shape"] == [2, 2]


@pytest.mark.parametrize(
    "params",
    [("unitary", "16", "16"), ("bell",), ("psi_c", "0.6", "2", "3"), ("superop_depolarize", "2")],
)
def test_gen_prints_the_bytes_it_writes(capsys, tmp_path, params):
    code, out, _ = run(capsys, ["gen", *params])
    assert code == 0
    path = gen(capsys, tmp_path, *params)
    with open(path, "rb") as f:
        assert f.read() == out.encode()


def test_cached_parser_keeps_no_state_between_calls(capsys, tmp_path):
    assert build_parser() is build_parser()
    psi = gen(capsys, tmp_path, "psi_c", "0.6", "2", "3")
    bell = gen(capsys, tmp_path, "bell")
    code, out, _ = run(capsys, ["schmidt", psi, "--shape", "2", "3", "--bases", "--json"])
    assert code == 0 and "left_vectors" in json.loads(out)
    # the file's own shape [2, 2], no bases, no JSON
    code, out, _ = run(capsys, ["schmidt", bell])
    assert code == 0
    assert out.startswith("rank: 2\n") and "left vectors" not in out

    local = gen(capsys, tmp_path, "local", "2", "2")
    code, out, _ = run(capsys, ["classify", local, "--tol", "1e-6", "--json"])
    assert code == 0 and json.loads(out)["tolerances"]["tol"] == 1e-6
    code, out, _ = run(capsys, ["classify", local, "--json"])
    assert code == 0 and json.loads(out)["tolerances"]["tol"] == DEFAULT_RANK_TOL

    code, out, err = run(capsys, ["classify", local, "--tol", "5"])
    assert (code, out) == (1, "") and "tol must be in (0, 1)" in err
    code, out, err = run(capsys, ["classify", local])
    assert (code, err) == (0, "") and out.startswith("kind: Local\n")


def _gen_bytes(capsys, tmp_path, name, *flags):
    path = tmp_path / name
    code, _, _ = run(capsys, ["gen", "local", "2", "2", *flags, "--out", str(path)])
    assert code == 0
    return path.read_bytes()


@pytest.mark.parametrize("env", ["31", "abc"])
def test_gen_seed_ignores_environment(capsys, tmp_path, monkeypatch, env):
    # --seed alone seeds gen, 0 by default; no environment variable sets it
    default = _gen_bytes(capsys, tmp_path, "seed0.json", "--seed", "0")
    assert _gen_bytes(capsys, tmp_path, "seed31.json", "--seed", "31") != default
    monkeypatch.setenv("UNITARITY_KIT_SEED", env)
    assert _gen_bytes(capsys, tmp_path, "env.json") == default


def test_integer_beyond_float_range_exits_1(capsys, tmp_path):
    path = tmp_path / "huge.json"
    pairs = [[10**400, 0]] + [[0, 0]] * 3
    path.write_text(json.dumps({"kind": "state", "shape": [2, 2], "matrix": pairs}))
    code, out, err = run(capsys, ["schmidt", str(path)])
    assert (code, out) == (1, "")
    assert "too large" in err


@pytest.mark.parametrize(
    "command,kind,params",
    [("classify", "local", ("2", "2")), ("verify-entropy", "superop_unitary", ("2",))],
)
def test_seed_flag_is_retired(capsys, tmp_path, command, kind, params):
    path = gen(capsys, tmp_path, kind, *params)
    code, _, err = run(capsys, [command, path, "--seed", "3"])
    assert code == 1
    assert "--seed" in err


@pytest.mark.parametrize("env", ["31", "abc"])
@pytest.mark.parametrize(
    "command,kind,params",
    [
        ("classify", "local", ("2", "2")),
        ("classify", "unitary", ("2", "2")),
        ("verify-entropy", "superop_unitary", ("3",)),
        ("verify-entropy", "superop_depolarize", ("2",)),
    ],
)
def test_seed_env_leaves_reports_unchanged(capsys, tmp_path, monkeypatch, env, command, kind, params):
    # witness searches use fixed streams; the former seed variable is ignored
    path = gen(capsys, tmp_path, kind, *params)
    unset = run(capsys, [command, path, "--json"])
    monkeypatch.setenv("UNITARITY_KIT_SEED", env)
    assert run(capsys, [command, path, "--json"]) == unset
    assert "seed" not in json.loads(unset[1])


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1", "5"])
def test_tolerance_outside_unit_interval_exits_1(capsys, tmp_path, tol):
    local = gen(capsys, tmp_path, "local", "2", "2")
    superop = gen(capsys, tmp_path, "superop_unitary", "2")
    bell = gen(capsys, tmp_path, "bell")
    for argv in (
        ["classify", local],
        ["verify-entropy", superop],
        ["schmidt", bell],
        ["measure", bell],
    ):
        code, out, err = run(capsys, [*argv, "--tol", tol])
        assert (code, out) == (1, ""), argv
        assert f"tol must be in (0, 1), got {float(tol)}" in err


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "2 dimension error" in out
