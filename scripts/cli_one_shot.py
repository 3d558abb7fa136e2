#!/usr/bin/env python3
"""Run the CLI in fresh one-shot processes and check every report.

The benchmark calls cli.main in one process; this runs the installed entry
point's path instead, one interpreter per command, with RuntimeWarnings as
errors and a 60 s limit each.  It writes its fixtures to a temporary
directory: generated maps, and maps at the edges of the float range, singular
products, controlled phases and generalized CNOTs that exercise each stage of
classify and verify-entropy.  Every command must exit with the expected code
and print strict JSON (no NaN or Infinity); each classify reject must carry a
witness of the expected kind that re-verifies on the map in its file
(witness_reverifies), and the depolarizer's witness entropies must recompute
from the file with plain numpy.  The first failed check ends the run with
exit status 1 and names the check; exit status 0 means every check passed.

    python scripts/cli_one_shot.py
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from unitarity_kit import BipartiteMap, SchmidtEvidence, Witness, witness_reverifies  # noqa: E402
from unitarity_kit.entropy_dynamics import superop_depolarizing  # noqa: E402
from unitarity_kit.generators import random_invertible, random_local_map  # noqa: E402
from unitarity_kit.linalg import kron  # noqa: E402
from unitarity_kit.mapfile import load_map_file, save_map_file  # noqa: E402
from unitarity_kit.schmidt import swap_operator  # noqa: E402

ENTRY = "from unitarity_kit.cli import entry_point; entry_point()"
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def cli(*args) -> subprocess.CompletedProcess:
    """One CLI command in a fresh interpreter; a hang fails within a minute."""
    command = [sys.executable, "-W", "error::RuntimeWarning", "-c", ENTRY, *map(str, args)]
    try:
        return subprocess.run(command, env=ENV, capture_output=True, timeout=60)
    except subprocess.TimeoutExpired:
        sys.exit(f"{' '.join(map(str, args))} did not finish within 60 s")


def gen(*args) -> None:
    done = cli("gen", *args)
    if done.returncode != 0:
        sys.exit(f"gen {' '.join(map(str, args))} exited with {done.returncode}: {done.stderr.decode()}")


def report(want: int, *args) -> dict:
    """The --json report of a command that must exit with want, parsed as
    strict JSON."""
    done = cli(*args, "--json")
    if done.returncode != want:
        sys.exit(f"{' '.join(map(str, args))} exited with {done.returncode}, expected {want}")

    def refuse(name):
        raise ValueError(f"non-finite constant {name} in the report of {' '.join(map(str, args))}")

    print(f"ok: {' '.join(map(str, args))} exited with {want}")
    return json.loads(done.stdout.decode("utf-8"), parse_constant=refuse)


def reverify(path: Path, verdict: dict, kind: str) -> None:
    """The reported witness is of the kind given and makes its claim on the
    map in the file."""
    w = verdict["witness"]
    ev = w["evidence"]
    evidence = SchmidtEvidence(
        np.array(ev["input_coefficients"]), ev["input_rank"], tuple(ev["input_shape"]),
        np.array(ev["image_coefficients"]), ev["image_rank"], tuple(ev["image_shape"]),
    )
    state = np.array([complex(re, im) for re, im in w["state"]])
    if w["kind"] != kind:
        sys.exit(f"the witness of {path} is a {w['kind']}, not a {kind}")
    loaded = load_map_file(path)
    if not witness_reverifies(BipartiteMap(loaded.array, loaded.shape), Witness(w["kind"], state, evidence)):
        sys.exit(f"the {w['kind']} witness of {path} does not re-verify")
    print(f"ok: the {kind} witness of {path.name} re-verifies")


def write_fixtures(d: Path) -> None:
    save_map_file(d / "scaled.json", "bipartite_map", (3, 3), random_local_map((3, 3), seed=2).matrix * 1e300)
    # largest part 9.4e307: A alone cannot carry the whole scale
    save_map_file(d / "huge.json", "bipartite_map", (3, 3), random_local_map((3, 3), seed=0).matrix * 1.7e308)
    # a singular A (x) B: only its rank fails
    singular = np.diag([1.0, 0.0]) @ random_invertible(2, seed=3)
    save_map_file(d / "singular.json", "bipartite_map", (2, 3), kron(singular, random_invertible(3, seed=4)))
    # the same after the relabeling of the layout (3, 2): a SwapLocal reading fits
    swapped = kron(singular, random_invertible(3, seed=5)) @ swap_operator((3, 2))
    save_map_file(d / "singular-swap.json", "bipartite_map", (3, 2), swapped)
    # a local map after a controlled phase and after a generalized CNOT:
    # every basis image is a product, and the row-0 block decides
    local = kron(random_invertible(3, seed=6), random_invertible(3, seed=7))
    save_map_file(d / "cphase.json", "bipartite_map", (3, 3), local @ np.diag(np.exp(1j * np.arange(9) ** 2)))
    shift = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            shift[i * 3 + (i + j) % 3, i * 3 + j] = 1.0
    save_map_file(d / "cnot-left.json", "bipartite_map", (3, 3), local @ shift)
    # a swap-local map after a controlled phase: the image of the ramp state is entangled in both layouts
    swap_local = kron(random_invertible(3, seed=8), random_invertible(2, seed=9)) @ swap_operator((2, 3))
    save_map_file(d / "swap-cphase.json", "bipartite_map", (2, 3), swap_local @ np.diag(np.exp(1j * np.arange(6) ** 2)))
    # a local map with one basis image 1e-170 of the rest: the image of the ramp state is entangled
    tiny = random_local_map((2, 2), seed=3).matrix.copy()
    tiny[:, 3] *= 1e-170
    save_map_file(d / "tiny-column.json", "bipartite_map", (2, 2), tiny)
    # a depolarizer at 1e-300: the row-0 block of its realignments rules out both readings
    save_map_file(d / "tiny-depolarize.json", "superoperator", 3, superop_depolarizing(3, 0.5).matrix * 1e-300)


def check_huge_factors(verdict: dict) -> None:
    parts = [x for name in ("factor_a", "factor_b") for row in verdict[name] for pair in row for x in pair]
    if verdict["kind"] != "Local" or not all(isinstance(x, float) and math.isfinite(x) for x in parts):
        sys.exit("the 1.7e308-scaled map did not give finite Local factors")


def check_depolarizer_witness(path: Path, verdict: dict) -> None:
    """The basis set decides the d = 2 depolarizer: the witness is |0>, and
    its entropies recompute from the file with plain numpy."""

    def entries(rows):
        return np.array([complex(re, im) for re, im in rows])

    def entropy(rho):
        lam = np.clip(np.linalg.eigvalsh((rho + rho.conj().T) / 2), 0.0, None)
        lam = lam[lam > 0.0] / lam.sum()
        return float(-(lam * np.log2(lam)).sum())

    with open(path, encoding="utf-8") as fh:
        m = np.array([entries(row) for row in json.load(fh)["matrix"]])
    w = verdict["witness"]
    phi1, phi2 = entries(w["phi1"]), entries(w["phi2"])
    if not np.array_equal(phi1, [1.0, 0.0]):
        sys.exit(f"the depolarizer witness phi1 is {phi1}, not |0>")
    rho = w["p"] * np.outer(phi1, phi1.conj()) + (1.0 - w["p"]) * np.outer(phi2, phi2.conj())
    image = (m @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
    for name, value in (("entropy_in", entropy(rho)), ("entropy_out", entropy(image))):
        if not abs(w[name] - value) <= 1e-9:
            sys.exit(f"the depolarizer witness {name} {w[name]} does not recompute: {value}")
    if not abs(w["entropy_out"] - w["entropy_in"]) > 1e-3:
        sys.exit("the depolarizer witness keeps the entropy")
    print("ok: the depolarizer witness recomputes")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        gen("unitary", 16, 16, "--out", d / "unitary.json")
        # without --out, gen prints the same bytes
        printed = cli("gen", "unitary", 16, 16)
        if printed.returncode != 0 or printed.stdout != (d / "unitary.json").read_bytes():
            sys.exit("gen unitary 16 16 printed other bytes than it wrote")
        gen("local", 3, 3, "--seed", 7, "--out", d / "local.json")
        gen("superop_unitary", 4, "--out", d / "superop.json")
        gen("superop_depolarize", 2, "--out", d / "depolarize.json")
        write_fixtures(d)

        for name in ("local", "scaled"):
            report(0, "classify", d / f"{name}.json")
        check_huge_factors(report(0, "classify", d / "huge.json")["verdict"])
        gen("cnot", "--out", d / "cnot.json")
        rejects = (
            # a Haar map: the leading 2x2 block of its image of |0,0> decides
            ("unitary", "ProductToEntangled"),
            ("singular", "KernelVector"),
            ("singular-swap", "KernelVector"),
            # the row-0 block proves that neither realignment fits
            ("cphase", "ProductToEntangled"),
            ("cnot-left", "ProductToEntangled"),
            ("swap-cphase", "ProductToEntangled"),
            ("tiny-column", "ProductToEntangled"),
            # CNOT: the fixed product state (|0,0> + |1,0>)/sqrt(2) has an entangled image
            ("cnot", "ProductToEntangled"),
        )
        for name, kind in rejects:
            path = d / f"{name}.json"
            reverify(path, report(3, "classify", path)["verdict"], kind)

        report(0, "verify-entropy", d / "superop.json")
        depolarize = d / "depolarize.json"
        check_depolarizer_witness(depolarize, report(3, "verify-entropy", depolarize)["verdict"])
        # a d = 16 conjugation at 1e-300 and at 1e300: the fit's model slab at both extremes
        gen("superop_unitary", 16, "--out", d / "superop16.json")
        loaded = load_map_file(d / "superop16.json")
        for name, scale in (("superop16-tiny", 1e-300), ("superop16-huge", 1e300)):
            save_map_file(d / f"{name}.json", "superoperator", loaded.shape, loaded.array * scale)
            report(0, "verify-entropy", d / f"{name}.json")
        report(3, "verify-entropy", d / "tiny-depolarize.json")
        # the transpose: a block rules out the unitary reading, and the antiunitary fit accepts
        gen("superop_transpose", 3, "--out", d / "transpose.json")
        kind = report(0, "verify-entropy", d / "transpose.json")["verdict"]["kind"]
        if kind != "AntiunitaryConjugation":
            sys.exit(f"the transpose gave a {kind} verdict")
    print("every check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
