"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with pytest -v -s or on failure)."""

import time

import numpy as np
import pytest

from unitarity_kit import acceptance, witness_reverifies
from unitarity_kit.classifier import BipartiteMap, classify
from unitarity_kit.cli import main
from unitarity_kit.generators import cnot_map


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion()
    line = f"{'PASS' if result.passed else 'FAIL'} {result.name} ({result.seconds:.2f}s): {result.detail}"
    print(line)
    assert result.passed, line


@pytest.mark.parametrize("scale", [1e-312, 1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200, 1e307])
def test_witness_reverifies_at_every_scale(scale):
    cnot = cnot_map()
    witness = classify(cnot).witness
    scaled = BipartiteMap(scale * cnot.matrix, cnot.shape)
    assert witness_reverifies(scaled, witness)
    # the identity sends the product witness to a product image
    identity = BipartiteMap(scale * np.eye(4, dtype=complex), cnot.shape)
    assert not witness_reverifies(identity, witness)


def test_criterion_selfcheck_cli(capsys):
    # the CLI selfcheck runs the embedded battery end to end, exits 0, and
    # finishes far inside the five-minute budget
    start = time.perf_counter()
    code = main(["selfcheck"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    print(f"selfcheck exit {code} in {elapsed:.1f}s")
    assert code == 0
    assert elapsed < 300.0
    assert out.count("PASS") == len(acceptance.CRITERIA) and "FAIL" not in out
