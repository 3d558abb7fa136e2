#!/usr/bin/env python3
"""Round-trip demo for the single-system analyzer.

Builds a batch of candidate dynamics (scaled unitary conjugations, an
antiunitary one, a depolarizer, a non-unitary conjugation, a replacement
channel, and a conjugation plus a second one just above tol), analyzes
each, and prints the verdict with the reconstruction quality and the
detail that names the deciding stage.  The rejected cases reach every
stage of the witness search: a mixed image, unequal gains, a changed
overlap modulus, and the scan over all probe pairs.
"""

import argparse

import numpy as np

from unitarity_kit.entropy_dynamics import (
    Superoperator,
    analyze,
    superop_depolarizing,
    superop_from_conjugation,
    superop_transpose,
    vec_density,
)
from unitarity_kit.generators import haar_unitary, random_pure_state, split_rng


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0, help="seed of the random unitaries U, V and state psi")
    args = ap.parse_args()

    rng = split_rng(args.seed, 0)
    d = args.dim
    u = haar_unitary(d, rng)
    v = haar_unitary(d, rng)
    psi = random_pure_state(d, rng)
    m = np.diag(np.linspace(1.0, 2.0, d)).astype(complex)

    cases = [
        ("conjugation by U", superop_from_conjugation(u, gain=1.0), u),
        ("1.7 * conjugation by V", superop_from_conjugation(v, gain=1.7), v),
        ("transpose", superop_transpose(d), np.eye(d, dtype=complex)),
        (
            "V . transpose",
            Superoperator(
                matrix=superop_from_conjugation(v).matrix @ superop_transpose(d).matrix,
                dim=d,
            ),
            v,
        ),
        ("depolarizer 0.5", superop_depolarizing(d, 0.5), None),
        ("conjugation by diag(1..2)", Superoperator(np.kron(m.conj(), m), d), None),
        (
            "replacement by psi",
            Superoperator(np.outer(vec_density(np.outer(psi, psi.conj())), vec_density(np.eye(d))), d),
            None,
        ),
        (
            "U + 1e-8 * V conjugations",
            Superoperator(
                superop_from_conjugation(u).matrix + 1e-8 * superop_from_conjugation(v).matrix, d
            ),
            None,
        ),
    ]

    for name, superop, reference in cases:
        verdict = analyze(superop)
        line = f"{name:28s} -> {verdict.kind}"
        if verdict.gain is not None:
            line += f"  gain={verdict.gain:.6f}"
        if reference is not None and verdict.unitary is not None:
            overlap = np.abs(np.diag(verdict.unitary.conj().T @ reference)).min()
            line += f"  column overlap>={overlap:.12f}"
        if verdict.witness is not None:
            w = verdict.witness
            line += f"  witness: p={w.p:.3f} S_in={w.entropy_in:.6f} S_out={w.entropy_out:.6f}"
        print(f"{line}\n{'':28s}    {verdict.detail}")


if __name__ == "__main__":
    main()
