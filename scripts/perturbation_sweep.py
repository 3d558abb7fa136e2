#!/usr/bin/env python3
"""Sweep the perturbation strength of local maps and watch locality break.

For each epsilon, draws random (swap-)local maps, adds a Gaussian direction
of that relative size, classifies the result, and reports the rejection
fraction, how many rejects carry a witness that re-verifies from scratch
(acceptance.witness_reverifies), plus the reconstruction error of any
survivors.  Exits with status 1 when some reject lacks such a witness.
"""

import argparse
import sys

from unitarity_kit.acceptance import witness_reverifies
from unitarity_kit.classifier import KIND_NOT_PRESERVING, classify
from unitarity_kit.generators import perturb, random_local_map, split_rng

SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=40, help="maps per epsilon")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--epsilons",
        type=float,
        nargs="+",
        default=[0.0, 1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 1e-2],
    )
    args = ap.parse_args()

    rng = split_rng(args.seed, 0)
    print(f"{'epsilon':>10}  {'rejected':>9}  {'verified':>9}  {'accepted':>9}  worst recon err of accepted")
    unverified = 0
    for eps in args.epsilons:
        rejected = verified = 0
        worst_err = 0.0
        for _ in range(args.trials):
            shape = SHAPES[int(rng.integers(len(SHAPES)))]
            base = random_local_map(shape, swap=bool(rng.integers(2)), seed=rng)
            noisy = perturb(base, eps, seed=rng)
            rng.integers(2**32)  # spent draw, once a witness seed: keeps later maps fixed
            verdict = classify(noisy)
            if verdict.kind == KIND_NOT_PRESERVING:
                rejected += 1
                verified += verdict.witness is not None and witness_reverifies(noisy, verdict.witness)
            else:
                worst_err = max(worst_err, verdict.reconstruction_error)
        accepted = args.trials - rejected
        err = f"{worst_err:.2e}" if accepted else "-"
        print(f"{eps:>10.1e}  {rejected:>9}  {verified:>9}  {accepted:>9}  {err}")
        unverified += rejected - verified
    if unverified:
        print(f"{unverified} rejects lack a witness that re-verifies", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
