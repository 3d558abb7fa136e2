#!/usr/bin/env python3
"""Sweep the perturbation strength of local maps and watch locality break.

For each epsilon, draws random (swap-)local maps, adds a Gaussian direction
of that relative size, classifies the result, and reports the rejection
fraction plus the reconstruction error of any survivors.
"""

import argparse

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
    print(f"{'epsilon':>10}  {'rejected':>9}  {'accepted':>9}  worst recon err of accepted")
    for eps in args.epsilons:
        rejected = 0
        worst_err = 0.0
        for _ in range(args.trials):
            shape = SHAPES[int(rng.integers(len(SHAPES)))]
            base = random_local_map(shape, swap=bool(rng.integers(2)), seed=rng)
            noisy = perturb(base, eps, seed=rng)
            verdict = classify(noisy, seed=int(rng.integers(2**32)))
            if verdict.kind == KIND_NOT_PRESERVING:
                rejected += 1
            else:
                worst_err = max(worst_err, verdict.reconstruction_error)
        accepted = args.trials - rejected
        err = f"{worst_err:.2e}" if accepted else "-"
        print(f"{eps:>10.1e}  {rejected:>9}  {accepted:>9}  {err}")


if __name__ == "__main__":
    main()
