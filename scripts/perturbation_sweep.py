#!/usr/bin/env python3
"""Sweep the perturbation strength of local maps and watch locality break.

For each epsilon, draws random (swap-)local maps, adds a Gaussian direction
of that relative size, classifies the result, and reports the rejection
fraction, how many rejects carry a witness that re-verifies from scratch
(unitarity_kit.witness_reverifies: a kernel state the map annihilates, or
a product state whose image is entangled, for n != m in both layouts
(n, m) and (m, n)), how many rejects the leading 2x2 block of the image
of |0,0> decided before either realignment fit ("1st image"), how many of
the rest the leading 2x2 block of row 0, a block of both realignments,
decided before either fit ("row 0"), plus the reconstruction error of any
survivors.  Exits with status 1 when some reject lacks such a witness, or
when either block test decides a map on which a realignment reading fits
(error <= tol), which their bound rules out.
"""

import argparse
import sys

from unitarity_kit import classifier, witness_reverifies
from unitarity_kit.classifier import KIND_NOT_PRESERVING, classify
from unitarity_kit.generators import perturb, random_local_map, split_rng
from unitarity_kit.linalg import DEFAULT_RANK_TOL

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
    tol = DEFAULT_RANK_TOL
    print(
        f"{'epsilon':>10}  {'rejected':>9}  {'verified':>9}  {'1st image':>9}  {'row 0':>9}  {'accepted':>9}"
        "  worst recon err of accepted"
    )
    unverified = unsound = 0
    for eps in args.epsilons:
        rejected = verified = first_image = first_row = 0
        worst_err = 0.0
        for _ in range(args.trials):
            shape = SHAPES[int(rng.integers(len(SHAPES)))]
            base = random_local_map(shape, swap=bool(rng.integers(2)), seed=rng)
            noisy = perturb(base, eps, seed=rng)
            rng.integers(2**32)  # spent draw, once a witness seed: keeps later maps fixed
            verdict = classify(noisy, tol)
            by_image = classifier._first_image_entangled(noisy, tol)
            by_row = not by_image and classifier._first_row_entangled(noisy, tol)
            first_image += by_image
            first_row += by_row
            if by_image or by_row:
                unsound += any(classifier._fit_local(noisy, swap, tol)[2] <= tol for swap in (False, True))
            if verdict.kind == KIND_NOT_PRESERVING:
                rejected += 1
                verified += verdict.witness is not None and witness_reverifies(noisy, verdict.witness, tol)
            else:
                worst_err = max(worst_err, verdict.reconstruction_error)
        accepted = args.trials - rejected
        err = f"{worst_err:.2e}" if accepted else "-"
        print(f"{eps:>10.1e}  {rejected:>9}  {verified:>9}  {first_image:>9}  {first_row:>9}  {accepted:>9}  {err}")
        unverified += rejected - verified
    if unverified:
        print(f"{unverified} rejects lack a witness that re-verifies", file=sys.stderr)
    if unsound:
        print(f"the block tests decided {unsound} maps that a reading fits", file=sys.stderr)
    if unverified or unsound:
        sys.exit(1)


if __name__ == "__main__":
    main()
