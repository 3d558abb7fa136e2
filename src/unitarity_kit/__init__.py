"""Numerical toolkit: entropy/entanglement preservation analysis for linear
dynamical maps, with constructive unitary extraction and counterexample
witnesses."""

__version__ = "0.1.0"

from .classifier import (
    BipartiteMap,
    ProductImageTable,
    QualitativeVerdict,
    SchmidtEvidence,
    Witness,
    build_image_table,
    check_full_rank,
    classify,
    extract_factors,
    factor_phase_grid,
    witness_reverifies,
)
from .entropy_dynamics import (
    EntropyWitness,
    MixtureSpectrum,
    SingleSystemVerdict,
    Superoperator,
    analyze,
    gain_equality_deficit,
    input_spectrum,
    mu2_relation,
    output_spectrum,
    ratio_mismatch_scan,
    superop_depolarizing,
    superop_from_conjugation,
    superop_transpose,
    unvec_density,
    vec_density,
)
from .generators import (
    cnot_map,
    haar_unitary,
    perturb,
    random_density,
    random_invertible,
    random_local_map,
    random_pure_state,
    random_schmidt_rank_state,
    split_rng,
)
from .linalg import (
    SVDResult,
    kron,
    numerical_rank,
    svd,
)
from .quantitative import (
    QuantitativeVerdict,
    check_E1,
    check_E2,
    psi_c,
    psi_c_entanglement,
    ratio_deficit,
    ratio_deficit_root,
    ratio_deficit_sign_changes,
)
from .schmidt import (
    BipartiteShape,
    SchmidtDecomposition,
    entanglement_E,
    measure_E1,
    measure_E2,
    schmidt_decompose,
    schmidt_rank,
    swap_operator,
)
from .states import von_neumann_entropy
