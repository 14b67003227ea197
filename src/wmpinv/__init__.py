"""Weighted Moore-Penrose inverses with indefinite self-adjoint weights.

The package computes the weighted inverse through the factored form
R^{-1} A+ L^{-1}, decides existence from the two factors, reduces
indefinite weights to positive definite ones, evaluates the pencil
limits that produce weighted inverses, and ships continuity diagnostics
plus a command line front end.
"""

from .continuity import (
    ContinuityDiagnostics,
    PerturbationSequence,
    perturb_weights_only,
    run_diagnostics,
)
from .core import (
    EquivalentWeightFamily,
    ExistenceReport,
    PositiveReduction,
    WmpResult,
    equivalent_domain_weights,
    matched_projection,
    positive_reduction,
    require_wmp_inverse,
    rho_embed,
    verify_weighted_penrose,
    weight_transfer_codomain,
    weight_transfer_domain,
    weighted_adjoint,
    wmp_exists,
    wmp_inverse,
    wmp_inverse_positive,
)
from .exceptions import (
    CriteriaDisagreeError,
    NonExistentError,
    NotIdempotentError,
    NotPositiveOnRangeError,
    NotPositiveSemidefiniteError,
    NotSeparatedError,
    RankFlipWarning,
    VerificationError,
    WeightError,
    WmpError,
)
from .limits import (
    BDecomposition,
    GeneralLimitResult,
    OmegaWeight,
    SeparatedPairReport,
    closed_form_separated,
    decompose_b,
    general_limit_via_decomposition,
    limit_lambda_to_inf,
    limit_t_to_zero,
    omega_weight,
    separated_pair_check,
)
from .linalg import (
    DEFAULT_TOL,
    LimitTrace,
    SvdFactorization,
    ToleranceConfig,
    as_matrix,
    condition_number,
    hermitian_power,
    mp_inverse,
    operator_norm,
    projector_rowspace,
    svd_factor,
)
from .weights import Weight, as_weight

__version__ = "0.1.0"
